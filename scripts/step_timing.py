#!/usr/bin/env python3
"""Per-step cost of each scheme and of the padded transform pairs.

Prints microseconds per step, minimum and median over interleaved runs in
one process, for the NLS schemes (``lri``, ``lie``) and the wave schemes
(``corrected``, ``plain``), each advanced through ``run_nls`` / ``run_wave``
without snapshots, so a step includes its growth guard.  Then prints the
cost of one values-plus-coeffs call pair of the complex (``PaddedPair``) and
the real (``RealPaddedPair``) workspace for 1, 2 and 3 rows.  All cases of
one repeat run back to back before the next repeat starts, so a change in
the machine's speed touches every case alike.  The per-step table uses only
the public runners and is printed first, so it can be taken on another
checkout by pointing ``PYTHONPATH`` at that checkout's ``src``:

    PYTHONPATH=src python3 scripts/step_timing.py
"""

import statistics
import time

import numpy as np

from lowreg import (
    Nonlinearity,
    NlsStepperKind,
    RoughDataSpec,
    TorusGrid,
    random_rough_field,
    run_nls,
    run_wave,
    torus_spectral,
)

SCHEMES = ("lri", "lie", "corrected", "plain")
MODES = (128, 1024, 2048, 4096)  # 2048: the spatial check's 2N grid for N = 1024
ROWS = (1, 2, 3)
STEPS = 500  # steps per timed run
CALLS = 200  # transform call pairs per timed run
REPEATS = 21  # interleaved timed runs per case
TAU = 2.0**-14


def step_case(scheme, n):
    """A callable that advances STEPS steps of ``scheme`` at N = n."""
    grid = TorusGrid(n)
    if scheme in ("lri", "lie"):
        spec = RoughDataSpec(theta=1.0, seed=1, real_valued=False)
        u0 = random_rough_field(spec, grid)
        kind = NlsStepperKind(scheme)
        return lambda: run_nls(u0, TAU, STEPS, 1, kind)
    w0 = torus_spectral.rough_wave_state(RoughDataSpec(theta=1.0, seed=1, amplitude=0.5), grid)
    nl = Nonlinearity.preset("quadratic")
    corrected = scheme == "corrected"
    return lambda: run_wave(w0, TAU, STEPS, nl, corrected=corrected)


def pair_case(kind, n, rows):
    """A callable that makes CALLS values-plus-coeffs call pairs."""
    rng = np.random.default_rng(n)
    if kind == "complex":
        pair = torus_spectral.PaddedPair(n, rows)
        c = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))

        def run():
            for _ in range(CALLS):
                pair.coeffs(pair.values(*c))

        return run
    pair = torus_spectral.RealPaddedPair(n, rows)
    x = rng.standard_normal((rows, n // 2 + 1)) + 1j * rng.standard_normal((rows, n // 2 + 1))

    def run():
        for _ in range(CALLS):
            pair.coeffs(pair.values(x))

    return run


def interleaved(cases):
    """Wall seconds of each case in each repeat, the cases in turn."""
    for run, _ in cases.values():
        run()  # warm-up: FFT plans and caches
    times = {key: [] for key in cases}
    for _ in range(REPEATS):
        for key, (run, _) in cases.items():
            start = time.perf_counter()
            run()
            times[key].append(time.perf_counter() - start)
    return times


def report(title, cases, times):
    print(title, flush=True)
    for key, (_, count) in cases.items():
        us = [1e6 * t / count for t in times[key]]
        label = " ".join(str(part) for part in key)
        print(f"  {label:<22} min {min(us):9.1f} us   median {statistics.median(us):9.1f} us",
              flush=True)


def main():
    print(f"numpy {np.__version__}, {REPEATS} interleaved runs per case", flush=True)
    steps = {(scheme, f"N={n}"): (step_case(scheme, n), STEPS)
             for n in MODES for scheme in SCHEMES}
    report(f"per step ({STEPS} steps per run, tau = {TAU:g}):", steps, interleaved(steps))

    pairs = {(kind, f"N={n}", f"rows={rows}"): (pair_case(kind, n, rows), CALLS)
             for n in MODES for kind in ("complex", "real") for rows in ROWS}
    report(f"padded pair, one values + coeffs call pair ({CALLS} per run):",
           pairs, interleaved(pairs))


if __name__ == "__main__":
    main()

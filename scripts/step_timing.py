#!/usr/bin/env python3
"""Per-step cost of each scheme and of the padded transform pairs.

Prints microseconds per step, minimum and median over interleaved runs in
one process, for the NLS schemes (``lri``, ``lie``) and the wave schemes
(``corrected``, ``plain``), each advanced through ``run_nls`` / ``run_wave``
without snapshots, so a step includes its growth guard.  Next to each
scheme's step at N = 1024 it prints the step of a max-over-steps sweep
(``study_cli._sweeps`` on a ``max_over_steps`` config): the same run, paused
at every step for an error against the reference snapshot of that step, and
its cost as a multiple of the plain step.  The reference snapshots are a
recorded run of the equation's other scheme, handed to the sweep one by one
as a study's reference pass hands them.  Then prints the cost of one
values-plus-coeffs call pair of the complex (``PaddedPair``) and the real
(``RealPaddedPair``) workspace for 1, 2 and 3 rows, and of one
``wave_flow`` plus one ``null_form_field`` call at N = 256 and 1024: the
benchmark's closed-form null-form check makes 2,050 such call pairs at
N = 256.  Last, the cost of
one ``wave_state_norm`` call at N = 256 and 1024, the study norm of every
wave error.  All cases of one repeat run back to back before the next
repeat starts, so a change in the machine's speed touches every case alike.
The plain steps, the free-flow null forms and the wave state norms use only
public names, so their rows can be taken on another checkout by pointing
``PYTHONPATH`` at that checkout's ``src``:

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
    null_form_field,
    run_nls,
    run_wave,
    sobolev_norm,
    study_cli,
    torus_spectral,
    wave_flow,
    wave_state_norm,
)

SCHEMES = ("lri", "lie", "corrected", "plain")
# Each scheme's study scheme name, and the scheme whose run is its reference list.
STUDY = {"lri": ("nls", "lri", "lie"), "lie": ("nls", "lie", "lri"),
         "corrected": ("wave", "corrected_lie", "plain"),
         "plain": ("wave", "lie", "corrected")}
SWEEP_MODES = 1024
MODES = (128, 1024, 2048, 4096)  # 2048: the spatial check's 2N grid for N = 1024
ROWS = (1, 2, 3)
FLOW_MODES = (256, 1024)  # 256: the benchmark's closed-form null-form check
NORM_MODES = (256, 1024)
STEPS = 500  # steps per timed run
CALLS = 200  # transform call pairs per timed run
REPEATS = 21  # interleaved timed runs per case
TAU = 2.0**-14


def step_case(scheme, n, **kwargs):
    """A callable that advances STEPS steps of ``scheme`` at N = n, passing
    ``kwargs`` on to its runner."""
    grid = TorusGrid(n)
    if scheme in ("lri", "lie"):
        spec = RoughDataSpec(theta=1.0, seed=1, real_valued=False)
        u0 = random_rough_field(spec, grid)
        kind = NlsStepperKind(scheme)
        return lambda: run_nls(u0, TAU, STEPS, 1, kind, **kwargs)
    w0 = torus_spectral.rough_wave_state(RoughDataSpec(theta=1.0, seed=1, amplitude=0.5), grid)
    nl = Nonlinearity.preset("quadratic")
    corrected = scheme == "corrected"
    return lambda: run_wave(w0, TAU, STEPS, nl, corrected=corrected, **kwargs)


def sweep_case(scheme, n):
    """A callable that runs one max-over-steps sweep of STEPS steps of
    ``scheme`` at N = n, as a study runs it."""
    equation, study_scheme, other = STUDY[scheme]
    ref = step_case(other, n, record_every=1)()
    config = study_cli.StudyConfig(equation, (TAU,), scheme=study_scheme, n_modes=n,
                                   t_end=STEPS * TAU, max_over_steps=True)
    if equation == "nls":
        term, norm = 1, lambda u: sobolev_norm(u, 0.0)
    else:
        term, norm = Nonlinearity.preset("quadratic"), wave_state_norm

    def run():
        compare, _ = study_cli._sweeps(config, ref[0], term, STEPS, norm)
        for i, state in enumerate(ref):
            compare(i, state)

    return run


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


def flow_case(n):
    """A callable that makes CALLS ``wave_flow`` plus ``null_form_field`` call
    pairs at N = n, one free-flow null-form sample each."""
    w0 = torus_spectral.rough_wave_state(RoughDataSpec(theta=1.0, seed=1, amplitude=0.5),
                                         TorusGrid(n))

    def run():
        for i in range(CALLS):
            null_form_field(wave_flow(w0, 0.01 * i))

    return run


def norm_case(n):
    """A callable that makes CALLS ``wave_state_norm`` calls at N = n."""
    w0 = torus_spectral.rough_wave_state(RoughDataSpec(theta=1.0, seed=1, amplitude=0.5),
                                         TorusGrid(n))

    def run():
        for _ in range(CALLS):
            wave_state_norm(w0)

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


def report(title, cases, times, base=None):
    """One row per case.  A case whose key ``base`` maps to another case also
    gets its minimum as a multiple of that case's minimum, and the median of
    its per-repeat multiples: the two run back to back in each repeat, so a
    change in the machine's speed between repeats cancels in the latter."""
    print(title, flush=True)
    for key, (_, count) in cases.items():
        us = [1e6 * t / count for t in times[key]]
        label = " ".join(str(part) for part in key)
        row = f"  {label:<32} min {min(us):9.1f} us   median {statistics.median(us):9.1f} us"
        if base and key in base:
            paired = statistics.median(a / b for a, b in zip(times[key], times[base[key]]))
            row += f"   {min(times[key]) / min(times[base[key]]):.2f}x, paired {paired:.2f}x"
        print(row, flush=True)


def main():
    print(f"numpy {np.__version__}, {REPEATS} interleaved runs per case", flush=True)
    steps, base = {}, {}
    for n in MODES:
        for scheme in SCHEMES:
            steps[scheme, f"N={n}"] = (step_case(scheme, n), STEPS)
            if n == SWEEP_MODES:
                key = (scheme, f"N={n}", "max-over-steps")
                steps[key], base[key] = (sweep_case(scheme, n), STEPS), (scheme, f"N={n}")
    report(f"per step ({STEPS} steps per run, tau = {TAU:g}; max-over-steps: its multiple "
           "of the plain step, of the minima and paired):", steps, interleaved(steps), base)

    pairs = {(kind, f"N={n}", f"rows={rows}"): (pair_case(kind, n, rows), CALLS)
             for n in MODES for kind in ("complex", "real") for rows in ROWS}
    report(f"padded pair, one values + coeffs call pair ({CALLS} per run):",
           pairs, interleaved(pairs))

    flows = {("wave_flow + null_form_field", f"N={n}"): (flow_case(n), CALLS)
             for n in FLOW_MODES}
    report(f"free-flow null form, one wave_flow + null_form_field call pair "
           f"({CALLS} per run):", flows, interleaved(flows))

    norms = {("wave_state_norm", f"N={n}"): (norm_case(n), CALLS) for n in NORM_MODES}
    report(f"wave state norm, one wave_state_norm call ({CALLS} per run):",
           norms, interleaved(norms))


if __name__ == "__main__":
    main()

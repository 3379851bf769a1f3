#!/usr/bin/env python3
"""Run one lowreg benchmark workload and print its metrics.

    python3 benchmark/run.py --workload nls-rough --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up the workload, then repeats rounds of its
operations until ``--seconds`` would be exceeded (at least one round).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The traced run
writes its spans and per-layer table under ``.bench_out/``.
"""

import os

# BLAS and OpenMP pools are sized when numpy is imported, here and in the
# set-up probes this process starts, so pin them first.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("nls-rough", "wave-order", "diagnostics")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _load():
    """Import the package from this checkout's src/ and the workload module."""
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import lowreg
    import workloads

    if not Path(lowreg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: imported lowreg from {lowreg.__file__}, not {SRC}")
    return workloads


def probe_setup(workload: str, seed: int) -> float:
    """Time from process start until the workload is set up, in a fresh interpreter.

    The probe imports the package, builds the workload and reports ready.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise SystemExit(f"benchmark: set-up probe exited with {code}")
    return elapsed


def run_operation(op, results: dict, tracer) -> tuple[bool, str]:
    try:
        if tracer is None:
            op.run(results)
        else:
            with tracer.span("bench.op", op=op.name):
                op.run(results)
    except Exception as exc:  # an operation fails if it raises, whatever it raises
        return False, f"{type(exc).__name__}: {exc}"
    return True, ""


def run_rounds(workload, budget_s: float, tracer=None, between=None):
    """Whole rounds until the next one would overrun ``budget_s``.

    ``between`` runs after each round, outside the round's time.
    """
    walls, outcomes, roots = [], [], []
    started = time.perf_counter()
    while True:
        results: dict = {}
        t0 = time.perf_counter()
        if tracer is None:
            outcomes += [(op, *run_operation(op, results, None)) for op in workload.operations]
        else:
            tally = tracer.transforms.copy()
            with tracer.span("bench.round") as root:
                outcomes += [(op, *run_operation(op, results, tracer))
                             for op in workload.operations]
            roots.append((root, tracer.transforms - tally))
        walls.append(time.perf_counter() - t0)
        if between is not None:
            between()
        if time.perf_counter() - started + statistics.median(walls) > budget_s:
            return walls, outcomes, roots


def environment(args) -> dict:
    import numpy

    threads = None
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(), "threads": threads,
        "thread_pins": {var: os.environ[var] for var in THREAD_VARS},
    }


def traced_run(workloads, args, workdir: Path):
    import tracing

    untraced_walls, outcomes, _ = run_rounds(
        workloads.build(args.workload, args.seed, str(workdir)), args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup") as setup_root:
            workload = workloads.build(args.workload, args.seed, str(workdir))
        remaining = args.seconds - sum(untraced_walls)
        traced_walls, traced_outcomes, roots = run_rounds(workload, remaining, tracer)
    finally:
        tracer.uninstall()
    outcomes += traced_outcomes

    metrics, studies, problems = tracing.summarize(tracer, roots, setup_root, workload.steps)
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(untraced_walls))

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
    tracer.write(f"{stem}.spans.json")
    with open(f"{stem}.layers.json", "w", encoding="ascii") as fh:
        json.dump({"environment": environment(args), "metrics": metrics,
                   "units": tracing.PER_LAYER_UNITS, "untraced_round_s": untraced_walls,
                   "traced_round_s": traced_walls, "studies": studies,
                   "missing": tracer.missing, "problems": tracer.notes + problems},
                  fh, indent=1, sort_keys=True)
    for row in studies[0]:
        cfg = row["study"]
        phases = " ".join(f"{p} {s:.3f}" for p, s in row["phases_s"].items())
        print(f"study {cfg['equation']}/{cfg['scheme']} wall {row['wall_s']:.3f} s = "
              f"{phases} + self {row['self_s']:.3f}")
    for message in tracer.missing:
        print(f"trace skipped missing {message}", file=sys.stderr)
    for message in tracer.notes + problems:
        print(f"trace: {message}", file=sys.stderr)
    print(f"wrote {stem}.spans.json and {stem}.layers.json")
    return outcomes, {k: (metrics[k], u) for k, u in tracing.PER_LAYER_UNITS.items()}


def untraced_run(workloads, args, workdir: Path):
    # Set-up probes run between rounds, so that their median samples the
    # machine over the whole run rather than in one burst.
    probes = []
    workload = workloads.build(args.workload, args.seed, str(workdir))
    walls, outcomes, _ = run_rounds(
        workload, args.seconds,
        between=lambda: probes.append(probe_setup(args.workload, args.seed)))
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(args.workload, args.seed))
    setup_s = statistics.median(probes)
    wall_s = statistics.median(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"rounds {len(walls)}: " + " ".join(f"{w:.3f}" for w in walls) + " s")
    print(f"set-up probes {len(probes)}: " + " ".join(f"{t:.3f}" for t in probes) + " s")
    return outcomes, {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "steps_per_s": (workload.steps / wall_s, "steps/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "lowreg" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC / 'lowreg'}", file=sys.stderr)
        return 2
    workloads = _load()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    if args.probe:
        workloads.build(args.workload, args.seed, str(workdir))
        print("ready", flush=True)
        return 0

    workdir.mkdir(parents=True)
    try:
        run = traced_run if args.trace else untraced_run
        outcomes, metrics = run(workloads, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [(op, message) for op, ok, message in outcomes if not ok]
    reported = set()
    for op, message in failed:
        if op.name not in reported:
            reported.add(op.name)
            note = f" (known fault: {op.known_fault})" if op.known_fault else ""
            print(f"FAILED {op.name}: {message}{note}", file=sys.stderr)
    print("environment " + json.dumps(environment(args), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": all(op.known_fault for op, _ in failed),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

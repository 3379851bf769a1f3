"""Report-bytes regression: pins the SHA-256 of the CSV and JSON reports,
and of the diagnose, local-error and trajectory files.

The study reports are byte-deterministic, so a change that leaves the
numerics alone must leave these hashes alone too.  A change that does move
report bytes (a different transform, a reordered sum) must update the hashes
here and say where and why the bytes moved.
"""

import hashlib
import weakref

import pytest

from lowreg import (
    Nonlinearity,
    RoughDataSpec,
    StudyConfig,
    TorusGrid,
    emit_report,
    random_rough_field,
    run_convergence_study,
    run_nls,
    run_wave,
    study_cli,
    trajectory_of,
    write_trajectory,
)
from lowreg.torus_spectral import rough_wave_state

CONFIGS = {
    "nls": dict(
        equation="nls",
        tau_list=(2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5),
        n_modes=32,
        seed=5,
        ref_factor=16,
        cross_val_tol=1.0,
        spatial_check=True,
    ),
    # tau_max / 256 = tau_ref = 2^-10: the spatial check reuses the reference.
    "nls_reuse": dict(
        equation="nls",
        tau_list=(2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6),
        n_modes=32,
        seed=5,
        ref_factor=16,
        cross_val_tol=1.0,
        spatial_check=True,
    ),
    "wave": dict(
        equation="wave",
        tau_list=(2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5),
        n_modes=64,
        seed=4,
        ref_factor=16,
        cross_val_tol=0.1,
        spatial_check=True,
    ),
}
# The same studies, with the error the largest over every step of each sweep.
CONFIGS.update({f"{name}_max": dict(CONFIGS[name], max_over_steps=True)
                for name in ("nls", "wave")})

EXPECTED = {
    ("nls", "csv"): "f3961f374d293431ccb2059710272791fe9899938019c1b02fe72045198a801b",
    ("nls", "json"): "9fd31dac522a9f08a812d2906f3a82fd727ead1a560dc3132fb5d5ef363e2bce",
    ("nls_reuse", "csv"): "35556eb0b65ddd09569b14c04b8d3f85aa445699f4b2abb7a91644eb6e0c2a18",
    ("nls_reuse", "json"): "8b5057d88948d11ba3d28710cbe4d3c8527efaa6799dc1df48a40e8805ac67f3",
    ("wave", "csv"): "223f30cdf194043bc4f4af62538a9e6ed5d5b32be206b2e756f376257de85081",
    ("wave", "json"): "6e7ded8522c0e94fc00774cb3f8bc5a9d60eb2f8e5b010dd36ecd0af965a5f7c",
    ("nls_max", "csv"): "f3961f374d293431ccb2059710272791fe9899938019c1b02fe72045198a801b",
    ("nls_max", "json"): "befcc0947f1f1bccc0d48885a3f53c61d01ea43aeb82683235db19bfb1c6769c",
    ("wave_max", "csv"): "223f30cdf194043bc4f4af62538a9e6ed5d5b32be206b2e756f376257de85081",
    ("wave_max", "json"): "ef0e479a64ac3790887eeb7561d5c2da7868fce2a1ce8056b75eae022b544ed8",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_bytes_are_pinned(name, tmp_path):
    report = run_convergence_study(StudyConfig(output_path=None, **CONFIGS[name]))
    for fmt in ("csv", "json"):
        path = emit_report(report, fmt, str(tmp_path / f"{name}.{fmt}"))
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == EXPECTED[name, fmt], f"{name} {fmt} report bytes changed"


def watch_runs(monkeypatch):
    """Wrap the two paused runs that ``study_cli`` starts.  Returns the runs,
    one dict each with the run's ``n`` (modes), ``tau``, ``steps`` and
    ``held``, the most of its snapshots alive at once, and the events
    ``("open" | "close", run index)`` in order: a run opens at its first
    snapshot and closes in a ``finally``, when it ends or is dropped."""
    runs, events = [], []
    for name in ("_nls_snapshots", "_wave_snapshots"):
        def watched(state, tau, n_steps, *args, _run=getattr(study_cli, name), **kwargs):
            k, alive, opened = len(runs), weakref.WeakSet(), False
            runs.append(dict(n=state.grid.n_modes, tau=tau, steps=n_steps, held=0))
            try:
                for j, snapshot in _run(state, tau, n_steps, *args, **kwargs):
                    if not opened:
                        opened = True
                        events.append(("open", k))
                    alive.add(snapshot)
                    runs[k]["held"] = max(runs[k]["held"], len(alive))
                    yield j, snapshot
            finally:
                if opened:
                    events.append(("close", k))

        monkeypatch.setattr(study_cli, name, watched)
    return runs, events


def test_spatial_check_reuses_the_reference_terminal_state(monkeypatch):
    runs, _ = watch_runs(monkeypatch)
    run_convergence_study(StudyConfig(output_path=None, **CONFIGS["nls_reuse"]))
    runs = [(run["n"], run["tau"]) for run in runs]
    assert runs.count((32, 2.0**-10)) == 1  # the reference; no N-grid mini-reference
    assert runs.count((64, 2.0**-10)) == 1  # the 2N mini-reference still runs


@pytest.mark.parametrize("equation", ["nls", "wave"])
def test_a_terminal_study_holds_one_run_at_a_time(equation, monkeypatch):
    """At most one run is open at any time, and the reference run has closed
    before its comparator opens."""
    runs, events = watch_runs(monkeypatch)
    config = StudyConfig(output_path=None, **CONFIGS[equation])
    report = run_convergence_study(config)
    open_runs = set()
    for event, k in events:
        if event == "open":
            assert not open_runs, f"run {k} opened while {open_runs} were open"
            open_runs.add(k)
        else:
            open_runs.remove(k)
    assert not open_runs
    grid_and_step = [(run["n"], run["tau"]) for run in runs]
    reference = grid_and_step.index((config.n_modes, report.validation["tau_ref"]))
    comparator = grid_and_step.index((config.n_modes, report.validation["comparator_tau"]))
    assert events.index(("close", reference)) < events.index(("open", comparator))


@pytest.mark.parametrize("equation", ["nls", "wave"])
def test_max_over_steps_sweeps_keep_no_snapshot_lists(equation, monkeypatch):
    """No run of a max-over-steps study, the reference included, has more
    than 2 of its states alive at once; at every comparison at most 2 of the
    reference snapshots compared so far are alive (the current one and, in
    the 2N spatial check, the study's terminal state); and every step of
    every sweep is compared, as is the reference with its comparator."""
    (runs, _), alive, seen = watch_runs(monkeypatch), weakref.WeakSet(), []

    def counting_difference(state, ref, _difference=study_cli.difference):
        alive.add(ref)
        seen.append(len(alive))
        return _difference(state, ref)

    monkeypatch.setattr(study_cli, "difference", counting_difference)
    config = StudyConfig(output_path=None, **CONFIGS[f"{equation}_max"])
    run_convergence_study(config)
    assert runs and max(run["held"] for run in runs) <= 2
    # Each sweep step, the validation's one comparison, and the spatial
    # check's one terminal error at N and at 2N.
    assert len(seen) == sum(round(config.t_end / tau) for tau in config.tau_list) + 3
    assert max(seen) <= 2


# The diagnose records of the test_cli_diagnose_* configurations.
DIAGNOSE_ARGS = "--modes 64 --samples 8 --t-end 0.5 --tau-ref 2^-6 --seed 2 --amplitude 0.3"
DIAGNOSE_EXPECTED = {
    "diagnose-strichartz": "8a5183753ff031bd9f650f0ecb3a0347be1ef0e54566851ad2d6ed028b20cec9",
    "diagnose-nullform --refine":
        "3269f34dd1b87805f147237f90a14eaf6daa9717fcadc0510ad830ba08a0d938",
}


@pytest.mark.parametrize("command", sorted(DIAGNOSE_EXPECTED))
def test_diagnose_record_bytes_are_pinned(command, tmp_path, capsys):
    path = tmp_path / "record.json"
    assert study_cli.main([*command.split(), *DIAGNOSE_ARGS.split(), "--out", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == DIAGNOSE_EXPECTED[command], f"{command} record bytes changed"


@pytest.mark.parametrize("command", ["diagnose-strichartz", "diagnose-nullform"])
def test_diagnose_runs_keep_no_state_lists(command, monkeypatch, capsys):
    runs, _ = watch_runs(monkeypatch)
    assert study_cli.main([command, *DIAGNOSE_ARGS.split(), "--refine"]) == 0
    # The run at N and the refined one at 2N, each holding at most its
    # current snapshot and the one before.
    assert [run["n"] for run in runs] == [64, 128]
    assert max(run["held"] for run in runs) <= 2


# The local-error records of the test_cli_local_error_check configuration.
LOCAL_ERROR_ARGS = "--modes 32 --quad-order 4 --seed 7"
LOCAL_ERROR_EXPECTED = {
    "wave": "4c7c7baec855299f1d2f364a446cf3da875a9464e75d701e98c198232e6e685c",
    "nls": "f1700763cc218e03be2b478ff6fcf24e2ed9d6ea5d1d41e3ce6940d89d2b3c1f",
}


@pytest.mark.parametrize("equation", sorted(LOCAL_ERROR_EXPECTED))
def test_local_error_record_bytes_are_pinned(equation, tmp_path, capsys):
    path = tmp_path / "record.json"
    argv = ["local-error-check", "--equation", equation, *LOCAL_ERROR_ARGS.split()]
    assert study_cli.main([*argv, "--out", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == LOCAL_ERROR_EXPECTED[equation], f"{equation} record bytes changed"


@pytest.mark.parametrize("equation", ["nls", "wave"])
def test_local_error_reference_steps_16_per_sample(equation, monkeypatch, capsys):
    runs, _ = watch_runs(monkeypatch)
    argv = ["local-error-check", "--equation", equation, *LOCAL_ERROR_ARGS.split()]
    assert study_cli.main(argv) == 0
    # 16 steps for each of the 4q = 16 samples
    assert [(run["tau"], run["steps"]) for run in runs] == [(2.0**-6 / 256, 256)]


# Trajectory files (.npy arrays) of five snapshots of a 16-step run at N = 32.
TRAJECTORY_EXPECTED = {
    "nls": "648d8eb94e1c968c3ff3619566af129d1bb1a6c0656904d1809ecf8fc444efd6",
    "wave": "93212425efc6cc061c1194992987f41b4c23c7ce7bd6b9f30beda11fc2829b7d",
}


@pytest.mark.parametrize("equation", sorted(TRAJECTORY_EXPECTED))
def test_trajectory_file_bytes_are_pinned(equation, tmp_path):
    grid = TorusGrid(32)
    spec = RoughDataSpec(theta=1.0, seed=3, real_valued=False, amplitude=0.5)
    if equation == "nls":
        states, scheme = run_nls(random_rough_field(spec, grid), 2.0**-6, 16, 1,
                                 record_every=4), "lri"
    else:
        states, scheme = run_wave(rough_wave_state(spec, grid), 2.0**-6, 16,
                                  Nonlinearity.preset("quadratic"),
                                  record_every=4), "corrected_lie"
    traj = trajectory_of(states, 0.0, 0.25, scheme=scheme)
    path = tmp_path / "trajectory.npy"
    write_trajectory(traj, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == TRAJECTORY_EXPECTED[equation], f"{equation} trajectory bytes changed"
    first = path.read_bytes()
    write_trajectory(traj, path)
    assert path.read_bytes() == first  # no time stamp or other run-to-run state

"""The traced benchmark reads lowreg's functions and parameters by name.

``benchmark/tracing.py`` skips a function it expects but cannot find, and
files a call it cannot describe as a note, so a rename in the package would
only zero its ``--trace 1`` metrics.  These tests load the tracer as it is
and hold every name it reads to the package.
"""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

from conftest import rough_wave_state_on
from lowreg import (
    Nonlinearity,
    NlsStepperKind,
    RoughDataSpec,
    TorusGrid,
    random_rough_field,
    run_nls,
    run_wave,
    trajectory_of,
    write_trajectory,
)
from lowreg.study_cli import StudyConfig, run_convergence_study

TRACING = pathlib.Path(__file__).parent.parent / "benchmark" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_function_the_tracer_expects_exists(tracing):
    assert set(tracing.EXPECTED) == set(tracing.LAYERS)
    named = {f"{layer}.{name}" for layer, names in tracing.EXPECTED.items() for name in names}
    named |= set(tracing.DESCRIBE)
    missing = []
    for qualified in sorted(named):
        layer, name = qualified.split(".")
        module = importlib.import_module(f"lowreg.{layer}")
        if not inspect.isfunction(getattr(module, name, None)):
            missing.append(qualified)
    assert missing == []


def described(tracing, fn, *args, **kwargs):
    return tracing._describe_run(fn, args, kwargs, fn(*args, **kwargs))


def test_run_descriptions_read_the_runner_parameters(tracing):
    grid = TorusGrid(16)
    u0 = random_rough_field(RoughDataSpec(theta=1.0, seed=1, real_valued=False), grid)
    w0 = rough_wave_state_on(grid, 1)
    quadratic = Nonlinearity.preset("quadratic")
    # As the one-step maps call the runners, and as _solve does.
    assert described(tracing, run_nls, u0, 0.125, 2, 1) == {
        "scheme": "lri", "n": 16, "tau": 0.125, "steps": 2, "snapshots": 1}
    assert described(tracing, run_nls, u0, 0.125, 2, 1, NlsStepperKind.LIE_SPLITTING,
                     record_every=1) == {
        "scheme": "lie", "n": 16, "tau": 0.125, "steps": 2, "snapshots": 3}
    assert described(tracing, run_wave, w0, 0.125, 2, quadratic) == {
        "scheme": "corrected", "n": 16, "tau": 0.125, "steps": 2, "snapshots": 1}
    assert described(tracing, run_wave, w0, 0.125, 2, quadratic, False, record_every=1) == {
        "scheme": "plain", "n": 16, "tau": 0.125, "steps": 2, "snapshots": 3}


def test_study_and_write_descriptions_read_their_parameters(tracing, tmp_path):
    config = StudyConfig("nls", (2.0**-2, 2.0**-3, 2.0**-4), n_modes=16, ref_factor=16,
                         cross_val_tol=1.0, spatial_check=False)
    report = run_convergence_study(config)
    assert tracing._describe_study(run_convergence_study, (config,), {}, report) == {
        "equation": "nls", "scheme": "lri", "n": 16, "taus": [0.25, 0.125, 0.0625],
        "ref_factor": 16, "spatial_check": False}
    u0 = random_rough_field(RoughDataSpec(theta=1.0, seed=1, real_valued=False),
                            TorusGrid(16))
    path = tmp_path / "nls.trajectory"
    args = (trajectory_of(run_nls(u0, 0.125, 2, 1, record_every=1), 0.0, 0.25), str(path))
    write_trajectory(*args)
    assert tracing._describe_write(write_trajectory, args, {}, None) == {
        "bytes": path.stat().st_size}

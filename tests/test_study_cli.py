import ast
import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lowreg
from conftest import mode_field
from lowreg import (
    ConfigError,
    ConvergenceReport,
    NlsProblem,
    Nonlinearity,
    RoughDataSpec,
    SpectralField,
    StudyConfig,
    TorusGrid,
    ValidationError,
    WaveProblem,
    WaveState,
    emit_report,
    fit_rate,
    free_flow,
    main,
    nls_reference_solve,
    random_rough_field,
    report_from_json,
    run_convergence_study,
    run_nls,
    run_wave,
    sobolev_norm,
    wave_flow,
    wave_reference_solve,
    wave_state_norm,
    zero_field,
)
from lowreg import study_cli
from lowreg.study_cli import (
    _datum,
    _norm_fn,
    _reference_scheme,
    _run_scheme,
    _studies,
    _study_configs_from_args,
    _sweeps,
    _terminal,
    _validation,
    build_parser,
    parse_norm,
    parse_taus,
    read_config_file,
    smooth_data_spec,
)
from lowreg.torus_spectral import _full_pair, difference, rough_wave_state
from oracles import nls_plane_wave_coefficient


def tiny_nls_config(**overrides):
    settings = dict(
        equation="nls",
        tau_list=(2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5),
        n_modes=64,
        t_end=1.0,
        seed=3,
        ref_factor=16,
        cross_val_tol=1.0,
        spatial_check=False,
    )
    settings.update(overrides)
    return StudyConfig(**settings)


# --- rate fitting ---------------------------------------------------------------


def test_fit_rate_recovers_exact_orders():
    rate, r2 = fit_rate([(0.1, 0.1), (0.05, 0.05)])
    assert rate == pytest.approx(1.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    rate, _ = fit_rate([(0.1, 0.01), (0.05, 0.0025)])
    assert rate == pytest.approx(2.0, abs=1e-12)


def test_fit_rate_on_a_clean_quadratic_cloud():
    pairs = [(2.0**-e, 3.0 * 4.0**-e) for e in range(2, 7)]
    rate, r2 = fit_rate(pairs)
    assert rate == pytest.approx(2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_tolerates_bounded_noise():
    rng = np.random.default_rng(0)
    taus = [2.0**-e for e in range(2, 9)]
    errors = [0.3 * t * (1.0 + 0.05 * rng.uniform(-1.0, 1.0)) for t in taus]
    rate, r2 = fit_rate(list(zip(taus, errors)))
    assert 0.9 <= rate <= 1.1
    assert r2 >= 0.98


def test_fit_rate_is_scale_invariant():
    taus = [2.0**-e for e in range(3, 8)]
    base = [(t, 0.02 * t) for t in taus]
    rate0, r20 = fit_rate(base)
    for c in (0.1, 10.0):
        rate, r2 = fit_rate([(t, c * e) for t, e in base])
        assert rate == pytest.approx(rate0, abs=1e-12)
        assert r2 == pytest.approx(r20, abs=1e-10)


def test_fit_rate_ignores_saturated_and_floored_points():
    pairs = [(0.2, 5.0), (0.1, 1e-2), (0.05, 2.5e-3), (0.025, 1e-13)]
    rate, _ = fit_rate(pairs)
    assert rate == pytest.approx(2.0, abs=1e-12)


def test_fit_rate_needs_two_usable_points():
    with pytest.raises(ValueError):
        fit_rate([(0.1, 0.0), (0.05, 1e-14)])
    with pytest.raises(ValueError):
        fit_rate([(0.1, 3.0), (0.05, 1e-2)])


# --- configuration ---------------------------------------------------------------


def test_config_defaults_by_equation():
    nls = StudyConfig(equation="nls", tau_list=(0.25, 0.125))
    assert nls.scheme == "lri"
    assert nls.error_norm == "L2"
    assert nls.norm_label == "L2"
    wave = StudyConfig(equation="wave", tau_list=(0.25, 0.125))
    assert wave.scheme == "corrected_lie"
    assert wave.norm_label == "H1xL2"


def test_config_sobolev_norm_label():
    cfg = StudyConfig(
        equation="nls", tau_list=(0.25,), error_norm="Hr", norm_r=0.75
    )
    assert cfg.norm_label == "H0.75"


@pytest.mark.parametrize(
    "overrides",
    [
        dict(equation="kdv"),
        dict(scheme="rk4"),
        dict(scheme="corrected_lie"),  # wave scheme on the nls equation
        dict(mu=2),
        dict(theta=-0.5),
        dict(delta=0.0),
        dict(amplitude=0.0),
        dict(n_modes=100),
        dict(t_end=0.0),
        dict(tau_list=()),
        dict(tau_list=(0.125, 0.25)),
        dict(tau_list=(0.3,)),
        dict(tau_list=(0.25, 0.25)),
        dict(ref_factor=8),
        dict(cross_val_tol=0.0),
        dict(error_norm="L4"),
        dict(scheme=""),
        dict(error_norm=""),
    ],
)
def test_config_rejects_bad_settings(overrides):
    settings = dict(equation="nls", tau_list=(0.25, 0.125), t_end=1.0)
    settings.update(overrides)
    with pytest.raises(ConfigError):
        StudyConfig(**settings)


def test_config_rejects_wave_specific_mistakes():
    with pytest.raises(ConfigError):
        StudyConfig(equation="wave", tau_list=(0.25,), error_norm="L2")
    with pytest.raises(ConfigError):
        StudyConfig(equation="wave", tau_list=(0.25,), nonlinearity="bogus")


def test_smooth_data_spec_decays_like_the_sixth_power():
    grid = TorusGrid(64)
    f = random_rough_field(smooth_data_spec(seed=5, amplitude=2.0), grid)
    expected = 2.0 * (1.0 + np.abs(grid.freqs)) ** -6.0
    assert np.allclose(np.abs(f.coeffs), expected, rtol=1e-12)


# --- text parsers -----------------------------------------------------------------


def test_parse_taus_forms():
    assert parse_taus("2^-4..2^-7") == (2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7)
    assert parse_taus("2^-6") == (2.0**-6,)
    assert parse_taus("0.1, 0.05, 0.025") == (0.1, 0.05, 0.025)
    assert parse_taus("2^-3, 0.0625") == (0.125, 0.0625)


@pytest.mark.parametrize(
    "text",
    ["2^5000", "2^-1075", "2^-4..2^5000", "2^-3..2^-5000", "2^1030..2^1020",
     "0", "-0.1", "inf", "nan", "0.1,1e999"],
)
def test_parse_taus_rejects_steps_that_are_not_finite_and_positive(text):
    with pytest.raises(ValueError):
        parse_taus(text)


@given(text=st.text(alphabet="2^-.,0123456789e ", max_size=12))
def test_parse_taus_returns_positive_finite_steps_or_raises_value_error(text):
    try:
        taus = parse_taus(text)
    except ValueError:
        return
    assert taus
    assert all(np.isfinite(t) and t > 0 for t in taus)


def test_parse_taus_keeps_the_extreme_finite_powers():
    assert parse_taus("2^-1074") == (2.0**-1074,)
    assert parse_taus("2^1023..2^1021") == (2.0**1023, 2.0**1022, 2.0**1021)


def test_readme_commands_parse():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        commands = [line.split()[1:] for line in fh if line.startswith("lowreg ")]
    # The six of "Command line" (every subcommand, local-error-check once per
    # equation), then the five ready-made studies.
    assert len(commands) == 11
    parsed = [build_parser().parse_args(argv) for argv in commands]
    assert [(a.equation, a.tau, a.quad_order) for a in parsed
            if a.command == "local-error-check"] == [
        ("wave", 2.0**-6, 64), ("nls", 2.0**-6, 64), ("wave", 2.0**-6, 16)]
    assert [parse_taus(a.taus)[-1] for a in parsed if a.command == "nls-converge"] == [
        2.0**-10, 2.0**-10]
    assert [a.scheme for a in parsed if a.command == "wave-converge"] == [
        "corrected_lie,lie", "corrected_lie,lie"]
    assert [(a.modes, a.samples, a.tau_ref, a.refine) for a in parsed[-3:-1]] == [
        (128, 64, 2.0**-10, True)] * 2


def test_parse_norm_forms():
    assert parse_norm("Hr:0.75") == ("Hr", 0.75)
    assert parse_norm("L2") == ("L2", None)


def test_read_config_file(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(
        "# study settings\n"
        "scheme = lie\n"
        "modes 64\n"
        "taus = 2^-4..2^-6\n"
        "cross_val_tol = 0.5\n"
        "spatial_check = false\n"
        "\n"
    )
    values = read_config_file(str(path))
    assert values == {
        "scheme": "lie",
        "modes": 64,
        "taus": (2.0**-4, 2.0**-5, 2.0**-6),
        "cross_val_tol": 0.5,
        "spatial_check": False,
    }


def test_read_config_file_reports_position_of_unknown_keys(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text("scheme = lie\nbogus = 3\n")
    with pytest.raises(ConfigError) as exc:
        read_config_file(str(path))
    assert f"{path}:2" in str(exc.value)
    path.write_text("modes = many\n")
    with pytest.raises(ConfigError):
        read_config_file(str(path))
    # A mistyped switch is refused, not read as off.
    path.write_text("max_over_steps = off\nspatial_check = flase\n")
    with pytest.raises(ConfigError) as exc:
        read_config_file(str(path))
    assert f"{path}:2" in str(exc.value)
    with pytest.raises(ConfigError):
        read_config_file(str(tmp_path / "missing.cfg"))


def test_command_line_flags_override_config_file(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text("seed = 5\nmodes = 32\nspatial_check = false\ntaus = 2^-2..2^-5\n")
    parser = build_parser()
    args = parser.parse_args(
        ["nls-converge", "--config", str(path), "--seed", "9", "--mu", "-1"]
    )
    [config] = _study_configs_from_args(args, "nls")
    assert config.seed == 9  # flag wins
    assert config.n_modes == 32  # file-only value survives
    assert config.spatial_check is False
    assert config.mu == -1
    assert config.tau_list == (2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5)


@pytest.mark.parametrize("equation", ["nls", "wave"])
def test_command_line_defaults_are_the_study_config_defaults(equation):
    args = build_parser().parse_args([f"{equation}-converge"])
    assert _study_configs_from_args(args, equation) == [StudyConfig(
        equation, tau_list=parse_taus("2^-4..2^-10")
    )]


def test_a_shared_config_file_keeps_each_equation_key_to_its_equation(tmp_path):
    path = tmp_path / "shared.cfg"
    path.write_text("mu = -1\nnonlinearity = sine\n")
    parser = build_parser()
    taus = parse_taus("2^-4..2^-10")
    nls = parser.parse_args(["nls-converge", "--config", str(path)])
    assert _study_configs_from_args(nls, "nls") == [StudyConfig("nls", taus, mu=-1)]
    wave = parser.parse_args(["wave-converge", "--config", str(path)])
    assert _study_configs_from_args(wave, "wave") == [StudyConfig(
        "wave", taus, nonlinearity="sine"
    )]


_SETTING_WORDS = st.one_of(
    st.sampled_from([
        "", "0", "1", "-1", "16", "64", "0.5", "1e-3", "1e999", "-0.0", "nan",
        "inf", "-inf", "abc", "true", "off", "lie", "lri", "corrected_lie",
        "sine", "bogus", "L2", "H1xL2", "Hr:0.5", "Hr:nan", "Hr:", "0.1,0.05",
        "1125899906842624",
    ]),
    st.integers(-3, 2048).map(str),
    st.floats().map(repr),
    # Exponent spans stay small: a span is expanded into one step per power.
    st.tuples(st.integers(-12, 3), st.integers(-12, 3)).map(
        lambda ab: "2^%d..2^%d" % ab
    ),
)
_KEYS = st.sampled_from(sorted(study_cli._CONFIG_KEYS) + ["bogus", "t-end", "MODES"])
_SWITCHES = ("--max-over-steps", "--no-spatial-check")


@settings(max_examples=150)
@given(
    equation=st.sampled_from(["nls", "wave"]),
    lines=st.lists(st.tuples(_KEYS, st.sampled_from([" = ", "=", " "]), _SETTING_WORDS),
                   max_size=6),
    flags=st.lists(st.tuples(_KEYS, _SETTING_WORDS), max_size=4),
    switches=st.lists(st.sampled_from(_SWITCHES), max_size=2),
)
def test_config_files_and_flags_fail_only_as_config_or_value_errors(
    equation, lines, flags, switches
):
    argv = [f"{equation}-converge", *switches]
    for key, value in flags:
        argv += [f"--{key.lower().replace('_', '-')}", value]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "study.cfg")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("".join(f"{key}{sep}{value}\n" for key, sep, value in lines))
        try:
            read_config_file(path)
            args = build_parser().parse_args(argv + ["--config", path])
            _study_configs_from_args(args, equation)
        except ValueError:  # ConfigError included
            pass


# --- reference cross-validation ------------------------------------------------------


def cross_validate(initial, term, t_end, tau_ref, tol=None):
    """The validation record of a reference run at tau_ref; the absolute
    tolerance defaults to 1e-6 of the initial norm."""
    norm_fn = _norm_fn(initial)
    if tol is None:
        tol = 1e-6 * norm_fn(initial)
    terminal = _terminal(_run_scheme("reference", initial, _reference_scheme(initial), term,
                                     tau_ref, t_end))
    return _validation(initial, term, t_end, tau_ref, terminal, norm_fn, tol)


def test_cross_validation_passes_on_the_linear_wave():
    grid = TorusGrid(16)
    c = np.zeros(16, dtype=np.complex128)
    c[1], c[-1] = -0.5j, 0.5j  # sin(x)
    w0 = WaveState(SpectralField(grid, c, is_real=True), zero_field(grid))
    record = cross_validate(w0, Nonlinearity.preset("zero"), 0.5, 2.0**-6)
    assert record["passed"]
    assert record["distance"] <= 1e-12
    assert record["reference_scheme"] == "corrected_lie"
    assert record["comparator_scheme"] == "strang"
    assert record["comparator_tau"] == 4 * 2.0**-6


def test_cross_validation_passes_on_the_plane_wave():
    grid = TorusGrid(16)
    a, k, mu = 0.1, 1, 1
    u0 = mode_field(grid, k, a)
    # The splitting comparator is exact on plane waves, so the two-scheme
    # distance is the exponential integrator's own O(tau) error; 5e-5 leaves
    # a factor-two margin under the default relative tolerance.
    record = cross_validate(u0, mu, 1.0, 5e-5)
    assert record["passed"]
    exact = nls_plane_wave_coefficient(a, k, mu, 1.0)
    for kind in ("lri", "lie"):
        from lowreg import NlsStepperKind, run_nls

        stepper = (
            NlsStepperKind.LOW_REGULARITY if kind == "lri"
            else NlsStepperKind.LIE_SPLITTING
        )
        out = run_nls(u0, 1e-4, 10_000, mu, stepper)[-1]
        assert abs(out.coeffs[k] - exact) <= 1e-6


def test_cross_validation_failure_carries_its_record():
    grid = TorusGrid(32)
    u0 = random_rough_field(
        smooth_data_spec(seed=3, amplitude=0.5), grid
    )
    with pytest.raises(ValidationError) as exc:
        cross_validate(u0, 1, 1.0, 2.0**-4, tol=1e-300)
    record = exc.value.record
    assert record["passed"] is False
    assert record["distance"] > record["tolerance"]


def test_cross_validation_never_passes_a_nan_tolerance():
    u0 = random_rough_field(smooth_data_spec(seed=3, amplitude=0.5), TorusGrid(32))
    with pytest.raises(ValidationError) as exc:
        cross_validate(u0, 1, 1.0, 2.0**-4, tol=float("nan"))
    assert exc.value.record["passed"] is False


# A study is the one way to a reference pass, and it refuses t_end = 0 before
# any run.
@pytest.mark.parametrize("equation", ["nls", "wave"])
def test_cross_validation_refuses_a_zero_horizon(equation, capsys):
    with pytest.raises(ConfigError, match=r"^t_end must be > 0$"):
        StudyConfig(equation, (2.0**-6,), n_modes=16, t_end=0.0)
    assert main([f"{equation}-converge", "--modes", "16", "--t-end", "0"]) == 4
    assert capsys.readouterr().err == "configuration error: t_end must be > 0\n"


# A step that underflows to zero, a reference step that does not divide the
# sample spacing, and a ref_factor whose reference step is below every float.
HUGE = "1" + "0" * 320


@pytest.mark.parametrize("argv", [
    "local-error-check --equation nls --modes 8 --quad-order 2 --tau 2^-1074",
    "local-error-check --equation nls --modes 8 --quad-order 2 --tau 1e-320",
    f"nls-converge --modes 8 --taus 2^-2,2^-3 --no-spatial-check --ref-factor {HUGE}",
    f"wave-converge --modes 8 --taus 2^-2,2^-3 --no-spatial-check --ref-factor {HUGE}",
], ids=["local-error-zero-step", "local-error-subnormal", "nls-converge", "wave-converge"])
def test_steps_below_every_float_exit_4(argv, capsys):
    assert main(argv.split()) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("configuration error: ") and err.count("\n") == 1


def test_a_reference_of_more_than_2_to_the_40_steps_is_refused():
    # 8e300 reference steps: the step divides the horizon, so only the
    # ceiling stops it.
    with pytest.raises(ConfigError, match=r"more than 2\^40"):
        StudyConfig("nls", (0.25, 0.125), n_modes=8, ref_factor=10**300)


# Runs that would never end.  No run may start: a started one fails at once.
@pytest.mark.parametrize("argv", [
    "diagnose-strichartz --tau-ref 2^-1000",
    "nls-converge --taus 2^-4..2^-70",
    "local-error-check --equation nls --quad-order 1000000000000",
], ids=["diagnose", "converge", "local-error"])
def test_runs_of_more_than_2_to_the_40_steps_exit_4(argv, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(study_cli, "_run_scheme", no_run)
    assert main(argv.split()) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "more than 2^40" in err


# --- the Strang comparator -----------------------------------------------------------


def smooth_datum(equation, grid, seed=3):
    if equation == "nls":
        return random_rough_field(smooth_data_spec(seed, amplitude=0.5), grid)
    spec = smooth_data_spec(seed, amplitude=0.5)
    return rough_wave_state(spec, grid, v_theta=spec.theta)


def strang(equation, initial, tau, t_end, n_out=1):
    term = Nonlinearity.preset("quadratic") if equation == "wave" else 1
    return [s for _, s in _run_scheme("test", initial, "strang", term, tau, t_end, n_out)]


def distance(a, b):
    d = difference(a, b)
    return wave_state_norm(d) if isinstance(d, WaveState) else sobolev_norm(d, 0.0)


@pytest.mark.parametrize("equation", ["nls", "wave"])
def test_strang_comparator_without_nonlinearity_is_the_free_flow(equation):
    grid = TorusGrid(64)
    tau, n_steps = 2.0**-5, 40
    if equation == "nls":
        initial = random_rough_field(RoughDataSpec(theta=1.0, seed=2, amplitude=0.5), grid)
        # mu = 0 leaves the Lie step only its free flow.
        out = [s for _, s in _run_scheme("test", initial, "strang", 0, tau, n_steps * tau)][-1]
        exact = free_flow(initial, n_steps * tau)
    else:
        initial = rough_wave_state(RoughDataSpec(theta=1.0, seed=2, amplitude=0.5), grid)
        out = [s for _, s in _run_scheme("test", initial, "strang", Nonlinearity.preset("zero"),
                                         tau, n_steps * tau)][-1]
        exact = wave_flow(initial, n_steps * tau)
    assert distance(out, exact) <= 1e-13


@pytest.mark.parametrize("equation", ["nls", "wave"])
def test_strang_comparator_is_second_order_on_smooth_data(equation):
    initial = smooth_datum(equation, TorusGrid(64))
    fine = strang(equation, initial, 2.0**-11, 1.0)[-1]
    gaps = [distance(strang(equation, initial, 2.0**-e, 1.0)[-1], fine) for e in (3, 4, 5, 6)]
    assert all(a >= 3.0 * b for a, b in zip(gaps, gaps[1:])), gaps


@pytest.mark.parametrize("equation", ["nls", "wave"])
def test_recorded_strang_snapshots_are_the_terminal_states_of_shorter_runs(equation):
    initial = smooth_datum(equation, TorusGrid(32))
    tau, every = 2.0**-4, 2
    snapshots = strang(equation, initial, tau, 3 * every * tau, n_out=3)
    assert len(snapshots) == 4 and snapshots[0] is initial
    for j in (1, 2, 3):
        terminal = strang(equation, initial, tau, j * every * tau)[-1]
        assert distance(snapshots[j], terminal) == 0.0


@pytest.mark.parametrize("equation", ["nls", "wave"])
def test_max_over_steps_error_is_the_largest_error_over_the_snapshots(equation):
    taus = (2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5)
    settings = dict(equation=equation, tau_list=taus, n_modes=32, ref_factor=16,
                    cross_val_tol=1.0, spatial_check=False)
    worst = run_convergence_study(StudyConfig(**settings, max_over_steps=True)).errors
    terminal = run_convergence_study(StudyConfig(**settings)).errors
    # The study's datum, drawn independently: theta 1, seed 1, amplitude 0.5.
    grid = TorusGrid(32)
    spec = RoughDataSpec(theta=1.0, seed=1, amplitude=0.5)
    if equation == "nls":
        initial = random_rough_field(dataclasses.replace(spec, real_valued=False), grid)
        ref = nls_reference_solve(NlsProblem(1, initial, 1.0), 32, taus[-1] / 16)

        def run(tau, n_steps):
            return run_nls(initial, tau, n_steps, 1, record_every=1)

        def norm(f):
            return sobolev_norm(f, 0.0)
    else:
        initial = rough_wave_state(spec, grid)
        nl = Nonlinearity.preset("quadratic")
        ref = wave_reference_solve(WaveProblem(nl, initial, 1.0), 32, taus[-1] / 16)

        def run(tau, n_steps):
            return run_wave(initial, tau, n_steps, nl, record_every=1)

        norm = wave_state_norm
    for tau, err, last in zip(taus, worst, terminal):
        n_steps = round(1.0 / tau)
        stride = 32 // n_steps
        states = run(tau, n_steps)
        assert err == max(norm(difference(states[j], ref[j * stride]))
                          for j in range(1, n_steps + 1))
        assert err >= last


@pytest.mark.parametrize("equation", ["nls", "wave"])
def test_max_over_steps_error_peaks_where_the_reference_is_off(equation):
    """A sweep against its own snapshots, one of them moved mid-run: the
    terminal error is 0 and the max-over-steps error is that snapshot's."""
    tau, grid = 2.0**-3, TorusGrid(16)
    config = StudyConfig(equation, (tau,), n_modes=16, spatial_check=False)
    initial = _datum(equation, grid, RoughDataSpec(theta=1.0, seed=3, amplitude=0.5))
    term = 1 if equation == "nls" else Nonlinearity.preset("quadratic")
    ref = [s for _, s in _run_scheme("reference", initial, config.scheme, term, tau, 1.0, 8)]
    original, one = ref[3], np.eye(16)[0]  # moved by 1 at k = 0
    if equation == "nls":
        ref[3] = SpectralField(grid, original.coeffs + one)
    else:
        ref[3] = WaveState(SpectralField(grid, original.u.coeffs + one, True), original.v)
    peak = _norm_fn(initial)(difference(original, ref[3]))
    assert peak > 0.0

    def errors(every_step):
        compare, found = _sweeps(dataclasses.replace(config, max_over_steps=every_step),
                                 initial, term, 8, _norm_fn(initial))
        for i, state in enumerate(ref):
            compare(i, state)
        return found

    assert errors(False) == [0.0]
    assert errors(True) == [peak]


# The wave sweep error, the study norm of difference(state, ref) summed over
# the stored half pair, has the bits of the two full-spectrum norms.
@pytest.mark.parametrize("n", [8, 32, 1024])
@pytest.mark.parametrize("equation, r", [("wave", 0.0)])
def test_raw_distance_is_the_norm_of_the_difference_bit_for_bit(equation, r, n):
    grid, rng = TorusGrid(n), np.random.default_rng(n)

    def draw():
        # Nonzero imaginary parts at k = 0 and N/2, which the state drops.
        raw = rng.standard_normal((2, n // 2 + 1)) + 1j * rng.standard_normal((2, n // 2 + 1))
        assert raw[:, :: n // 2].imag.all()
        return _full_pair(grid, raw)

    norm = _norm_fn(_datum(equation, grid, RoughDataSpec(theta=1.0, seed=2)), r)
    for _ in range(20):
        d = difference(draw(), draw())
        assert norm(d) == sobolev_norm(d.u, 1.0) + sobolev_norm(d.v, 0.0)


@pytest.mark.parametrize("ref_factor, factor", [(17, 1), (18, 2), (20, 4)])
def test_comparator_step_follows_the_gcd_rule(ref_factor, factor):
    # t_end / tau_ref = 3 * ref_factor: 51 reference steps are odd, so the
    # comparator falls back to tau_ref; 54 allow 2 * tau_ref, 60 allow 4.
    config = tiny_nls_config(t_end=0.75, tau_list=(0.75, 0.25), n_modes=16,
                             ref_factor=ref_factor)
    record = run_convergence_study(config).validation
    tau_ref = 0.25 / ref_factor
    assert record["tau_ref"] == tau_ref
    assert record["comparator_tau"] == factor * tau_ref
    assert record["comparator_scheme"] == "strang"


def test_certification_margin_is_the_smallest_error_over_the_distance(tmp_path):
    report = run_convergence_study(tiny_nls_config())
    validation = report.validation
    assert validation["certification_margin"] == min(report.errors) / validation["distance"]
    path = emit_report(report, "json", str(tmp_path / "study.json"))
    assert report_from_json(path).validation == validation


def test_certification_margin_is_null_when_the_distance_is_zero(monkeypatch):
    real = study_cli._validation

    def exact_comparator(*args, **kwargs):
        return dict(real(*args, **kwargs), distance=0.0)

    monkeypatch.setattr(study_cli, "_validation", exact_comparator)
    report = run_convergence_study(tiny_nls_config())
    assert report.validation["certification_margin"] is None


# --- study runs and reports -----------------------------------------------------------


def test_convergence_study_is_deterministic():
    config = tiny_nls_config()
    first = run_convergence_study(config)
    second = run_convergence_study(config)
    assert first.to_dict() == second.to_dict()
    assert first.errors[0] > first.errors[-1] > 0.0
    assert first.fitted_order is not None
    assert first.validation["passed"]


def test_study_reports_spatial_resolution_on_smooth_data():
    config = tiny_nls_config(
        theta=5.49, amplitude=0.5, n_modes=32, spatial_check=True
    )
    report = run_convergence_study(config)
    assert report.spatially_resolved is True
    assert report.spatial_change < 0.01


def test_report_files_are_byte_identical_and_round_trip(tmp_path):
    report = run_convergence_study(tiny_nls_config())
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    emit_report(report, "csv", str(csv_a))
    emit_report(report, "csv", str(csv_b))
    assert csv_a.read_bytes() == csv_b.read_bytes()

    lines = csv_a.read_text().splitlines()
    assert lines[0] == "tau,error,norm,scheme,seed"
    first = lines[1].split(",")
    assert float(first[0]) == 0.25
    assert float(first[1]) == report.errors[0]
    assert first[2:] == ["L2", "lri", "3"]

    json_path = tmp_path / "a.json"
    emit_report(report, "json", str(json_path))
    emit_report(report, "json", str(tmp_path / "b.json"))
    assert json_path.read_bytes() == (tmp_path / "b.json").read_bytes()
    assert report_from_json(str(json_path)) == report

    with pytest.raises(ValueError):
        emit_report(report, "yaml", str(tmp_path / "c.yaml"))


def test_reports_are_never_empty(tmp_path):
    report = ConvergenceReport(
        equation="nls", scheme="lri", seed=1, norm_label="L2",
        taus=[], errors=[], fitted_order=None, r_squared=None,
        validation={}, config={},
    )
    with pytest.raises(ValueError):
        emit_report(report, "csv", str(tmp_path / "empty.csv"))


# --- several schemes on one reference pass -------------------------------------------


def scheme_pair(equation, max_over_steps, out=None):
    """N = 32 studies of both schemes of ``equation`` on one datum, each
    with its spatial check."""
    return [StudyConfig(equation, (2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5), scheme=scheme,
                        n_modes=32, seed=3, ref_factor=16, cross_val_tol=1.0,
                        max_over_steps=max_over_steps,
                        output_path=out and f"{out}-{scheme}")
            for scheme in study_cli._EQUATIONS[equation][0]]


SCHEME_PAIRS = pytest.mark.parametrize(
    "equation, max_over_steps",
    [(equation, every) for equation in ("nls", "wave") for every in (False, True)],
    ids=lambda v: {False: "terminal", True: "max-over-steps"}.get(v, v),
)


@SCHEME_PAIRS
def test_one_reference_pass_reports_the_bytes_of_separate_studies(
    equation, max_over_steps, tmp_path
):
    configs = scheme_pair(equation, max_over_steps, str(tmp_path / "study"))
    separate = {}
    for config in configs:
        run_convergence_study(config)
        for path in study_cli._report_files(config.output_path):
            separate[path] = pathlib.Path(path).read_bytes()
    reports = list(_studies(configs))
    assert [report.scheme for report in reports] == [config.scheme for config in configs]
    assert all(report.spatially_resolved is not None for report in reports)
    assert {path: pathlib.Path(path).read_bytes() for path in separate} == separate


@SCHEME_PAIRS
def test_one_reference_pass_runs_each_reference_once(equation, max_over_steps, monkeypatch):
    """One reference and one comparator run, at most one spatial
    mini-reference per grid, and each scheme's own sweeps and spatial check."""
    configs = scheme_pair(equation, max_over_steps)
    runs = []

    def watched(phase, initial, scheme, term, tau, t_end, n_out=1, _run=_run_scheme):
        runs.append((phase, scheme, tau, initial.grid.n_modes))
        return _run(phase, initial, scheme, term, tau, t_end, n_out)

    monkeypatch.setattr(study_cli, "_run_scheme", watched)
    list(_studies(configs))
    phases = [phase for phase, *_ in runs]
    assert phases.count("reference") == 1
    assert phases.count("comparator") == 1
    tau_c = configs[0].tau_list[0]
    minis = [n for phase, _, tau, n in runs if phase == "spatial check" and tau == tau_c / 256]
    assert minis.count(32) <= 1 and minis.count(64) == 1
    for config in configs:
        mine = [(phase, tau, n) for phase, scheme, tau, n in runs if scheme == config.scheme]
        sweeps = [tau for phase, tau, _ in mine if phase.startswith("sweep")]
        assert sorted(sweeps, reverse=True) == list(config.tau_list)
        assert [(tau, n) for phase, tau, n in mine if phase == "spatial check"
                and tau == tau_c] == [(tau_c, 32), (tau_c, 64)]


class ReachedTheReference(Exception):
    pass


@pytest.mark.parametrize("change", [
    dict(seed=4), dict(n_modes=64), dict(tau_list=(2.0**-2, 2.0**-3)),
    dict(max_over_steps=True), dict(cross_val_tol=0.5), dict(ref_factor=32),
    dict(nonlinearity="sine"), dict(equation="nls", scheme="lie", error_norm="L2"),
], ids=lambda change: ",".join(change))
def test_one_reference_pass_refuses_configs_that_differ_in_more_than_the_scheme(
    change, monkeypatch
):
    def reached(phase, *args, _run_scheme=study_cli._run_scheme):
        if phase == "reference":
            raise ReachedTheReference
        return _run_scheme(phase, *args)

    monkeypatch.setattr(study_cli, "_run_scheme", reached)
    first, second = scheme_pair("wave", False)
    with pytest.raises(ConfigError, match=f"differ in .*{next(iter(change))}"):
        next(_studies([first, dataclasses.replace(second, **change)]))
    # The scheme, the output stem and the spatial check may differ.
    with pytest.raises(ReachedTheReference):
        next(_studies([first, dataclasses.replace(second, output_path="x",
                                                  spatial_check=False)]))
    with pytest.raises(ConfigError, match="names a scheme twice"):
        next(_studies([first, dataclasses.replace(first, output_path="x")]))


@pytest.mark.parametrize("schemes", ["lie,lie", "corrected_lie,", ",lie"])
def test_cli_scheme_lists_with_a_repeated_or_empty_name_exit_4(schemes, capsys):
    argv = f"wave-converge --modes 16 --taus 2^-2..2^-5 --ref-factor 16 --scheme {schemes}"
    assert main(argv.split()) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("configuration error: ") and err.count("\n") == 1


# Amplitude 2 on 16 modes: every sweep of the plain NLS splitting ends, and
# the LRI sweep at 2^-2 trips its guard (see BLOWN_SWEEPS below).
@pytest.mark.parametrize("schemes", ["lie,lri", "lri,lie"])
def test_cli_names_the_scheme_whose_sweep_blew_up(schemes, capsys):
    argv = ("nls-converge --modes 16 --amplitude 2 --taus 2^-1..2^-4 --ref-factor 16 "
            f"--no-spatial-check --cross-val-tol 1e10 --scheme {schemes}")
    assert main(argv.split()) == 3
    out, err = capsys.readouterr()
    assert err == "blow-up: sweep tau=0.25 run (lri): norm guard tripped at step 4\n"
    # The plain splitting is reported when it comes first.
    assert out.startswith("scheme lie\n") == schemes.startswith("lie")
    assert "order gap" not in out


# Amplitude 5 with the cubic_minus term: the sweeps of both schemes blow up.
@pytest.mark.parametrize("schemes", ["corrected_lie,lie", "lie,corrected_lie"])
def test_cli_reports_the_blowup_of_the_first_listed_scheme(schemes, capsys):
    argv = ("wave-converge --modes 16 --amplitude 5 --nonlinearity cubic_minus "
            "--taus 2^-1..2^-4 --ref-factor 16 --no-spatial-check --cross-val-tol 1e10 "
            f"--scheme {schemes}")
    assert main(argv.split()) == 3
    out, err = capsys.readouterr()
    first = schemes.split(",")[0]
    assert err == f"blow-up: sweep tau=0.25 run ({first}): norm guard tripped at step 3\n"
    assert out == ""


# --- command line ------------------------------------------------------------------


# The paper's corrected-versus-plain wave study, as README gives it.
SCHEME_PAIR = ["wave-converge", "--scheme", "corrected_lie,lie", "--cross-val-tol", "1e-4",
               "--no-spatial-check"]


def printed_orders(out) -> dict:
    """The fitted order printed under each ``scheme`` line."""
    orders, scheme = {}, None
    for line in out.splitlines():
        key, _, value = line.partition(" ")
        if key == "scheme":
            scheme = value
        elif key == "fitted_order":
            orders[scheme] = None if value == "None" else float(value)
    return orders


def test_scheme_pair_reports_the_orders_of_two_direct_studies(capsys):
    code = main([*SCHEME_PAIR, "--modes", "32", "--ref-factor", "16"])
    out = capsys.readouterr().out
    assert code == 0
    orders = printed_orders(out)
    assert list(orders) == ["corrected_lie", "lie"]
    for scheme in orders:
        direct = run_convergence_study(StudyConfig(
            "wave", parse_taus("2^-4..2^-10"), scheme=scheme, n_modes=32,
            ref_factor=16, cross_val_tol=1e-4, spatial_check=False,
        ))
        assert direct.fitted_order is not None
        assert orders[scheme] == direct.fitted_order
    assert out.endswith(f"order gap {orders['corrected_lie'] - orders['lie']!r}\n")


@pytest.mark.parametrize("argv", ["--theta nan", "--nonlinearity bogus"])
def test_scheme_pair_bad_input_exits_4_without_a_traceback(argv, capsys):
    assert main([*SCHEME_PAIR, *argv.split()]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1


def test_scheme_pair_refuses_an_output_file_that_is_a_directory(tmp_path, capsys):
    (tmp_path / "study-lie.json").mkdir()
    code = main([*SCHEME_PAIR, "--modes", "32", "--out", str(tmp_path / "study")])
    out, err = capsys.readouterr()
    assert code == 4
    taken = tmp_path / "study-lie.json"
    assert err == f"configuration error: output file {taken} is a directory\n"
    assert out == ""  # before either study ran
    assert sorted(p.name for p in tmp_path.iterdir()) == ["study-lie.json"]


def test_cli_study_happy_path(tmp_path, capsys):
    stem = tmp_path / "study"
    code = main([
        "nls-converge", "--modes", "64", "--taus", "2^-2..2^-5",
        "--ref-factor", "16", "--cross-val-tol", "1.0",
        "--no-spatial-check", "--seed", "3", "--out", str(stem),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "fitted_order" in out
    assert "certification_margin" in out
    assert (tmp_path / "study.csv").exists()
    report = report_from_json(str(tmp_path / "study.json"))
    assert report.seed == 3
    assert report.equation == "nls"


def test_cli_rejects_bad_configuration(capsys):
    code = main(["nls-converge", "--taus", "2^-5..2^-2", "--modes", "64"])
    assert code == 4
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        "nls-converge --taus abc",
        "diagnose-nullform --nonlinearity bogus",
        "diagnose-strichartz --tau-ref 0.3 --modes 16",
        "diagnose-strichartz --samples 0 --modes 16",
        "local-error-check --equation wave --nonlinearity bogus",
        "local-error-check --equation nls --tau 0",
        "local-error-check --equation wave --tau 2^5000",
        "diagnose-strichartz --tau-ref 2^-5000 --modes 16",
        "nls-converge --taus 2^5000",
        "nls-converge --taus 2^-3..2^-5000",
        "local-error-check --equation wave --quad-order 0",
        "nls-converge --t-end inf",
        "nls-converge --norm Hr:nan",
        "nls-converge --norm Hr:inf",
        "nls-converge --theta nan",
        "nls-converge --delta nan",
        "nls-converge --cross-val-tol nan",
        "wave-converge --amplitude inf",
        "diagnose-nullform --theta nan",
        "diagnose-nullform --amplitude inf",
        "diagnose-strichartz --t-end inf",
        "local-error-check --equation nls --amplitude inf",
        "local-error-check --equation wave --amplitude nan",
        "nls-converge --modes 1.5",
        # 2^50 modes: numpy refuses the grid at once, without touching memory.
        "nls-converge --modes 1125899906842624",
        "diagnose-strichartz --modes 1125899906842624",
        "local-error-check --equation nls --modes 1125899906842624",
        "wave-converge --nonlinearity ''",
        "diagnose-nullform --nonlinearity ''",
        "local-error-check --equation wave --nonlinearity ''",
        "nls-converge --scheme '' --modes 16 --taus 2^-2..2^-5 --no-spatial-check "
        "--cross-val-tol 1",
        "wave-converge --norm '' --modes 16 --taus 2^-2..2^-5 --no-spatial-check "
        "--cross-val-tol 1",
        # Steps longer than the horizon, which would take no step at all.
        "nls-converge --taus 1e300,2^-4 --modes 16 --no-spatial-check --cross-val-tol 1",
        "diagnose-strichartz --modes 16 --samples 4 --tau-ref 1e300",
    ],
)
def test_cli_bad_input_exits_4_without_a_traceback(argv):
    src = os.path.dirname(os.path.dirname(lowreg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", "from lowreg.study_cli import console_entry; console_entry()",
         *shlex.split(argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 4
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("configuration error: ")
    assert done.stderr.count("\n") == 1


# One small command line of each kind that writes an --out file.
WRITING_COMMANDS = [
    "nls-converge --modes 16 --taus 2^-2..2^-5 --ref-factor 16 --cross-val-tol 1 "
    "--no-spatial-check",
    "diagnose-strichartz --modes 16 --samples 4 --tau-ref 2^-6",
    "local-error-check --equation nls --modes 16 --quad-order 2",
]


@pytest.mark.parametrize("argv", WRITING_COMMANDS)
def test_cli_missing_output_directory_exits_4_before_solving(argv, tmp_path):
    src = os.path.dirname(os.path.dirname(lowreg.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def cli(out):
        return subprocess.run(
            [sys.executable, "-c", "from lowreg.study_cli import console_entry; console_entry()",
             *argv.split(), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )

    done = cli(tmp_path / "missing" / "report")
    assert done.returncode == 4
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("configuration error: output directory")
    assert done.stdout == ""
    assert not (tmp_path / "missing").exists()
    # An output file that is an existing directory: a study's <out>.csv, the
    # other commands' --out itself.
    taken = tmp_path / ("taken.csv" if argv.startswith("nls-converge") else "taken")
    taken.mkdir()
    done = cli(tmp_path / "taken")
    assert done.returncode == 4
    assert "Traceback" not in done.stderr
    assert done.stderr == f"configuration error: output file {taken} is a directory\n"
    assert done.stdout == ""


@pytest.mark.parametrize(
    "argv, suffix",
    [
        # The stem leaves room for <out>.csv but not for <out>.json.
        ("nls-converge --modes 16 --taus 2^-2..2^-5 --ref-factor 16 --no-spatial-check", 4),
        ("wave-converge --modes 16 --taus 2^-2..2^-5 --scheme corrected_lie,lie", 0),
        ("diagnose-strichartz --modes 16 --samples 4", -1),
        ("diagnose-nullform --modes 16 --samples 4", -1),
        ("local-error-check --equation nls --modes 16 --quad-order 2", -1),
    ],
)
def test_cli_refuses_an_output_name_too_long_for_its_directory_before_solving(
    argv, suffix, tmp_path, monkeypatch, capsys
):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(study_cli, "_run_scheme", no_solve)
    name = "x" * (os.pathconf(tmp_path, "PC_NAME_MAX") - suffix)
    assert main([*argv.split(), "--out", str(tmp_path / name)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("configuration error: output file name xxx")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# Scripts use the package's public names only, but for the listed uses: an
# import of a private name, or a read of a private attribute of lowreg or of
# a name imported from it.
PRIVATE_USES = ["step_timing.py: study_cli._sweeps"]
STEP_TIMING = pathlib.Path(__file__).parent.parent / "scripts" / "step_timing.py"


def test_no_script_imports_a_private_package_name():
    scripts = sorted(STEP_TIMING.parent.glob("*.py"))
    assert STEP_TIMING in scripts
    private = []
    for path in scripts:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()  # the script's names for lowreg and what it imports from it
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                pairs = [(f"{node.module}.{a.name}", a.asname or a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                pairs = [(a.name, a.asname or a.name.split(".")[0]) for a in node.names]
            else:
                continue
            for name, local in pairs:
                if name.split(".")[0] == "lowreg":
                    bound.add(local)
                    if any(part.startswith("_") for part in name.split(".")):
                        private.append(f"{path.name}: {name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in bound:
                    private.append(f"{path.name}: {ast.unparse(node)}")
    assert private == PRIVATE_USES


# step_timing.py builds its cases on the private study_cli._sweeps: run every
# case once, small, so that a change there fails here.
def test_step_timing_runs_every_case(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("step_timing", STEP_TIMING)
    timing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(timing)
    for name, value in [("STEPS", 4), ("CALLS", 2), ("REPEATS", 1), ("MODES", (16,)),
                        ("SWEEP_MODES", 16), ("FLOW_MODES", (16,)), ("NORM_MODES", (16,))]:
        monkeypatch.setattr(timing, name, value)
    timing.main()
    out = capsys.readouterr().out
    for scheme in timing.SCHEMES:
        assert f"  {scheme} N=16 max-over-steps " in out
    assert out.count(" N=16 rows=") == 6
    assert "wave_flow + null_form_field N=16 " in out and "wave_state_norm N=16 " in out


def test_python_m_lowreg_is_the_module_entry():
    src = os.path.dirname(os.path.dirname(lowreg.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "lowreg", "local-error-check", "--equation", "wave",
         "--quad-order", "1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert done.returncode == 4
    assert done.stderr == "configuration error: --quad-order must be >= 2\n"


# Command lines for fuzzing main: per subcommand, the flags always given
# (their defaults would make a run slow) and the flags given at will.  Each
# flag has cheap valid words (N <= 16, t_end <= 1, steps within 2^-1..2^-4,
# quadrature order <= 4, at most 4 samples; some still fail together, as an
# NLS run with a wave scheme) and invalid ones; a switch has the one word
# None.  One drawn flag at most gets an invalid word, so that most command
# lines get past the parser.
BAD = ["nan", "-1", "x"]
WORDS = {
    "--modes": (["8", "16"], [*BAD, "1125899906842624"]),
    "--taus": (["2^-1..2^-4", "2^-2..2^-4", "0.5,0.25,0.125"], ["2^-4..2^-1", *BAD]),
    "--ref-factor": (["16"], BAD),
    "--t-end": (["0.5", "1"], BAD),
    "--theta": (["0", "1"], BAD),
    "--delta": (["0.01"], BAD),
    "--seed": (["1", "7"], BAD),
    "--amplitude": (["0.5", "400"], BAD),
    "--cross-val-tol": (["1", "1e-300"], BAD),
    "--norm": (["L2", "H1xL2", "Hr:0.5"], BAD),
    "--scheme": (["lri", "lie", "corrected_lie"], BAD),
    "--mu": (["1", "-1"], BAD),
    "--nonlinearity": (["quadratic", "sine", "cubic_minus"], BAD),
    "--max-over-steps": ([None], []),
    "--no-spatial-check": ([None], []),
    "--samples": (["2", "4"], BAD),
    "--tau-ref": (["2^-4", "2^-6"], BAD),
    "--refine": ([None], []),
    "--equation": (["nls", "wave"], BAD),
    "--quad-order": (["2", "4"], BAD),
    "--tau": (["2^-4", "0.25"], BAD),
}
STUDY = ["--t-end", "--theta", "--delta", "--seed", "--amplitude", "--cross-val-tol",
         "--norm", "--scheme", "--max-over-steps", "--no-spatial-check"]
DIAGNOSE = ["--theta", "--seed", "--amplitude", "--t-end", "--tau-ref", "--refine"]
COMMANDS = {
    "nls-converge": (["--modes", "--taus", "--ref-factor"], STUDY + ["--mu"]),
    "wave-converge": (["--modes", "--taus", "--ref-factor"], STUDY + ["--nonlinearity"]),
    "diagnose-strichartz": (["--modes", "--samples"], DIAGNOSE + ["--mu"]),
    "diagnose-nullform": (["--modes", "--samples"], DIAGNOSE + ["--nonlinearity"]),
    "local-error-check": (["--equation", "--modes", "--quad-order"],
                          ["--tau", "--seed", "--amplitude", "--nonlinearity"]),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    always, at_will = COMMANDS[command]
    flags = always + draw(st.lists(st.sampled_from(at_will), unique=True))
    corrupt = draw(st.sampled_from([None, *(f for f in flags if WORDS[f][1])]))
    argv = [command]
    for flag in flags:
        valid, invalid = WORDS[flag]
        word = draw(st.sampled_from(invalid if flag == corrupt else valid))
        argv += [flag] if word is None else [flag, word]
    return argv, draw(st.sampled_from([None, "present", "missing"]))


@settings(max_examples=50, deadline=None)
@given(command_lines())
def test_main_ends_every_command_line_in_a_documented_exit_code(case):
    argv, out_dir = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if out_dir:
            directory = tmp if out_dir == "present" else os.path.join(tmp, "missing")
            argv = argv + ["--out", os.path.join(directory, "report")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4)
    lines = err.getvalue().splitlines(keepends=True)
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].endswith("\n")
        assert lines[0].startswith(("configuration error: ", "validation failure: ",
                                    "blow-up: "))


def no_solve(*args, **kwargs):
    raise AssertionError("a solve ran")


# Root may write everywhere, so a patched os.access stands in for a directory
# without write or search permission.
@pytest.mark.parametrize("argv", WRITING_COMMANDS)
def test_cli_refuses_an_unwritable_output_directory_before_solving(
    argv, tmp_path, monkeypatch, capsys
):
    def access(path, mode, _access=os.access, **kwargs):
        return os.path.abspath(path) != str(tmp_path) and _access(path, mode, **kwargs)

    monkeypatch.setattr(os, "access", access)
    monkeypatch.setattr(study_cli, "_run_scheme", no_solve)
    out = tmp_path / "report"
    assert main([*argv.split(), "--out", str(out)]) == 4
    assert capsys.readouterr() == ("", f"configuration error: output directory of {out}"
                                       f"{'.csv' if 'converge' in argv else ''} is not "
                                       "writable\n")
    assert list(tmp_path.iterdir()) == []


# A write can still fail after the checks, in making the temporary file or in
# moving it into place.
@pytest.mark.parametrize("fails", ["mkstemp", "replace"])
@pytest.mark.parametrize("argv", WRITING_COMMANDS)
def test_an_output_that_cannot_be_written_exits_4_and_leaves_no_temporary_file(
    argv, fails, tmp_path, monkeypatch, capsys
):
    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(tempfile if fails == "mkstemp" else os, fails, denied)
    out = tmp_path / "report"
    assert main([*argv.split(), "--out", str(out)]) == 4
    first = f"{out}{'.csv' if 'converge' in argv else ''}"
    err = capsys.readouterr().err
    assert err == f"configuration error: cannot write {first}: [Errno 13] Permission denied\n"
    assert list(tmp_path.iterdir()) == []


# Unchecked, a study norm that overflows on the datum runs the whole study to
# exit 0, with "error inf" rows and a JSON report with Infinity and NaN
# tokens; an amplitude that overflows the norm trips the guard at step 1.
@pytest.mark.parametrize("argv, label", [
    ("nls-converge --modes 64 --taus 2^-2..2^-5 --ref-factor 16 --norm Hr:120 "
     "--no-spatial-check", "H120"),
    ("nls-converge --modes 16 --taus 2^-2..2^-5 --ref-factor 16 --amplitude 1e200", "L2"),
    ("wave-converge --modes 16 --taus 2^-2..2^-5 --ref-factor 16 --amplitude 1e200", "H1xL2"),
])
def test_a_study_norm_not_finite_on_the_datum_exits_4_before_solving(
    argv, label, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(study_cli, "_run_scheme", no_solve)
    assert main([*argv.split(), "--out", str(tmp_path / "x")]) == 4
    assert capsys.readouterr() == (
        "", f"configuration error: the datum's {label} norm is inf, not finite\n")
    assert list(tmp_path.iterdir()) == []


# numpy's overflow warnings, with their source lines, would come before the
# one blow-up line.
@pytest.mark.parametrize("argv", [
    "diagnose-strichartz --modes 8 --samples 2 --t-end 1 --tau-ref 2^-3 --amplitude 1e300",
    "local-error-check --equation nls --modes 8 --quad-order 2 --amplitude 1e200",
])
def test_an_overflow_blowup_prints_one_line_and_no_numpy_warning(argv, capsys):
    numpy_defaults = np.geterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv.split()) == 3
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith("blow-up: ") and err.count("\n") == 1
    assert np.geterr() == numpy_defaults


def test_cli_signals_validation_failure(capsys):
    code = main([
        "nls-converge", "--modes", "64", "--taus", "2^-2..2^-5",
        "--ref-factor", "16", "--cross-val-tol", "1e-300",
        "--no-spatial-check",
    ])
    assert code == 2
    assert "validation failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, phase, step",
    [
        pytest.param(
            "wave-converge --modes 64 --taus 2^-2..2^-5 --ref-factor 16 --cross-val-tol 1e9 "
            "--no-spatial-check --amplitude 50.0 --nonlinearity quadratic",
            "reference run (corrected_lie)", 152, id="study"),
        pytest.param(
            "local-error-check --equation wave --modes 32 --quad-order 4 --amplitude 400 "
            "--tau 0.5", "local-error reference run (corrected_lie)", 129,
            id="local-error-check"),
        pytest.param(
            "diagnose-nullform --modes 16 --samples 4 --amplitude 400 --tau-ref 2^-6",
            "nullform_norm reference run (corrected_lie)", 13, id="diagnose-nullform"),
        pytest.param(
            "diagnose-strichartz --modes 16 --samples 4 --amplitude 400 --tau-ref 2^-6",
            "strichartz_l4 reference run (lri)", 2, id="diagnose-strichartz"),
    ],
)
def test_cli_signals_blowup(argv, phase, step, capsys):
    assert main(argv.split()) == 3
    err = capsys.readouterr().err
    assert err == f"blow-up: {phase}: norm guard tripped at step {step}\n"


# Amplitude 2 on 16 modes: the LRI sweeps at 2^-2, 2^-3 and 2^-4 trip the guard
# (at t = 1, 0.625 and 0.4375); the one at 2^-1 and the reference at 2^-8 do not.
BLOWN_SWEEPS = ("nls-converge --modes 16 --amplitude 2 --taus 2^-1..2^-4 --ref-factor 16 "
                "--no-spatial-check")
STUDY_KINDS = pytest.mark.parametrize("kind", ["", " --max-over-steps"],
                                      ids=["terminal", "max-over-steps"])


@STUDY_KINDS
def test_a_failed_validation_outranks_sweep_blowups(kind, capsys):
    assert main(f"{BLOWN_SWEEPS} --cross-val-tol 1e-300{kind}".split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation failure: reference cross-validation failed: ")
    assert err.count("\n") == 1


@STUDY_KINDS
def test_sweep_blowups_name_the_first_step_size_that_blew_up(kind, capsys):
    """The sweep at 2^-2 trips its guard last in time but comes first in the
    step-size list, so its blow-up is the one reported."""
    assert main(f"{BLOWN_SWEEPS} --cross-val-tol 1e10{kind}".split()) == 3
    err = capsys.readouterr().err
    assert err == "blow-up: sweep tau=0.25 run (lri): norm guard tripped at step 4\n"


def test_cli_diagnose_strichartz(tmp_path, capsys):
    out_path = tmp_path / "strichartz.json"
    code = main([
        "diagnose-strichartz", "--modes", "64", "--samples", "8",
        "--t-end", "0.5", "--tau-ref", "0.015625", "--seed", "2",
        "--amplitude", "0.3", "--out", str(out_path),
    ])
    assert code == 0
    assert "strichartz_l4" in capsys.readouterr().out
    record = json.loads(out_path.read_text())
    assert record["functional"] == "strichartz_l4"
    assert record["value"] > 0.0


def test_cli_diagnose_nullform_with_refinement(tmp_path, capsys):
    out_path = tmp_path / "nullform.json"
    code = main([
        "diagnose-nullform", "--modes", "64", "--samples", "8",
        "--t-end", "0.5", "--tau-ref", "0.015625", "--seed", "2",
        "--amplitude", "0.3", "--refine", "--out", str(out_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "nullform_norm" in out
    assert "relative_change" in out
    record = json.loads(out_path.read_text())
    assert record["refined_value"] > 0.0
    assert record["relative_change"] >= 0.0


@pytest.mark.parametrize("argv", [
    pytest.param("--equation nls --modes 32 --quad-order 4 --seed 7", id="nls"),
    pytest.param("--equation wave --modes 32 --quad-order 4 --seed 7", id="wave"),
    # The default q = 64: with a reference of 256 steps per sample the gain
    # floored at 0.99x, set by the reference's rounding (README, Command line).
    pytest.param("--equation nls --modes 64", id="nls-default-quad-order"),
])
def test_cli_local_error_check(argv, capsys):
    code = main(["local-error-check", *argv.split()])
    out = capsys.readouterr().out
    assert code == 0
    lines = dict(
        line.split(" ", 1) for line in out.strip().splitlines() if " " in line
    )
    assert float(lines["relative_discrepancy_refined"]) <= float(
        lines["relative_discrepancy"]
    )
    # Both trajectories are second order, so refining q to 4q gains about 16x.
    assert float(lines["improvement_factor"]) >= 4.0

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import lowreg
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
    cross_validate_reference,
    emit_report,
    fit_rate,
    free_flow,
    main,
    random_rough_field,
    report_from_json,
    run_convergence_study,
    sobolev_norm,
    wave_flow,
    wave_state_norm,
    zero_field,
)
from lowreg import study_cli
from lowreg.study_cli import (
    _run_scheme,
    build_parser,
    parse_norm,
    parse_taus,
    read_config_file,
    smooth_data_spec,
    _study_config_from_args,
)
from lowreg.torus_spectral import difference, rough_wave_state
from oracles import nls_plane_wave_coefficient


def mode_field(grid, k, value=1.0):
    c = np.zeros(grid.n_modes, dtype=np.complex128)
    c[k % grid.n_modes] = value
    return SpectralField(grid, c)


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
    with pytest.raises(ValueError):
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


def test_parse_taus_keeps_the_extreme_finite_powers():
    assert parse_taus("2^-1074") == (2.0**-1074,)
    assert parse_taus("2^1023..2^1021") == (2.0**1023, 2.0**1022, 2.0**1021)


def test_readme_commands_parse():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        commands = [line.split()[1:] for line in fh if line.startswith("lowreg ")]
    assert len(commands) == 5
    parsed = {argv[0]: build_parser().parse_args(argv) for argv in commands}
    assert parsed["local-error-check"].tau == 2.0**-6
    assert parse_taus(parsed["nls-converge"].taus)[-1] == 2.0**-10


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
    with pytest.raises(ConfigError):
        read_config_file(str(tmp_path / "missing.cfg"))


def test_command_line_flags_override_config_file(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text("seed = 5\nmodes = 32\nspatial_check = false\ntaus = 2^-2..2^-5\n")
    parser = build_parser()
    args = parser.parse_args(
        ["nls-converge", "--config", str(path), "--seed", "9", "--mu", "-1"]
    )
    config = _study_config_from_args(args, "nls")
    assert config.seed == 9  # flag wins
    assert config.n_modes == 32  # file-only value survives
    assert config.spatial_check is False
    assert config.mu == -1
    assert config.tau_list == (2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5)


# --- reference cross-validation ------------------------------------------------------


def test_cross_validation_passes_on_the_linear_wave():
    grid = TorusGrid(16)
    c = np.zeros(16, dtype=np.complex128)
    c[1], c[-1] = -0.5j, 0.5j  # sin(x)
    w0 = WaveState(SpectralField(grid, c, is_real=True), zero_field(grid))
    problem = WaveProblem(Nonlinearity.preset("zero"), w0, 0.5)
    record = cross_validate_reference(problem, 2.0**-6)
    assert record["passed"]
    assert record["distance"] <= 1e-12
    assert record["reference_scheme"] == "corrected_lie"
    assert record["comparator_scheme"] == "strang"
    assert record["comparator_tau"] == 4 * 2.0**-6


def test_cross_validation_passes_on_the_plane_wave():
    grid = TorusGrid(16)
    a, k, mu = 0.1, 1, 1
    problem = NlsProblem(mu, mode_field(grid, k, a), 1.0)
    # The splitting comparator is exact on plane waves, so the two-scheme
    # distance is the exponential integrator's own O(tau) error; 5e-5 leaves
    # a factor-two margin under the default relative tolerance.
    record = cross_validate_reference(problem, 5e-5)
    assert record["passed"]
    exact = nls_plane_wave_coefficient(a, k, mu, 1.0)
    for kind in ("lri", "lie"):
        from lowreg import NlsStepperKind, run_nls

        stepper = (
            NlsStepperKind.LOW_REGULARITY if kind == "lri"
            else NlsStepperKind.LIE_SPLITTING
        )
        out = run_nls(problem.u0, 1e-4, 10_000, mu, stepper)[-1]
        assert abs(out.coeffs[k] - exact) <= 1e-6


def test_cross_validation_failure_carries_its_record():
    grid = TorusGrid(32)
    u0 = random_rough_field(
        smooth_data_spec(seed=3, amplitude=0.5), grid
    )
    problem = NlsProblem(1, u0, 1.0)
    with pytest.raises(ValidationError) as exc:
        cross_validate_reference(problem, 2.0**-4, tol=1e-300)
    record = exc.value.record
    assert record["passed"] is False
    assert record["distance"] > record["tolerance"]


# --- the Strang comparator -----------------------------------------------------------


def smooth_datum(equation, grid, seed=3):
    if equation == "nls":
        return random_rough_field(smooth_data_spec(seed, amplitude=0.5), grid)
    spec = smooth_data_spec(seed, amplitude=0.5, real_valued=True)
    return rough_wave_state(spec, grid, v_theta=spec.theta)


def strang(equation, initial, tau, n_steps, record_every=None):
    nl = Nonlinearity.preset("quadratic") if equation == "wave" else None
    return _run_scheme("test", initial, equation, "strang", nl, 1, tau, n_steps,
                       record_every=record_every)


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
        out = _run_scheme("test", initial, "nls", "strang", None, 0, tau, n_steps)[-1]
        exact = free_flow(initial, n_steps * tau)
    else:
        initial = rough_wave_state(RoughDataSpec(theta=1.0, seed=2, amplitude=0.5), grid)
        out = _run_scheme("test", initial, "wave", "strang", Nonlinearity.preset("zero"),
                          1, tau, n_steps)[-1]
        exact = wave_flow(initial, n_steps * tau)
    assert distance(out, exact) <= 1e-13


@pytest.mark.parametrize("equation", ["nls", "wave"])
def test_strang_comparator_is_second_order_on_smooth_data(equation):
    initial = smooth_datum(equation, TorusGrid(64))
    fine = strang(equation, initial, 2.0**-11, 2**11)[-1]
    gaps = [distance(strang(equation, initial, 2.0**-e, 2**e)[-1], fine) for e in (3, 4, 5, 6)]
    assert all(a >= 3.0 * b for a, b in zip(gaps, gaps[1:])), gaps


@pytest.mark.parametrize("equation", ["nls", "wave"])
def test_recorded_strang_snapshots_are_the_terminal_states_of_shorter_runs(equation):
    initial = smooth_datum(equation, TorusGrid(32))
    tau, every = 2.0**-4, 2
    snapshots = strang(equation, initial, tau, 3 * every, record_every=every)
    assert len(snapshots) == 4 and snapshots[0] is initial
    for j in (1, 2, 3):
        terminal = strang(equation, initial, tau, j * every)[-1]
        assert distance(snapshots[j], terminal) == 0.0


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
    real = study_cli._reference_run

    def exact_comparator(*args, **kwargs):
        states, record = real(*args, **kwargs)
        return states, dict(record, distance=0.0)

    monkeypatch.setattr(study_cli, "_reference_run", exact_comparator)
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


# --- command line ------------------------------------------------------------------


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
    ],
)
def test_cli_bad_input_exits_4_without_a_traceback(argv):
    src = os.path.dirname(os.path.dirname(lowreg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", "from lowreg.study_cli import console_entry; console_entry()",
         *argv.split()],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 4
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("configuration error: ")
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        "nls-converge --modes 16 --taus 2^-2..2^-5 --ref-factor 16 --no-spatial-check",
        "diagnose-strichartz --modes 16 --samples 4 --tau-ref 2^-6",
        "local-error-check --equation nls --modes 16 --quad-order 2",
    ],
)
def test_cli_missing_output_directory_exits_4_before_solving(argv, tmp_path):
    src = os.path.dirname(os.path.dirname(lowreg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "missing" / "report"
    done = subprocess.run(
        [sys.executable, "-c", "from lowreg.study_cli import console_entry; console_entry()",
         *argv.split(), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 4
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("configuration error: output directory")
    assert done.stdout == ""
    assert not (tmp_path / "missing").exists()


def test_cli_signals_validation_failure(capsys):
    code = main([
        "nls-converge", "--modes", "64", "--taus", "2^-2..2^-5",
        "--ref-factor", "16", "--cross-val-tol", "1e-300",
        "--no-spatial-check",
    ])
    assert code == 2
    assert "validation failure" in capsys.readouterr().err


def test_cli_signals_blowup(capsys):
    code = main([
        "wave-converge", "--modes", "64", "--taus", "2^-2..2^-5",
        "--ref-factor", "16", "--cross-val-tol", "1e9",
        "--no-spatial-check", "--amplitude", "50.0",
        "--nonlinearity", "quadratic",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "blow-up" in err
    assert "reference run (corrected_lie)" in err


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


@pytest.mark.parametrize("equation", ["nls", "wave"])
def test_cli_local_error_check(equation, capsys):
    code = main([
        "local-error-check", "--equation", equation,
        "--modes", "32", "--quad-order", "4", "--seed", "7",
    ])
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

import contextlib
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rough_wave_state_on
from lowreg import (
    Nonlinearity,
    NlsProblem,
    RoughDataSpec,
    SpectralField,
    TorusGrid,
    Trajectory,
    WaveState,
    b_map,
    dalembert_split,
    dealiased_product,
    derivative,
    free_flow,
    from_physical,
    nls_local_error_oracle,
    nls_reference_solve,
    null_form_field,
    regrid,
    nullform_norm,
    random_rough_field,
    read_field,
    read_trajectory,
    read_wave_state,
    run_wave,
    sobolev_norm,
    strichartz_l4,
    to_physical,
    trajectory_of,
    translate,
    wave_flow,
    wave_local_error_oracle,
    wave_state_norm,
    write_field,
    write_trajectory,
    write_wave_state,
    zero_field,
)
from oracles import scalar_second_order_ode, semidiscrete_nls_states

QUADRATIC = Nonlinearity.preset("quadratic")
ZERO = Nonlinearity.preset("zero")


def mode_field(grid, k, value=1.0):
    c = np.zeros(grid.n_modes, dtype=np.complex128)
    c[k % grid.n_modes] = value
    return SpectralField(grid, c)


def real_state(grid, u_fn, v_fn):
    x = grid.points
    return WaveState(
        from_physical(np.asarray(u_fn(x), dtype=np.float64), grid),
        from_physical(np.asarray(v_fn(x), dtype=np.float64), grid),
    )


def constant_nls_trajectory(grid, a, mu, tau, n_sub):
    times = np.linspace(0.0, tau, n_sub + 1)
    states = [
        mode_field(grid, 0, a * np.exp(-1j * mu * abs(a) ** 2 * t)) for t in times
    ]
    return trajectory_of(states, 0.0, tau)


def flow_trajectory(w0, t_end, n_sub):
    states = [wave_flow(w0, t) for t in np.linspace(0.0, t_end, n_sub + 1)]
    return trajectory_of(states, 0.0, t_end)


def state_gap(a, b):
    w = 1.0 + a.grid.freqs.astype(np.float64) ** 2
    du = a.u.coeffs - b.u.coeffs
    dv = a.v.coeffs - b.v.coeffs
    return np.sqrt(float(w @ np.abs(du) ** 2)) + np.linalg.norm(dv)


# --- trajectory container -------------------------------------------------------


def test_trajectory_needs_three_uniform_samples(grid16):
    f = zero_field(grid16)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), [f, f])
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.5, 0.7]), [f, f, f])
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.5, 1.0]), [f, f])


def test_trajectory_rejects_mixed_grids(grid16, grid32):
    with pytest.raises(ValueError):
        Trajectory(
            np.array([0.0, 0.5, 1.0]),
            [zero_field(grid16), zero_field(grid32), zero_field(grid16)],
        )


@pytest.mark.parametrize("kinds, consumer", [
    ("fwf", "strichartz_l4"), ("wfw", "nullform_norm"), ("fwf", "write_trajectory"),
])
def test_trajectory_rejects_mixed_kinds(grid16, tmp_path, kinds, consumer):
    # Each consumer used to fail untyped, on the first state of the other kind.
    consume = {
        "strichartz_l4": strichartz_l4,
        "nullform_norm": nullform_norm,
        "write_trajectory": lambda traj: write_trajectory(traj, tmp_path / "mixed.txt"),
    }[consumer]
    f, w = zero_field(grid16), rough_wave_state_on(grid16, 1)
    states = [f if kind == "f" else w for kind in kinds]
    with pytest.raises(ValueError, match="mix fields and wave states"):
        consume(trajectory_of(states, 0.0, 1.0))
    assert not (tmp_path / "mixed.txt").exists()


def test_trajectory_of_wraps_metadata(grid16):
    traj = trajectory_of([zero_field(grid16)] * 5, 0.0, 1.0, scheme="lri")
    assert traj.dt == 0.25
    assert traj.grid is grid16
    assert not traj.is_wave
    assert traj.meta == {"scheme": "lri"}


# --- Strichartz functional ------------------------------------------------------


def test_strichartz_of_the_zero_field_vanishes(grid16):
    traj = trajectory_of([zero_field(grid16, is_real=False)] * 9, 0.0, 2.0)
    assert strichartz_l4(traj) == 0.0


def test_strichartz_of_a_free_single_mode():
    grid = TorusGrid(32)
    t_end = 2.0
    u0 = mode_field(grid, 1)
    states = [free_flow(u0, t) for t in np.linspace(0.0, t_end, 9)]
    value = strichartz_l4(trajectory_of(states, 0.0, t_end))
    assert value == pytest.approx((2.0 * np.pi * t_end) ** 0.25, rel=1e-12)


def test_strichartz_rejects_wave_trajectories(grid16):
    w = rough_wave_state_on(grid16, 1)
    with pytest.raises(ValueError):
        strichartz_l4(trajectory_of([w] * 5, 0.0, 1.0))


# --- null form ------------------------------------------------------------------


def test_nullform_rejects_scalar_trajectories(grid16):
    with pytest.raises(ValueError):
        nullform_norm(trajectory_of([zero_field(grid16)] * 5, 0.0, 1.0))


def test_nullform_vanishes_on_single_movers():
    # u(t, x) = f(x - t) solves the homogeneous equation with v = -f'; the
    # factors v^2 and u_x^2 then cancel identically.
    grid = TorusGrid(64)
    f = from_physical(np.cos(grid.points) + 0.3 * np.sin(2.0 * grid.points), grid)
    mover = WaveState(f, derivative(SpectralField(grid, -f.coeffs, True), 1))
    traj = flow_trajectory(mover, 1.0, 16)
    assert nullform_norm(traj) <= 1e-10
    assert sobolev_norm(null_form_field(mover), 0.0) <= 1e-13


def test_nullform_norm_keeps_no_sample_list():
    # 65 states at N = 256: a list of their null-form fields would hold
    # 65 * 4 KB of coefficients; one pass holds one field at a time.
    grid = TorusGrid(256)
    traj = flow_trajectory(rough_wave_state_on(grid, 5), 1.0, 64)
    value = nullform_norm(traj)  # warm the transform caches
    tracemalloc.start()
    try:
        assert nullform_norm(traj) == value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 65 * 4096 // 3


def test_null_form_is_the_quadratic_b_map_at_rest():
    # With u = 0 the quadratic's b map is (0, 2 * (v^2 - u_x^2)), formed on
    # the same real workspace, so the two agree bit for bit on a rough v.
    grid = TorusGrid(64)
    v = random_rough_field(RoughDataSpec(theta=0.0, seed=4), grid)
    w = WaveState(zero_field(grid), v)
    assert np.array_equal(b_map(w, QUADRATIC).v.coeffs, 2.0 * null_form_field(w).coeffs)


def test_null_form_reads_the_nyquist_mode_as_a_cosine():
    # (0.3 cos 8x)^2 = 0.045 + 0.045 cos 16x, and cos 16x lies outside N = 16.
    grid = TorusGrid(16)
    w = real_state(grid, lambda x: 0.0 * x, lambda x: 0.3 * np.cos(8.0 * x))
    expected = np.zeros(16)
    expected[0] = 0.045
    assert np.allclose(null_form_field(w).coeffs, expected, rtol=0.0, atol=1e-15)


def test_nullform_of_the_standing_wave_is_pi():
    # From (sin x, 0): v^2 - u_x^2 integrates to pi^2 over one space-time
    # period, and the 2*pi-periodic trapezoid rule is exact for the degree-4
    # trigonometric integrand.
    grid = TorusGrid(64)
    w0 = real_state(grid, np.sin, lambda x: 0.0 * x)
    traj = flow_trajectory(w0, 2.0 * np.pi, 32)
    assert nullform_norm(traj) == pytest.approx(np.pi, abs=1e-10)


def test_nullform_is_translation_invariant():
    # On data whose quadratic products stay inside the band, translation is
    # an exact group action and the functional ignores the shift.
    coarse = rough_wave_state_on(TorusGrid(16), 3, amplitude=0.4)
    grid = TorusGrid(64)
    w = WaveState(regrid(coarse.u, grid), regrid(coarse.v, grid))
    shifted = WaveState(translate(w.u, 0.7), translate(w.v, 0.7))
    base = nullform_norm(flow_trajectory(w, 1.0, 8))
    moved = nullform_norm(flow_trajectory(shifted, 1.0, 8))
    assert moved == pytest.approx(base, rel=1e-12)


def test_null_form_factorizes_over_the_mover_split():
    # Q(t) = -4 * left(x + t) * right(x - t) along the homogeneous flow.
    grid = TorusGrid(64)
    w0 = real_state(
        grid,
        lambda x: np.sin(x) + 0.3 * np.cos(2.0 * x),
        lambda x: 0.2 * np.sin(x),
    )
    left, right = dalembert_split(w0)
    for t in (0.3, 1.1):
        flowed = wave_flow(w0, t)
        q = null_form_field(flowed)
        product = dealiased_product([translate(left, t), translate(right, -t)])
        assert np.allclose(q.coeffs, -4.0 * product.coeffs, atol=1e-12)


# --- d'Alembert splitting ---------------------------------------------------------


def test_dalembert_split_of_displacement_data():
    grid = TorusGrid(16)
    left, right = dalembert_split(real_state(grid, np.sin, lambda x: 0.0 * x))
    assert np.allclose(to_physical(left), np.cos(grid.points) / 2.0, atol=1e-13)
    assert np.allclose(to_physical(right), np.cos(grid.points) / 2.0, atol=1e-13)


def test_dalembert_split_of_velocity_data():
    grid = TorusGrid(16)
    f = lambda x: np.cos(x) + 0.2 * np.sin(3.0 * x)
    left, right = dalembert_split(real_state(grid, lambda x: 0.0 * x, f))
    assert np.allclose(to_physical(left), f(grid.points) / 2.0, atol=1e-13)
    assert np.allclose(to_physical(right), -f(grid.points) / 2.0, atol=1e-13)


def test_dalembert_movers_reconstruct_the_flow_velocity():
    grid = TorusGrid(64)
    w0 = real_state(
        grid,
        lambda x: np.sin(x) + 0.3 * np.cos(2.0 * x),
        lambda x: 0.2 * np.sin(x),
    )
    left, right = dalembert_split(w0)
    for t in (0.4, 1.3):
        flowed = wave_flow(w0, t)
        rebuilt = translate(left, t).coeffs - translate(right, -t).coeffs
        assert np.allclose(flowed.v.coeffs, rebuilt, atol=1e-12)


# --- local error oracle, Schrödinger ----------------------------------------------


def test_nls_oracle_layout_validation(grid16):
    tau = 0.25
    traj = constant_nls_trajectory(grid16, 0.5, 1, tau, 8)
    with pytest.raises(ValueError):
        nls_local_error_oracle(traj, tau, 1, 3)  # 3 does not divide 8
    with pytest.raises(ValueError):
        nls_local_error_oracle(traj, tau, 1, 16)  # more panels than sub-steps
    with pytest.raises(ValueError):
        nls_local_error_oracle(traj, tau, 1, 1)
    with pytest.raises(ValueError):
        nls_local_error_oracle(traj, 2.0 * tau, 1, 4)  # span mismatch
    w = rough_wave_state_on(grid16, 1)
    with pytest.raises(ValueError):
        nls_local_error_oracle(trajectory_of([w] * 9, 0.0, tau), tau, 1, 4)


def test_nls_oracle_vanishes_on_the_zero_solution(grid16):
    tau = 0.25
    times = [zero_field(grid16, is_real=False)] * 9
    direct, integral = nls_local_error_oracle(
        trajectory_of(times, 0.0, tau), tau, 1, 4
    )
    assert sobolev_norm(direct, 0.0) == 0.0
    assert sobolev_norm(integral, 0.0) == 0.0


def test_nls_oracle_sides_agree_on_the_constant_solution():
    grid = TorusGrid(16)
    tau, a, mu = 2.0**-4, 0.8, 1
    traj = constant_nls_trajectory(grid, a, mu, tau, 128)
    gaps = []
    for q in (8, 32):
        direct, integral = nls_local_error_oracle(traj, tau, mu, q)
        scale = max(sobolev_norm(direct, 0.0), 1e-300)
        gaps.append(sobolev_norm(
            SpectralField(grid, direct.coeffs - integral.coeffs), 0.0) / scale)
    assert gaps[0] <= 1e-3
    assert gaps[1] <= gaps[0] / 8.0


def test_nls_oracle_discrepancy_shrinks_monotonically():
    grid = TorusGrid(16)
    tau, a, mu = 2.0**-4, 0.8, 1
    traj = constant_nls_trajectory(grid, a, mu, tau, 128)
    gaps = []
    for q in (8, 16, 32, 64):
        direct, integral = nls_local_error_oracle(traj, tau, mu, q)
        gaps.append(sobolev_norm(
            SpectralField(grid, direct.coeffs - integral.coeffs), 0.0))
    for coarse, fine in zip(gaps, gaps[1:]):
        assert fine <= 1.1 * coarse


def test_nls_oracle_on_smooth_data_against_an_independent_solver():
    grid = TorusGrid(32)
    from lowreg import RoughDataSpec, random_rough_field

    u0 = random_rough_field(
        RoughDataSpec(theta=5.49, seed=7, delta=0.01, amplitude=0.5), grid
    )
    tau, mu, n_sub = 2.0**-6, 1, 128
    states = semidiscrete_nls_states(
        u0.coeffs, grid.freqs, mu, np.linspace(0.0, tau, n_sub + 1)
    )
    traj = trajectory_of(
        [SpectralField(grid, c) for c in states], 0.0, tau
    )
    gaps = []
    for q in (16, 64):
        direct, integral = nls_local_error_oracle(traj, tau, mu, q)
        scale = max(sobolev_norm(direct, 0.0), 1e-300)
        gaps.append(sobolev_norm(
            SpectralField(grid, direct.coeffs - integral.coeffs), 0.0) / scale)
    assert gaps[0] <= 1e-3
    assert gaps[1] <= gaps[0] / 4.0


# --- local error oracle, wave ------------------------------------------------------


def test_wave_oracle_vanishes_without_forcing():
    grid = TorusGrid(32)
    w0 = rough_wave_state_on(grid, 4, amplitude=0.4)
    tau = 2.0**-3
    traj = flow_trajectory(w0, tau, 64)
    direct, integral = wave_local_error_oracle(traj, tau, ZERO, 16)
    scale = wave_state_norm(w0)
    assert wave_state_norm(direct) <= 1e-12 * scale
    assert wave_state_norm(integral) <= 1e-12 * scale


def test_wave_oracle_sides_agree_on_zero_mode_data():
    grid = TorusGrid(8)
    tau, n_sub = 2.0**-4, 128
    times = np.linspace(0.0, tau, n_sub + 1)
    rows = scalar_second_order_ode(QUADRATIC.g, 0.4, 0.2, times)
    states = []
    for u, v in rows:
        cu = np.zeros(8, dtype=np.complex128)
        cv = np.zeros(8, dtype=np.complex128)
        cu[0], cv[0] = u, v
        states.append(WaveState(
            SpectralField(grid, cu, is_real=True),
            SpectralField(grid, cv, is_real=True),
        ))
    traj = trajectory_of(states, 0.0, tau)
    gaps = []
    for q in (8, 32):
        direct, integral = wave_local_error_oracle(traj, tau, QUADRATIC, q)
        scale = max(wave_state_norm(direct), 1e-300)
        gaps.append(state_gap(direct, integral) / scale)
    assert gaps[0] <= 5e-2
    assert gaps[1] <= gaps[0] / 8.0


def test_wave_oracle_on_smooth_data():
    grid = TorusGrid(32)
    w0 = rough_wave_state_on(grid, 7, theta=5.49, amplitude=0.5)
    tau, n_sub = 2.0**-6, 256
    states = run_wave(w0, tau / (16 * n_sub), 16 * n_sub, QUADRATIC,
                      record_every=16)
    traj = trajectory_of(states, 0.0, tau)
    gaps = []
    for q in (16, 64):
        direct, integral = wave_local_error_oracle(traj, tau, QUADRATIC, q)
        scale = max(wave_state_norm(direct), 1e-300)
        gaps.append(state_gap(direct, integral) / scale)
    assert gaps[0] <= 1e-2
    assert gaps[1] <= 1e-3
    assert gaps[1] <= gaps[0] / 4.0


def test_wave_oracle_rejects_scalar_trajectories(grid16):
    traj = constant_nls_trajectory(grid16, 0.5, 1, 0.25, 8)
    with pytest.raises(ValueError):
        wave_local_error_oracle(traj, 0.25, QUADRATIC, 4)


# --- trajectory files ----------------------------------------------------------------


def test_scalar_trajectory_file_round_trip(tmp_path):
    grid = TorusGrid(16)
    problem = NlsProblem(1, mode_field(grid, 1, 0.3), 0.5)
    states = nls_reference_solve(problem, 4, 2.0**-6)
    traj = trajectory_of(states, 0.0, 0.5, scheme="lri", seed="7")
    path = tmp_path / "traj.txt"
    write_trajectory(traj, path)
    back = read_trajectory(path)
    assert not back.is_wave
    assert np.allclose(back.times, traj.times, atol=1e-15)
    assert back.meta == {"scheme": "lri", "seed": "7"}
    for ours, theirs in zip(traj.states, back.states):
        assert np.array_equal(ours.coeffs, theirs.coeffs)

    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ValueError, match=rf"traj\.txt, line {len(lines) - 2}: unexpected end"):
        read_trajectory(path)
    lines[2] = "samples five"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"traj\.txt, line 3: "):
        read_trajectory(path)

    # Eight header lines (two meta entries), then five 17-line records.
    write_trajectory(traj, path)
    lines = path.read_text().splitlines()
    for index, line, error in [
        (1, "kind waves", "unknown trajectory kind 'waves'"),
        (1, "kindx nls", "expected 'kind <value>'"),
        (2, "sample 5", "expected 'samples <value>'"),
        (3, "t1 0.0", "expected 't0 <value>'"),
        (4, "dt 0.125 0.125", "expected 'dt <value>'"),
        (5, "metas 2", "expected 'meta <value>'"),
        (2, "samples 3", "text after the 3 declared samples"),
    ]:
        bad = lines.copy()
        bad[index] = line
        path.write_text("\n".join(bad) + "\n")
        at = 8 + 3 * 17 + 1 if line == "samples 3" else index + 1
        with pytest.raises(ValueError, match=rf"traj\.txt, line {at}: {error}"):
            read_trajectory(path)
    path.write_text("\n".join(lines) + "\n\n  \n")
    assert len(read_trajectory(path).states) == 5  # trailing blank lines are fine


def test_wave_trajectory_file_round_trip(tmp_path):
    grid = TorusGrid(16)
    w0 = rough_wave_state_on(grid, 9, amplitude=0.3)
    states = run_wave(w0, 2.0**-5, 8, QUADRATIC, record_every=2)
    traj = trajectory_of(states, 0.0, 0.25, nonlinearity="quadratic")
    path = tmp_path / "wave_traj.txt"
    write_trajectory(traj, path)
    back = read_trajectory(path)
    assert back.is_wave
    assert back.meta == {"nonlinearity": "quadratic"}
    for ours, theirs in zip(traj.states, back.states):
        assert np.array_equal(ours.u.coeffs, theirs.u.coeffs)
        assert np.array_equal(ours.v.coeffs, theirs.v.coeffs)

    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:20]) + "\n")
    with pytest.raises(ValueError, match=r"wave_traj\.txt, line 21: unexpected end"):
        read_trajectory(path)
    lines[1] = "kind"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"wave_traj\.txt, line 2: "):
        read_trajectory(path)


@pytest.mark.parametrize(
    "meta", [{"note": "a\nb"}, {"note": "a\rb"}, {"two words": 1}, {"": 1}]
)
def test_write_trajectory_refuses_meta_it_cannot_read_back(tmp_path, meta):
    grid = TorusGrid(16)
    traj = trajectory_of([zero_field(grid)] * 3, 0.0, 1.0, **meta)
    path = tmp_path / "traj.txt"
    with pytest.raises(ValueError, match="cannot be written"):
        write_trajectory(traj, path)
    assert not path.exists()


def test_read_trajectory_rejects_other_files(tmp_path):
    path = tmp_path / "not_a_traj.txt"
    path.write_text("something else\n")
    with pytest.raises(ValueError):
        read_trajectory(path)


def _written_lines(write, obj) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/record.txt"
        write(obj, path)
        with open(path, encoding="ascii") as fh:
            return fh.read().splitlines()


def _valid_records() -> list[list[str]]:
    grid = TorusGrid(8)
    w = rough_wave_state_on(grid, 3, amplitude=0.3)
    return [
        _written_lines(write_field, w.u),
        _written_lines(write_wave_state, w),
        _written_lines(write_trajectory, trajectory_of([w.u, w.v, w.u], 0.0, 1.0, seed=3)),
        _written_lines(write_trajectory, trajectory_of([w, w, w], 0.0, 1.0)),
    ]


_COUNTS = st.sampled_from(["-1", "0", "1", "3", "8", "16", "1000000000000000", "1.5", "x"])
_FLOATS = st.sampled_from(["0", "0.25", "-0.5", "nan", "inf", "-1e308", "1e308", "x"])
_LINES = st.one_of(
    st.builds("field {} {}".format, _COUNTS, st.sampled_from(["0", "1", "2", "x"])),
    st.sampled_from(["", "field", "wavestate", "trajectory", "kind", "kind nls", "kind wave"]),
    st.builds("{} {}".format, st.sampled_from(["samples", "t0", "dt", "meta"]),
              st.one_of(_COUNTS, _FLOATS)),
    st.builds("{} {}".format, _FLOATS, _FLOATS),
    st.text(st.sampled_from("0123 .-e\tx\u00e9"), max_size=8),
)


def _spliced(base, cut, inserted, dropped):
    return base[:cut] + inserted + base[cut + dropped:]


# Small headers and records, alone or spliced into a valid record.
_FILES = st.one_of(
    st.lists(_LINES, max_size=12),
    st.builds(_spliced, st.sampled_from(_valid_records()), st.integers(0, 80),
              st.lists(_LINES, max_size=6), st.integers(0, 80)),
)


@settings(max_examples=400)
@given(lines=_FILES)
def test_readers_raise_only_value_errors_on_small_malformed_files(lines):
    """Each reader either reads the file or raises a ValueError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/malformed.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        for reader in (read_field, read_wave_state, read_trajectory):
            with contextlib.suppress(ValueError):
                reader(path)

import functools
import io
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    mode_field, real_state, rough_wave_state_on, save_trajectory_arrays, state_gap,
)
from lowreg import (
    Nonlinearity,
    NlsProblem,
    RoughDataSpec,
    SpectralField,
    TorusGrid,
    Trajectory,
    WaveState,
    b_map,
    derivative,
    free_flow,
    from_physical,
    hermitian_part,
    nls_local_error_oracle,
    nls_reference_solve,
    null_form_field,
    regrid,
    nullform_norm,
    random_rough_field,
    read_trajectory,
    run_nls,
    run_wave,
    sobolev_norm,
    strichartz_l4,
    to_physical,
    trajectory_of,
    wave_flow,
    wave_local_error_oracle,
    wave_state_norm,
    write_trajectory,
    zero_field,
)
from lowreg import diagnostics, study_cli
from lowreg.torus_spectral import difference
from oracles import (
    convolution_project,
    nls_local_error_double_loop,
    scalar_second_order_ode,
    semidiscrete_nls_states,
)

QUADRATIC = Nonlinearity.preset("quadratic")
ZERO = Nonlinearity.preset("zero")


def translate(f, shift):
    """x -> f(x + shift) for a real field, keeping only the representable part
    of its translated Nyquist cosine."""
    c = hermitian_part(f.coeffs * np.exp(1j * f.grid.freqs * shift))
    return SpectralField(f.grid, c, True)


def dalembert_split(w):
    """Left/right mover data (u_x + v)/2 and (u_x - v)/2: along the homogeneous
    flow from w, v(t, x) = left(x + t) - right(x - t)."""
    ux, v = derivative(w.u, 1).coeffs, w.v.coeffs
    return [SpectralField(w.grid, hermitian_part(0.5 * (ux + s * v)), True) for s in (1, -1)]


def constant_nls_trajectory(grid, a, mu, tau, n_sub):
    times = np.linspace(0.0, tau, n_sub + 1)
    states = [
        mode_field(grid, 0, a * np.exp(-1j * mu * abs(a) ** 2 * t)) for t in times
    ]
    return trajectory_of(states, 0.0, tau)


def flow_trajectory(w0, t_end, n_sub):
    states = [wave_flow(w0, t) for t in np.linspace(0.0, t_end, n_sub + 1)]
    return trajectory_of(states, 0.0, t_end)


def nls_step_error(traj, tau, mu):
    """The direct one-step error the NLS oracle represents: the trajectory's
    last state less one LRI step from its first."""
    return difference(traj.states[-1], run_nls(traj.states[0], tau, 1, mu)[-1])


def wave_step_error(traj, tau, nl):
    """The same for the wave oracle, with one corrected Lie step."""
    return difference(traj.states[-1], run_wave(traj.states[0], tau, 1, nl)[-1])


# --- trajectory container -------------------------------------------------------


def test_trajectory_needs_three_uniform_samples(grid16):
    f = zero_field(grid16)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), [f, f])
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.5, 0.7]), [f, f, f])
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.5, 1.0]), [f, f])
    for times in ([0.0, 0.0, 0.0], [1.0, 0.5, 0.0], [0.0, 1e-13, 0.0]):
        with pytest.raises(ValueError, match="time samples must increase"):
            Trajectory(np.array(times), [f, f, f])
    with pytest.raises(ValueError, match="time samples must increase"):
        trajectory_of([f, f, f], 0.0, 0.0)


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
        movers = [translate(left, t).coeffs, translate(right, -t).coeffs]
        product = convolution_project(movers, 64)
        assert np.allclose(q.coeffs, -4.0 * product, atol=1e-12)


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
    traj = trajectory_of([zero_field(grid16, is_real=False)] * 9, 0.0, tau)
    direct = nls_step_error(traj, tau, 1)
    integral = nls_local_error_oracle(traj, tau, 1, 4)
    assert sobolev_norm(direct, 0.0) == 0.0
    assert sobolev_norm(integral, 0.0) == 0.0


def test_nls_oracle_sides_agree_on_the_constant_solution():
    grid = TorusGrid(16)
    tau, a, mu = 2.0**-4, 0.8, 1
    traj = constant_nls_trajectory(grid, a, mu, tau, 128)
    direct = nls_step_error(traj, tau, mu)
    gaps = []
    for q in (8, 32):
        integral = nls_local_error_oracle(traj, tau, mu, q)
        scale = max(sobolev_norm(direct, 0.0), 1e-300)
        gaps.append(sobolev_norm(
            SpectralField(grid, direct.coeffs - integral.coeffs), 0.0) / scale)
    assert gaps[0] <= 1e-3
    assert gaps[1] <= gaps[0] / 8.0


def test_nls_oracle_discrepancy_shrinks_monotonically():
    grid = TorusGrid(16)
    tau, a, mu = 2.0**-4, 0.8, 1
    traj = constant_nls_trajectory(grid, a, mu, tau, 128)
    direct = nls_step_error(traj, tau, mu)
    gaps = []
    for q in (8, 16, 32, 64):
        integral = nls_local_error_oracle(traj, tau, mu, q)
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
    direct = nls_step_error(traj, tau, mu)
    gaps = []
    for q in (16, 64):
        integral = nls_local_error_oracle(traj, tau, mu, q)
        scale = max(sobolev_norm(direct, 0.0), 1e-300)
        gaps.append(sobolev_norm(
            SpectralField(grid, direct.coeffs - integral.coeffs), 0.0) / scale)
    assert gaps[0] <= 1e-3
    assert gaps[1] <= gaps[0] / 4.0


def strang_trajectory(n, tau, mu, n_out):
    """A Strang reference trajectory as ``local-error-check`` builds it."""
    datum = study_cli._datum("nls", TorusGrid(n), study_cli.smooth_data_spec(7, amplitude=0.5))
    run = study_cli._run_scheme("test", datum, "strang", mu, tau / (16 * n_out), tau, n_out)
    return trajectory_of([s for _, s in run], 0.0, tau)


@pytest.mark.parametrize("mu", [1, -1])
def test_nls_oracle_integral_matches_the_double_loop(mu):
    tau = 2.0**-6
    traj = strang_trajectory(32, tau, mu, 64)
    for q in (4, 16, 64):
        integral = nls_local_error_oracle(traj, tau, mu, q)
        nodes = [s.coeffs for s in traj.states[:: 64 // q]]
        expected = nls_local_error_double_loop(nodes, traj.grid.freqs, tau, mu)
        assert np.linalg.norm(expected) > 0.0
        gap = np.linalg.norm(integral.coeffs - expected) / np.linalg.norm(expected)
        assert gap <= 1e-14, (q, gap)


def test_nls_oracle_makes_a_linear_number_of_transforms(monkeypatch):
    calls = []

    class Counting(diagnostics.PaddedPair):
        def values(self, *rows):
            calls.append(len(rows))
            return super().values(*rows)

    monkeypatch.setattr(diagnostics, "PaddedPair", Counting)
    tau = 2.0**-6
    traj = strang_trajectory(32, tau, 1, 16)
    for q in (4, 16):
        calls.clear()
        nls_local_error_oracle(traj, tau, 1, q)
        # one call for u and u_x, one for the three pushed rows, per node;
        # the double loop made (q + 1) + q(q + 3)/2, 169 at q = 16
        assert len(calls) == 2 * (q + 1), q


# --- local error oracle, wave ------------------------------------------------------


def test_wave_oracle_vanishes_without_forcing():
    grid = TorusGrid(32)
    w0 = rough_wave_state_on(grid, 4, amplitude=0.4)
    tau = 2.0**-3
    traj = flow_trajectory(w0, tau, 64)
    direct = wave_step_error(traj, tau, ZERO)
    integral = wave_local_error_oracle(traj, tau, ZERO, 16)
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
    direct = wave_step_error(traj, tau, QUADRATIC)
    gaps = []
    for q in (8, 32):
        integral = wave_local_error_oracle(traj, tau, QUADRATIC, q)
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
    direct = wave_step_error(traj, tau, QUADRATIC)
    gaps = []
    for q in (16, 64):
        integral = wave_local_error_oracle(traj, tau, QUADRATIC, q)
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
    # Meta keys and values may hold several words, line breaks and any script.
    meta = {"scheme": "lri", "seed": 7, "two words": "a\nb\r", "ключ": " значение ✓ ", "empty": ""}
    traj = trajectory_of(states, 0.0, 0.5, **meta)
    path = tmp_path / "traj.npy"
    write_trajectory(traj, path)
    back = read_trajectory(path)
    assert not back.is_wave
    assert back.times.tobytes() == traj.times.tobytes()
    assert back.meta == {key: str(value) for key, value in meta.items()}
    for ours, theirs in zip(traj.states, back.states):
        assert np.array_equal(ours.coeffs, theirs.coeffs)

    # The file keeps the times themselves: t0 + dt * arange(38) would end
    # at 0.30000000000000004.
    write_trajectory(trajectory_of([zero_field(grid)] * 38, 0.0, 0.3), path)
    assert read_trajectory(path).times[-1] == 0.3

    path.write_bytes(path.read_bytes() + b"\n")
    with pytest.raises(ValueError, match=r"traj\.npy: 1 bytes follow the four arrays"):
        read_trajectory(path)
    for times, error in [
        ([0.0, 0.5, 0.25, 0.75, 1.0], "time samples must increase"),
        ([0.0, 0.25, 0.5, 0.75, 1.5], "time samples must be uniformly spaced"),
        ([0.0, 0.25, 0.5], "do not make a trajectory"),
        ([[0.0, 0.25, 0.5, 0.75, 1.0]], "do not make a trajectory"),
    ]:
        save_trajectory_arrays(path, np.zeros((5, 16)), [False] * 5, times)
        with pytest.raises(ValueError, match=rf"traj\.npy: .*{error}"):
            read_trajectory(path)


def test_wave_trajectory_file_round_trip(tmp_path):
    grid = TorusGrid(16)
    w0 = rough_wave_state_on(grid, 9, amplitude=0.3)
    states = run_wave(w0, 2.0**-5, 8, QUADRATIC, record_every=2)
    traj = trajectory_of(states, 0.0, 0.25, nonlinearity="quadratic")
    path = tmp_path / "wave_traj.npy"
    write_trajectory(traj, path)
    back = read_trajectory(path)
    assert back.is_wave
    assert back.times.tobytes() == traj.times.tobytes()
    assert back.meta == {"nonlinearity": "quadratic"}
    for ours, theirs in zip(traj.states, back.states):
        assert np.array_equal(ours.u.coeffs, theirs.u.coeffs)
        assert np.array_equal(ours.v.coeffs, theirs.v.coeffs)

    data = path.read_bytes()
    path.write_bytes(data[:200])
    with pytest.raises(ValueError, match=r"wave_traj\.npy: "):
        read_trajectory(path)


# numpy drops a str's trailing NULs, an empty key names nothing, and keys that are
# the same as str would read back as one.
@pytest.mark.parametrize(
    "meta", [{"": 1}, {"note": "a\0b"}, {"note": "trailing\0"}, {"a\0b": 1}, {1: "a", "1": "b"}]
)
def test_write_trajectory_refuses_meta_it_cannot_read_back(tmp_path, meta):
    traj = Trajectory(np.arange(3.0), [zero_field(TorusGrid(16))] * 3, meta)
    path = tmp_path / "traj.npy"
    with pytest.raises(ValueError, match="cannot be written"):
        write_trajectory(traj, path)
    assert not path.exists()


def test_read_trajectory_rejects_other_files(tmp_path):
    path = tmp_path / "not_a_traj.txt"
    path.write_text("something else\n")
    with pytest.raises(ValueError):
        read_trajectory(path)


def _written_bytes(traj) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/traj.npy"
        write_trajectory(traj, path)
        with open(path, "rb") as fh:
            return fh.read()


@functools.cache
def _valid_files() -> list[tuple[bytes, list[tuple[int, int, int]]]]:
    """Field and wave files, each with the (start, header end, data end) of its
    four arrays."""
    grid = TorusGrid(8)
    w = rough_wave_state_on(grid, 3, amplitude=0.3)
    u = random_rough_field(RoughDataSpec(theta=1.0, seed=4, amplitude=0.3), grid)
    files = []
    for traj in (trajectory_of([w.u, w.v, w.u], 0.0, 1.0, seed=3),
                 trajectory_of([u, u, u], 0.0, 1.0, scheme="lri"),
                 trajectory_of([w, w, w], 0.0, 1.0, note="zwei Wörter")):
        data = _written_bytes(traj)
        fh, spans = io.BytesIO(data), []
        for _ in range(4):
            start = fh.tell()
            np.load(fh)
            spans.append((start, start + 10 + int.from_bytes(data[start + 8:start + 10],
                                                              "little"), fh.tell()))
        files.append((data, spans))
    return files


_DESCRS = st.sampled_from(["<f8", "|b1", "<c16", "<U3", "<U0", "<U99999999", "|O", "<i8",
                           ">c16", "<f4", "V16", "", "'"])
_DIMS = st.lists(st.sampled_from([-1, 0, 1, 2, 3, 5, 8, 9, 10**15, 2**64]), max_size=3)
_HEADERS = st.one_of(
    st.builds("{{'descr': '{}', 'fortran_order': {}, 'shape': ({}), }}".format, _DESCRS,
              st.sampled_from(["False", "True", "0"]),
              _DIMS.map(lambda d: ", ".join(map(str, d)) + ("," if len(d) == 1 else ""))),
    st.text(st.sampled_from("{}()[]'\":, 0123456789abdefhioprstU<|#\\\n\0é"), max_size=60),
)


def _flipped(data: bytes, at: int, mask: int) -> bytes:
    damaged = bytearray(data)
    damaged[at] ^= mask
    return bytes(damaged)


def _forged(data: bytes, start: int, header_end: int, header: str, length=None) -> bytes:
    """``data`` with the header of the array at ``start`` replaced, its
    length field given or true."""
    raw = header.encode("utf-8")
    length = len(raw) if length is None else length
    return data[:start + 8] + length.to_bytes(2, "little") + raw + data[header_end:]


@st.composite
def _damaged_files(draw):
    """A valid file cut at any offset, with one byte flipped, or with one
    array's header replaced."""
    data, spans = draw(st.sampled_from(_valid_files()))
    how = draw(st.sampled_from(["truncate", "flip", "forge"]))
    if how == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    start, header_end, end = draw(st.sampled_from(spans))
    if how == "flip":  # in the array's header or, as often, in its data
        at = draw(st.one_of(st.integers(start, header_end - 1), st.integers(header_end, end - 1)))
        return _flipped(data, at, draw(st.integers(1, 255)))
    header = draw(_HEADERS)
    if draw(st.booleans()):  # padded as np.save pads, to the old length
        header = header.ljust(header_end - start - 11) + "\n"
    return _forged(data, start, header_end, header,
                   draw(st.one_of(st.none(), st.integers(0, 2**16 - 1))))


def _known_escapes() -> list[bytes]:
    """Damage that lets other errors out of a reader built on np.load alone:
    a header numpy's own parser fails to tokenize (tokenize.TokenError), and a
    meta character past U+10FFFF (SystemError)."""
    data, spans = _valid_files()[0]
    start, header_end, _ = spans[0]
    unclosed = "{'descr': '<f8', 'fortran_order': False, 'shape': (3,), ("
    return [_forged(data, start, header_end, unclosed), _flipped(data, len(data) - 1, 1)]


@settings(max_examples=400)
@given(data=_damaged_files())
@example(data=_known_escapes()[0])
@example(data=_known_escapes()[1])
def test_reader_raises_only_value_errors_on_damaged_files(data):
    """The reader either reads the file or raises a ValueError naming it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/damaged.npy"
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            read_trajectory(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")

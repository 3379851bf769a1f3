import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from conftest import hermitian_coeffs, real_state, rough_wave_state_on, seeds, state_gap
from lowreg import (
    BlowUpError,
    Nonlinearity,
    SpectralField,
    TorusGrid,
    WaveProblem,
    WaveState,
    a_apply,
    b_map,
    derivative,
    to_physical,
    h_map,
    phi2_apply,
    phi2_entry_q,
    phi2_entry_r,
    run_wave,
    wave_flow,
    wave_reference_solve,
    wave_state_norm,
    zero_field,
)
from lowreg.torus_spectral import half_spectrum, sin_over
from lowreg.wave_integrators import _WaveWork, _flow_table, _phi2_table
from oracles import (
    corrected_lie_zero_mode,
    full_spectrum_wave_steps,
    lie_zero_mode,
    matexp_series,
    phi2_block_quadrature,
    phi2_zero_mode_rectangle,
    scalar_second_order_ode,
    two_array_wave_steps,
)

QUADRATIC = Nonlinearity.preset("quadratic")
SINE = Nonlinearity.preset("sine")
ZERO = Nonlinearity.preset("zero")


def constant_state(grid, c, d):
    cu = np.zeros(grid.n_modes, dtype=np.complex128)
    cv = np.zeros(grid.n_modes, dtype=np.complex128)
    cu[0], cv[0] = c, d
    return WaveState(
        SpectralField(grid, cu, is_real=True), SpectralField(grid, cv, is_real=True)
    )


def blocks_of(op, grid):
    """Per-mode 2x2 blocks of a diagonal-in-k pair operator, one column at a
    time: all tables here are even in k, so all-ones input stays Hermitian."""
    ones = SpectralField(grid, np.ones(grid.n_modes, dtype=np.complex128), is_real=True)
    zero = zero_field(grid)
    left = op(WaveState(ones, zero))
    right = op(WaveState(zero, ones))
    return left.u.coeffs, right.u.coeffs, left.v.coeffs, right.v.coeffs


# --- free wave flow ----------------------------------------------------------


def test_flow_quarter_period_block_matches_series_oracle():
    grid = TorusGrid(16)
    t = np.pi / 2
    a11, a12, a21, a22 = blocks_of(lambda w: wave_flow(w, t), grid)
    generator = np.array([[0.0, 1.0], [-1.0, 0.0]])
    oracle = matexp_series(t * generator)
    assert np.allclose(oracle, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)
    got = np.array([[a11[1], a12[1]], [a21[1], a22[1]]])
    assert np.allclose(got.real, oracle, atol=1e-12)
    assert np.allclose(got.imag, 0.0, atol=1e-15)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 17, 64])
@pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, np.pi / 2])
def test_flow_blocks_match_matrix_exponential(k, t):
    # Certifies the closed rotation form used by the phi2 quadrature oracle.
    grid = TorusGrid(256)
    a11, a12, a21, a22 = blocks_of(lambda w: wave_flow(w, t), grid)
    block = np.array([[a11[k], a12[k]], [a21[k], a22[k]]]).real
    generator = np.array([[0.0, 1.0], [-float(k) ** 2, 0.0]])
    reference = scipy.linalg.expm(t * generator)
    scale = np.diag([1.0, max(k, 1.0)])
    gap = np.linalg.norm(
        np.linalg.solve(scale, block @ scale) - np.linalg.solve(scale, reference @ scale)
    )
    assert gap <= 1e-10, (k, t, gap)
    if k * t < 2.0:
        assert np.allclose(block, matexp_series(t * generator), atol=1e-12)


def test_flow_zero_mode_is_a_shear():
    grid = TorusGrid(16)
    a11, a12, a21, a22 = blocks_of(lambda w: wave_flow(w, 0.7), grid)
    assert (a11[0], a12[0], a21[0], a22[0]) == (1.0, 0.7, 0.0, 1.0)


def test_flow_at_time_zero_is_identity(grid16):
    w = rough_wave_state_on(grid16, 3)
    out = wave_flow(w, 0.0)
    assert np.allclose(out.u.coeffs, w.u.coeffs, atol=1e-15)
    assert np.allclose(out.v.coeffs, w.v.coeffs, atol=1e-15)


@given(seeds(), st.floats(-4.0, 4.0, allow_nan=False))
def test_flow_conserves_per_mode_energy(seed, t):
    w = rough_wave_state_on(TorusGrid(64), seed)
    out = wave_flow(w, t)
    k2 = w.grid.freqs.astype(np.float64) ** 2
    before = k2 * np.abs(w.u.coeffs) ** 2 + np.abs(w.v.coeffs) ** 2
    after = k2 * np.abs(out.u.coeffs) ** 2 + np.abs(out.v.coeffs) ** 2
    assert np.allclose(after, before, rtol=1e-12, atol=0.0)


@given(seeds(), st.floats(-2.0, 2.0, allow_nan=False), st.floats(-2.0, 2.0, allow_nan=False))
def test_flow_group_law(seed, s, t):
    w = rough_wave_state_on(TorusGrid(64), seed)
    one = wave_flow(wave_flow(w, s), t)
    both = wave_flow(w, s + t)
    assert state_gap(one, both) <= 1e-12 * max(wave_state_norm(w), 1.0)


# t = 0 and 1e-6 put every |kt| below 1e-4, on the sin_over series; 2^-14
# does so for the lowest modes only; k = 0 takes it at every t.
@pytest.mark.parametrize("t", [0.0, 1e-6, 2.0**-14, 1.3, 2 * np.pi * 7 / 1024])
def test_flow_table_takes_one_sine_bit_for_bit(t):
    grid = TorusGrid(256)
    k = grid.freqs[: grid.nyquist_index + 1].astype(np.float64)
    kt = k * t
    diag, off = _flow_table(grid, t)
    assert diag.tobytes() == np.cos(kt).tobytes()
    assert off[0].tobytes() == (t * sin_over(kt)).tobytes()
    assert off[1].tobytes() == (-k * np.sin(kt)).tobytes()


# --- phi2 --------------------------------------------------------------------


def test_phi2_zero_mode_block():
    grid = TorusGrid(16)
    tau = 0.1
    a11, a12, a21, a22 = blocks_of(lambda w: phi2_apply(w, tau), grid)
    assert np.allclose(
        [a11[0], a12[0], a21[0], a22[0]], [0.5, -tau / 3.0, 0.0, 0.5], atol=1e-15
    )
    oracle = phi2_zero_mode_rectangle(tau)
    got = np.array([[a11[0], a12[0]], [a21[0], a22[0]]]).real
    assert np.allclose(got, oracle, atol=1e-7)


@pytest.mark.parametrize("tau", [1e-3, 1e-1, 1.0])
def test_phi2_blocks_match_quadrature_oracle(tau):
    grid = TorusGrid(256)
    a11, a12, a21, a22 = blocks_of(lambda w: phi2_apply(w, tau), grid)
    for k in range(65):
        got = np.array([[a11[k], a12[k]], [a21[k], a22[k]]]).real
        oracle = phi2_block_quadrature(tau, k)
        assert np.max(np.abs(got - oracle)) <= 1e-9, (k, tau)


def test_phi2_entry_branches_agree_at_the_switchover():
    y = np.array([-0.048, -0.04, -0.032, 0.032, 0.04, 0.048])
    for entry in (phi2_entry_r, phi2_entry_q):
        series = entry(y, branch="series")
        closed = entry(y, branch="closed")
        assert np.max(np.abs(series - closed)) <= 1e-10


def test_phi2_entry_limits_at_zero():
    assert phi2_entry_r(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-15)
    assert phi2_entry_q(np.array([0.0]))[0] == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_phi2_apply_rejects_nonpositive_tau(grid16):
    w = rough_wave_state_on(grid16, 1)
    with pytest.raises(ValueError):
        phi2_apply(w, 0.0)


# --- nonlinearity bundles ------------------------------------------------------


def test_preset_catalogue():
    assert QUADRATIC.tag == "quadratic"
    assert Nonlinearity.preset("cubic_minus").g(np.array([1.5]))[0] == -3.375
    assert ZERO.g(np.array([2.0]))[0] == 0.0
    with pytest.raises(ValueError):
        Nonlinearity.preset("cosh")


@pytest.mark.parametrize("name", ["quadratic", "cubic_minus", "sine"])
def test_preset_derivatives_match_finite_differences(name):
    nl = Nonlinearity.preset(name)
    z = np.linspace(-2.0, 2.0, 41)
    h = 1e-5
    d1 = (nl.g(z + h) - nl.g(z - h)) / (2.0 * h)
    d2 = (nl.g1(z + h) - nl.g1(z - h)) / (2.0 * h)
    assert np.max(np.abs(nl.g1(z) - d1)) <= 1e-7
    assert np.max(np.abs(nl.g2(z) - d2)) <= 1e-7


# --- the composed vector fields -------------------------------------------------


def test_a_apply_swaps_and_differentiates(grid16):
    w = real_state(grid16, np.cos, lambda x: np.sin(2.0 * x))
    out = a_apply(w)
    assert np.allclose(out.u.coeffs, w.v.coeffs, atol=1e-15)
    assert np.allclose(out.v.coeffs, -from_cos_coeffs(grid16), atol=1e-14)


def from_cos_coeffs(grid):
    c = np.zeros(grid.n_modes, dtype=np.complex128)
    c[1] = c[-1] = 0.5
    return c


def test_h_map_examples(grid16):
    out = h_map(constant_state(grid16, 0.5, -0.3), QUADRATIC)
    assert out.u.coeffs[0] == pytest.approx(-0.25, abs=1e-14)
    assert out.v.coeffs[0] == pytest.approx(-0.3, abs=1e-14)

    still = h_map(constant_state(grid16, 0.3, 0.0), SINE)
    assert still.u.coeffs[0] == pytest.approx(-np.sin(0.3), abs=1e-14)
    assert np.allclose(still.v.coeffs, 0.0, atol=1e-15)

    swing = h_map(real_state(grid16, lambda x: 0.0 * x, np.cos), SINE)
    assert np.allclose(swing.u.coeffs, 0.0, atol=1e-15)
    assert np.allclose(to_physical(swing.v), np.cos(grid16.points), atol=1e-13)


def test_b_map_examples(grid16):
    x = grid16.points
    out = b_map(real_state(grid16, np.sin, lambda t: 0.0 * t), QUADRATIC)
    assert np.allclose(out.u.coeffs, 0.0, atol=1e-15)
    expected = -2.0 * np.cos(x) ** 2 + 2.0 * np.sin(x) ** 3
    assert np.allclose(to_physical(out.v), expected, atol=1e-13)

    const = b_map(constant_state(grid16, 0.5, -0.3), QUADRATIC)
    assert const.v.coeffs[0] == pytest.approx(2.0 * 0.09 + 2.0 * 0.125, abs=1e-14)


def test_b_map_drops_its_second_order_term_along_null_directions(grid16):
    # With v = u_x the factor v^2 - u_x^2 vanishes, leaving g'(u) g(u).
    u = real_state(grid16, np.cos, lambda x: 0.0 * x).u
    w = WaveState(u, derivative(u, 1))
    out = b_map(w, QUADRATIC)
    assert np.allclose(
        to_physical(out.v), 2.0 * np.cos(grid16.points) ** 3, atol=1e-12
    )


# --- single steps ----------------------------------------------------------------


def test_corrected_step_on_constant_data():
    grid = TorusGrid(16)
    out = run_wave(constant_state(grid, 1.0, 0.0), 0.1, 1, QUADRATIC)[-1]
    assert out.u.coeffs[0] == pytest.approx(1.005, abs=1e-15)
    assert out.v.coeffs[0] == pytest.approx(0.1, abs=1e-15)
    assert np.allclose(np.delete(out.u.coeffs, 0), 0.0)

    oracle = corrected_lie_zero_mode(1.0, 0.0, 0.1, QUADRATIC.g, QUADRATIC.g1)
    assert (out.u.coeffs[0].real, out.v.coeffs[0].real) == pytest.approx(
        oracle, abs=1e-15
    )


def test_lie_step_on_constant_data():
    grid = TorusGrid(16)
    out = run_wave(constant_state(grid, 1.0, 0.0), 0.1, 1, QUADRATIC, corrected=False)[-1]
    assert out.u.coeffs[0] == pytest.approx(1.01, abs=1e-15)
    assert out.v.coeffs[0] == pytest.approx(0.1, abs=1e-15)
    assert (out.u.coeffs[0].real, out.v.coeffs[0].real) == pytest.approx(
        lie_zero_mode(1.0, 0.0, 0.1, QUADRATIC.g), abs=1e-15
    )


def test_zero_data_is_a_fixed_point(grid16):
    w = constant_state(grid16, 0.0, 0.0)
    for nl in (QUADRATIC, SINE):
        out = run_wave(w, 0.2, 1, nl)[-1]
        assert wave_state_norm(out) == 0.0


@pytest.mark.parametrize("corrected", [True, False],
                         ids=["corrected_lie", "lie_step_wave"])
def test_steps_are_exact_without_forcing(corrected):
    grid = TorusGrid(32)
    w = rough_wave_state_on(grid, 8)
    out = run_wave(w, 0.3, 1, ZERO, corrected=corrected)[-1]
    assert state_gap(out, wave_flow(w, 0.3)) <= 1e-12 * wave_state_norm(w)


@given(seeds(), st.sampled_from(["quadratic", "sine"]))
def test_steps_keep_states_real(seed, name):
    w = rough_wave_state_on(TorusGrid(32), seed, amplitude=0.3)
    nl = Nonlinearity.preset(name)
    for corrected in (True, False):
        out = run_wave(w, 0.05, 1, nl, corrected=corrected)[-1]
        assert out.u.is_real and out.v.is_real


def test_corrected_step_beats_tau_cubed_against_the_scalar_ode():
    grid = TorusGrid(8)
    for tau in (0.1, 0.05, 0.025):
        exact = scalar_second_order_ode(QUADRATIC.g, 1.0, 0.0, [0.0, tau])[-1]
        out = run_wave(constant_state(grid, 1.0, 0.0), tau, 1, QUADRATIC)[-1]
        gap = abs(out.u.coeffs[0] - exact[0]) + abs(out.v.coeffs[0] - exact[1])
        assert gap <= 5.0 * tau**3, (tau, gap)


def test_step_rejects_non_finite_input(grid16):
    c = np.full(16, np.nan + 0j)
    bad = WaveState(
        SpectralField(grid16, c, is_real=True),
        zero_field(grid16),
    )
    with pytest.raises(BlowUpError):
        run_wave(bad, 0.1, 1, QUADRATIC)


# --- multi-step driver -------------------------------------------------------------


def test_run_wave_snapshot_layout(grid16):
    w = rough_wave_state_on(grid16, 5, amplitude=0.2)
    states = run_wave(w, 0.01, 6, QUADRATIC, record_every=3)
    assert len(states) == 3
    assert state_gap(states[0], w) == 0.0
    terminal = run_wave(w, 0.01, 6, QUADRATIC)
    assert len(terminal) == 1
    assert state_gap(terminal[0], states[-1]) <= 1e-14


def test_recorded_wave_states_hold_one_half_spectrum_pair_each():
    # A kept state stores its stacked (2, N/2 + 1) half-spectra alone, not two
    # full N-point spectra, which would take about 2 * K * N * 16 bytes here.
    n, count = 512, 256
    w = rough_wave_state_on(TorusGrid(n), 3, amplitude=0.3)
    run_wave(w, 2.0**-10, 4, QUADRATIC, record_every=1)  # warm the transform caches
    tracemalloc.start()
    try:
        states = run_wave(w, 2.0**-10, count - 1, QUADRATIC, record_every=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(states) == count
    assert peak < 1.2 * count * 2 * (n // 2 + 1) * 16


@pytest.mark.parametrize("n", [16, 128, 1024])
@pytest.mark.parametrize("name", ["quadratic", "cubic_minus", "sine"])
@pytest.mark.parametrize("corrected", [True, False])
def test_run_wave_matches_the_full_spectrum_oracle(n, name, corrected):
    grid = TorusGrid(n)
    nl = Nonlinearity.preset(name)
    w = rough_wave_state_on(grid, 3)
    tau = 2.0**-6
    got = run_wave(w, tau, 50, nl, corrected=corrected)[-1]
    uc, vc = full_spectrum_wave_steps(
        w.u.coeffs, w.v.coeffs, grid.freqs, tau, nl.g, nl.g1, corrected, 50
    )
    expected = WaveState(SpectralField(grid, uc, True), SpectralField(grid, vc, True))
    assert state_gap(got, expected) <= 1e-13 * wave_state_norm(expected)


@pytest.mark.parametrize("n", [16, 128, 1024])
@pytest.mark.parametrize("name", ["quadratic", "cubic_minus", "sine"])
@pytest.mark.parametrize("corrected", [True, False])
def test_run_wave_matches_two_array_steps_bit_for_bit(n, name, corrected):
    grid = TorusGrid(n)
    nl = Nonlinearity.preset(name)
    w = rough_wave_state_on(grid, 3)
    # Not a power of two, so that every product with tau rounds.
    tau = 0.015
    states = run_wave(w, tau, 50, nl, corrected=corrected, record_every=1)
    flow_diag, flow_off = _flow_table(grid, tau)
    phi2_diag, phi2_off = _phi2_table(grid, tau)
    expected = two_array_wave_steps(
        half_spectrum(w.u.coeffs),
        half_spectrum(w.v.coeffs),
        (flow_diag, *flow_off),
        (phi2_diag, *phi2_off),
        tau, nl.g, nl.g1, corrected, 50,
    )
    assert len(states) == len(expected) == 51
    for got, (uh, vh) in zip(states, expected):
        assert np.array_equal(half_spectrum(got.u.coeffs), uh)
        assert np.array_equal(half_spectrum(got.v.coeffs), vh)


@pytest.mark.parametrize("n", [8, 16, 64])
@given(data=st.data())
def test_half_spectrum_guard_size_is_the_state_norm(n, data):
    grid = TorusGrid(n)
    u = SpectralField(grid, data.draw(hermitian_coeffs(n)), True)
    v = SpectralField(grid, data.draw(hermitian_coeffs(n)), True)
    work = _WaveWork(grid, 0.1, QUADRATIC, True)
    size = work.size(np.stack([half_spectrum(u.coeffs), half_spectrum(v.coeffs)]))
    expected = wave_state_norm(WaveState(u, v))
    assert abs(size - expected) <= 1e-13 * expected


def test_zero_mode_trajectory_matches_the_scalar_ode():
    grid = TorusGrid(8)
    w = constant_state(grid, 0.3, 0.1)
    out = run_wave(w, 1e-4, 10_000, QUADRATIC)[-1]
    exact = scalar_second_order_ode(QUADRATIC.g, 0.3, 0.1, [0.0, 1.0])[-1]
    gap = abs(out.u.coeffs[0] - exact[0]) + abs(out.v.coeffs[0] - exact[1])
    assert gap <= 1e-8


def test_reference_solve_reproduces_the_linear_standing_wave():
    grid = TorusGrid(16)
    w0 = real_state(grid, np.sin, lambda x: 0.0 * x)
    problem = WaveProblem(ZERO, w0, 1.0)
    states = wave_reference_solve(problem, 4, 1e-3)
    assert len(states) == 5
    for j, state in enumerate(states):
        t = 0.25 * j
        expected = real_state(
            grid,
            lambda x: np.sin(x) * np.cos(t),
            lambda x: -np.sin(x) * np.sin(t),
        )
        assert state_gap(state, expected) <= 1e-12


def test_reference_solve_validations(grid16):
    w = rough_wave_state_on(grid16, 2)
    problem = WaveProblem(QUADRATIC, w, 1.0)
    with pytest.raises(ValueError):
        wave_reference_solve(problem, 3, 1e-1)
    with pytest.raises(ValueError, match="n_out must be >= 1"):
        wave_reference_solve(problem, 0, 1e-3)
    degenerate = wave_reference_solve(WaveProblem(QUADRATIC, w, 0.0), 4, 1e-3)
    assert len(degenerate) == 1
    with pytest.raises(ValueError):
        WaveProblem(QUADRATIC, w, -1.0)


# --- convergence orders ---------------------------------------------------------


@pytest.mark.parametrize("name", ["quadratic", "sine"])
def test_corrected_local_error_is_third_order_on_smooth_data(name):
    grid = TorusGrid(64)
    w0 = rough_wave_state_on(grid, 7, theta=5.49, amplitude=0.5)
    nl = Nonlinearity.preset(name)
    taus = [2.0**-e for e in range(4, 10)]
    errs = []
    for tau in taus:
        ref = run_wave(w0, tau / 512, 512, nl)[-1]
        errs.append(state_gap(run_wave(w0, tau, 1, nl)[-1], ref))
    slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
    assert 2.8 <= slope <= 3.2, (slope, errs)


def test_plain_lie_local_error_is_only_second_order_on_smooth_data():
    grid = TorusGrid(64)
    w0 = rough_wave_state_on(grid, 7, theta=5.49, amplitude=0.5)
    taus = [2.0**-e for e in range(4, 10)]
    errs = []
    for tau in taus:
        ref = run_wave(w0, tau / 512, 512, QUADRATIC)[-1]
        errs.append(state_gap(run_wave(w0, tau, 1, QUADRATIC, corrected=False)[-1], ref))
    slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2, (slope, errs)

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import mode_field, rough_field_on, seeds
from lowreg import (
    BlowUpError,
    NlsProblem,
    NlsStepperKind,
    RoughDataSpec,
    SpectralField,
    TorusGrid,
    free_flow,
    nls_reference_solve,
    phi1_apply,
    phi1_of_ix,
    random_rough_field,
    run_nls,
    sobolev_norm,
    zero_field,
)
from oracles import (
    convolution_project,
    nls_plane_wave_coefficient,
    phi1_multiplier_quadrature,
    phi1_multiplier_rectangle,
    plain_nls_steps,
)

# One Lie splitting step is a one-step run of the scheme.
LIE = NlsStepperKind.LIE_SPLITTING


def smooth_field(grid, seed, amplitude=0.5):
    spec = RoughDataSpec(theta=5.49, seed=seed, delta=0.01, real_valued=False,
                         amplitude=amplitude)
    return random_rough_field(spec, grid)


def multiplier_of(apply_fn, grid):
    """Extract a diagonal Fourier multiplier by applying it to all-ones."""
    ones = SpectralField(grid, np.ones(grid.n_modes, dtype=np.complex128))
    return apply_fn(ones).coeffs


# --- free flow ---------------------------------------------------------------


def test_free_flow_symbol_value(grid16):
    out = free_flow(mode_field(grid16, 2), np.pi / 4)
    assert out.coeffs[2] == pytest.approx(-1.0, abs=1e-14)


def test_free_flow_at_time_zero_is_identity(grid16):
    f = rough_field_on(grid16, 1)
    assert np.array_equal(free_flow(f, 0.0).coeffs, f.coeffs)


@given(seeds(), st.floats(-4.0, 4.0, allow_nan=False))
def test_free_flow_is_unitary(seed, t):
    f = rough_field_on(TorusGrid(64), seed)
    assert sobolev_norm(free_flow(f, t), 0.0) == pytest.approx(
        sobolev_norm(f, 0.0), rel=1e-13
    )


@given(seeds(), st.floats(-2.0, 2.0, allow_nan=False), st.floats(-2.0, 2.0, allow_nan=False))
def test_free_flow_group_law(seed, s, t):
    f = rough_field_on(TorusGrid(64), seed)
    one = free_flow(free_flow(f, s), t)
    both = free_flow(f, s + t)
    assert np.linalg.norm(one.coeffs - both.coeffs) <= 1e-12 * np.linalg.norm(f.coeffs)


# --- phi1 --------------------------------------------------------------------


def test_phi1_fixes_the_zero_mode(grid16):
    mult = multiplier_of(lambda f: phi1_apply(f, 0.3), grid16)
    assert mult[0] == pytest.approx(1.0, abs=1e-15)


def test_phi1_value_at_mode_one_tau_half_pi():
    grid = TorusGrid(16)
    mult = multiplier_of(lambda f: phi1_apply(f, np.pi / 2), grid)
    assert mult[1] == pytest.approx(2j / np.pi, abs=1e-12)
    # The midpoint-rule time average lands on the same value.
    assert phi1_multiplier_rectangle(np.pi / 2, 1) == pytest.approx(
        2j / np.pi, abs=1e-7
    )


def test_phi1_modulus_never_exceeds_one():
    x = np.linspace(-1e3, 1e3, 400_001)
    assert np.max(np.abs(phi1_of_ix(x))) <= 1.0 + 1e-12


@pytest.mark.parametrize("tau", [1e-3, 1e-1, 1.0])
def test_phi1_matches_quadrature_of_its_defining_average(tau):
    grid = TorusGrid(256)
    mult = multiplier_of(lambda f: phi1_apply(f, tau), grid)
    for k in range(65):
        oracle = phi1_multiplier_quadrature(tau, k)
        assert abs(mult[k] - oracle) <= 1e-10, (k, tau)


def test_phi1_branches_agree_at_the_switchover():
    x = np.array([-1.2e-4, -1e-4, -0.8e-4, 0.8e-4, 1e-4, 1.2e-4])
    series = phi1_of_ix(x, branch="series")
    closed = phi1_of_ix(x, branch="closed")
    assert np.max(np.abs(series - closed)) <= 1e-10


def test_phi1_apply_rejects_nonpositive_tau(grid16):
    with pytest.raises(ValueError):
        phi1_apply(zero_field(grid16), 0.0)


# --- one step of each scheme ---------------------------------------------------


def test_lri_one_step_on_constant_data(grid16):
    out = run_nls(mode_field(grid16, 0, 1.0), 0.1, 1, 1)[-1]
    assert out.coeffs[0] == pytest.approx(1.0 - 0.1j, abs=1e-15)
    assert np.allclose(np.delete(out.coeffs, 0), 0.0)


def test_lri_one_step_zero_input_and_zero_mu(grid16):
    assert np.all(run_nls(zero_field(grid16, is_real=False), 0.1, 1, 1)[-1].coeffs == 0.0)
    f = rough_field_on(grid16, 2)
    linear = run_nls(f, 0.1, 1, 0)[-1]
    assert np.allclose(linear.coeffs, free_flow(f, 0.1).coeffs, atol=1e-15)


def test_lri_one_step_on_plane_wave_matches_convolution_assembly():
    grid = TorusGrid(16)
    tau, mu = 0.05, 1
    u = mode_field(grid, 1)
    out = run_nls(u, tau, 1, mu)[-1]

    # Assemble the same update from exact coefficient convolutions: the cubic
    # term is u * u * (phi1-filtered conjugate), then the free flow.
    k2 = grid.freqs.astype(np.float64) ** 2
    phi1 = phi1_of_ix(2.0 * tau * k2)
    perm = (-np.arange(16)) % 16
    filtered = phi1 * np.conj(u.coeffs[perm])
    cubic = convolution_project([u.coeffs, u.coeffs, filtered], 16)
    expected = np.exp(-1j * tau * k2) * (u.coeffs - 1j * tau * mu * cubic)
    assert np.allclose(out.coeffs, expected, atol=1e-14)

    closed = np.exp(-1j * tau) * (1.0 - 1j * tau * mu * phi1_of_ix(2.0 * tau))
    assert out.coeffs[1] == pytest.approx(closed, abs=1e-14)


def test_lri_one_step_rejects_non_finite_input(grid16):
    c = np.zeros(16, dtype=np.complex128)
    c[3] = np.nan
    with pytest.raises(BlowUpError):
        run_nls(SpectralField(grid16, c), 0.1, 1, 1)


def test_lie_step_is_exact_on_constants(grid16):
    a = 0.7 - 0.2j
    out = run_nls(mode_field(grid16, 0, a), 0.3, 1, -1, LIE)[-1]
    assert out.coeffs[0] == pytest.approx(a * np.exp(0.3j * abs(a) ** 2), abs=1e-15)


def test_lie_step_zero_mu_is_free_flow(grid16):
    f = rough_field_on(grid16, 3)
    assert np.allclose(
        run_nls(f, 0.2, 1, 0, LIE)[-1].coeffs, free_flow(f, 0.2).coeffs, atol=1e-15
    )


def test_lie_step_preserves_mass_at_small_steps():
    grid = TorusGrid(256)
    f = rough_field_on(grid, 12, amplitude=0.25)
    before = sobolev_norm(f, 0.0)
    # Both substeps are isometries except for the dealias truncation of the
    # rotated field, whose mass loss scales linearly with tau.
    defects = [
        abs(sobolev_norm(run_nls(f, tau, 1, 1, LIE)[-1], 0.0) - before)
        for tau in (1e-4, 1e-5)
    ]
    assert defects[0] <= 1e-11 * before
    assert defects[1] <= 0.15 * defects[0]


# --- multi-step driver -----------------------------------------------------------


def test_run_nls_records_requested_snapshots(grid16):
    f = rough_field_on(grid16, 4, amplitude=0.2)
    states = run_nls(f, 0.01, 8, 1, record_every=2)
    assert len(states) == 5
    assert np.array_equal(states[0].coeffs, f.coeffs)
    terminal_only = run_nls(f, 0.01, 8, 1)
    assert len(terminal_only) == 1
    assert np.allclose(terminal_only[0].coeffs, states[-1].coeffs)


@pytest.mark.parametrize("kind", list(NlsStepperKind))
@pytest.mark.parametrize("n", [16, 128, 1024, 2048])
def test_run_nls_matches_plain_steps_bit_for_bit(n, kind):
    grid, tau, mu = TorusGrid(n), 2.0**-7, -1
    f = rough_field_on(grid, 11, amplitude=1.0)
    states = run_nls(f, tau, 50, mu, kind, record_every=1)
    expected = plain_nls_steps(
        f.coeffs,
        multiplier_of(lambda g: free_flow(g, tau), grid),
        multiplier_of(lambda g: phi1_apply(g, tau), grid),
        tau, mu, kind is NlsStepperKind.LOW_REGULARITY, 50,
    )
    assert len(states) == len(expected) == 51
    for got, want in zip(states, expected):
        assert np.array_equal(got.coeffs, want)


@pytest.mark.parametrize("kind", list(NlsStepperKind))
def test_recorded_snapshots_are_distinct_arrays(grid16, kind):
    f = rough_field_on(grid16, 12, amplitude=1.0)
    states = run_nls(f, 0.01, 6, 1, kind, record_every=1)
    assert len(states) == 7
    for i, a in enumerate(states):
        for b in states[i + 1:]:
            assert not np.shares_memory(a.coeffs, b.coeffs)
            assert not np.array_equal(a.coeffs, b.coeffs)


def test_reference_solve_tracks_the_plane_wave():
    grid = TorusGrid(16)
    a, k, mu = 0.1, 1, 1
    problem = NlsProblem(mu, mode_field(grid, k, a), 1.0)
    states = nls_reference_solve(problem, 10, 1e-4)
    assert len(states) == 11
    exact = np.zeros(16, dtype=np.complex128)
    exact[k] = nls_plane_wave_coefficient(a, k, mu, 1.0)
    err = np.linalg.norm(states[-1].coeffs - exact)
    assert err <= 1e-6


def test_reference_solve_degenerate_horizon(grid16):
    f = rough_field_on(grid16, 5)
    problem = NlsProblem(1, f, 0.0)
    states = nls_reference_solve(problem, 4, 1e-3)
    assert len(states) == 1
    assert np.array_equal(states[0].coeffs, f.coeffs)


def test_reference_solve_rejects_incompatible_steps(grid16):
    problem = NlsProblem(1, rough_field_on(grid16, 6), 1.0)
    with pytest.raises(ValueError):
        nls_reference_solve(problem, 3, 1e-1)
    with pytest.raises(ValueError, match="n_out must be >= 1"):
        nls_reference_solve(problem, 0, 1e-3)


def test_reference_solve_refuses_a_step_longer_than_the_horizon(grid16):
    # A snapshot spacing of 0.25 holds 2.5e-301 steps of 1e300, within the
    # divisibility tolerance of 0 steps: no step at all is refused too.
    problem = NlsProblem(1, rough_field_on(grid16, 6), 1.0)
    with pytest.raises(ValueError, match="takes no step"):
        nls_reference_solve(problem, 4, 1e300)


def test_reference_solve_conserves_mass():
    grid = TorusGrid(32)
    f = smooth_field(grid, 9, amplitude=0.1)
    problem = NlsProblem(1, f, 1.0)
    terminal = nls_reference_solve(problem, 4, 1e-4)[-1]
    assert sobolev_norm(terminal, 0.0) == pytest.approx(
        sobolev_norm(f, 0.0), rel=1e-8
    )


# --- convergence orders -----------------------------------------------------------


def test_local_error_is_second_order_on_smooth_data():
    grid = TorusGrid(64)
    u0 = smooth_field(grid, 7)
    taus = [2.0**-e for e in range(4, 10)]
    errs = []
    for tau in taus:
        ref = run_nls(u0, tau / 512, 512, 1)[-1]
        one = run_nls(u0, tau, 1, 1)[-1]
        errs.append(np.linalg.norm(ref.coeffs - one.coeffs))
    slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
    assert 1.9 <= slope <= 2.1, (slope, errs)


def test_global_error_is_first_order_on_smooth_data():
    grid = TorusGrid(32)
    u0 = smooth_field(grid, 11, amplitude=1.0)
    ref = run_nls(u0, 2.0**-14, 2**14, 1)[-1]
    taus = [2.0**-e for e in range(4, 10)]
    errs = []
    for tau in taus:
        out = run_nls(u0, tau, round(1.0 / tau), 1)[-1]
        errs.append(np.linalg.norm(out.coeffs - ref.coeffs))
    slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
    assert 0.95 <= slope <= 1.1, (slope, errs)

"""Time steppers for the cubic Schrödinger equation i*u_t + u_xx = mu*|u|^2*u.

Two one-step maps are provided: an exponential-type integrator whose
nonlinear term is filtered by a phi1 Fourier multiplier, and a classical
exponential Lie splitting; conjugated by half a free flow, the Lie run is
the Strang comparator of the study driver.  Both advance Fourier
coefficient vectors; nonlinear products are dealiased on a 2x grid.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from .torus_spectral import (
    PaddedPair,
    SpectralField,
    TorusGrid,
    _conj_perm,
    _require_finite,
    evolve,
    series_mask,
    sin_over,
    sobolev_norm,
    steps_for,
)

BLOWUP_FACTOR = 1e6


@dataclasses.dataclass(frozen=True)
class NlsProblem:
    """Initial value problem data: sign mu, initial field, final time."""

    mu: int
    u0: SpectralField
    t_end: float

    def __post_init__(self) -> None:
        if self.mu * self.mu != 1:
            raise ValueError("mu must be +1 or -1")
        # t_end == 0 is tolerated as the degenerate zero-step case.
        if self.t_end < 0:
            raise ValueError("t_end must be >= 0")


class NlsStepperKind(enum.Enum):
    LOW_REGULARITY = "lri"
    LIE_SPLITTING = "lie"


def phi1_of_ix(x: np.ndarray, branch: str | None = None) -> np.ndarray:
    """phi1(i*x) = (e^{ix} - 1)/(ix) for real x.

    The closed branch uses the cancellation-free product form
    e^{ix/2} * sin(x/2)/(x/2); below |x| < 1e-4 a 4-term Taylor polynomial
    takes over.  ``branch`` forces "series" or "closed" for switchover tests.
    """
    x = np.asarray(x, dtype=np.float64)
    use_series = series_mask(x, branch, 1e-4)
    z = 1j * x
    series = 1.0 + z / 2.0 + z * z / 6.0 + z * z * z / 24.0
    half = 0.5 * x
    closed = np.exp(1j * half) * sin_over(half)
    return np.where(use_series, series, closed)


def _free_multiplier(grid: TorusGrid, t: float) -> np.ndarray:
    k2 = grid.freqs.astype(np.float64) ** 2
    return np.exp(-1j * t * k2)


def _phi1_multiplier(grid: TorusGrid, tau: float) -> np.ndarray:
    k2 = grid.freqs.astype(np.float64) ** 2
    return phi1_of_ix(2.0 * tau * k2)


def free_flow(f: SpectralField, t: float) -> SpectralField:
    """Linear Schrödinger group: multiplies u_hat[k] by exp(-i*t*k^2)."""
    coeffs = f.coeffs * _free_multiplier(f.grid, t)
    return SpectralField(f.grid, coeffs, f.is_real and t == 0.0)


def phi1_apply(f: SpectralField, tau: float) -> SpectralField:
    """Averaged free flow: multiplies u_hat[k] by phi1(2i*tau*k^2)."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    return SpectralField(f.grid, f.coeffs * _phi1_multiplier(f.grid, tau), False)


class _Stepper:
    """Precomputed multiplier tables and one padded-transform workspace for
    repeated steps at fixed (grid, tau, mu)."""

    def __init__(self, grid: TorusGrid, tau: float, mu: float, kind: NlsStepperKind):
        if tau <= 0:
            raise ValueError("tau must be > 0")
        self.tau = tau
        self.mu = mu
        self.kind = kind
        self.free = _free_multiplier(grid, tau)
        self.phi1 = _phi1_multiplier(grid, tau)
        self.rev = _conj_perm(grid.n_modes)
        self.pair = PaddedPair(grid.n_modes, rows=2)

    def step(self, c: np.ndarray) -> np.ndarray:
        if self.kind is NlsStepperKind.LOW_REGULARITY:
            filtered = self.phi1 * np.conj(c[self.rev])
            u_phys, f_phys = self.pair.values(c, filtered)
            u_phys *= u_phys
            u_phys *= f_phys
            cubic = self.pair.coeffs(u_phys)
            return self.free * (c - 1j * self.tau * self.mu * cubic)
        (u_phys,) = self.pair.values(c)
        # cos(x) - i*sin(x) is exp(-i*x) bit for bit, without the complex exp.
        x = self.tau * self.mu * np.abs(u_phys) ** 2
        u_phys *= np.cos(x) - 1j * np.sin(x)
        return self.free * self.pair.coeffs(u_phys)


def _one_step(u_n: SpectralField, tau: float, mu: float, kind: NlsStepperKind) -> SpectralField:
    _require_finite(u_n.coeffs)
    stepper = _Stepper(u_n.grid, tau, mu, kind)
    return SpectralField(u_n.grid, stepper.step(u_n.coeffs), False)


def lri_step(u_n: SpectralField, tau: float, mu: float) -> SpectralField:
    """One step of the exponential-type integrator.

    u_{n+1} = exp(i*tau*dxx) * (u_n - i*tau*mu*(u_n)^2 * phi1_filtered(conj u_n)),
    with the cubic product dealiased and the conjugate taken in coefficient
    space.  ``mu = 0`` reduces the map to the free flow.
    """
    return _one_step(u_n, tau, mu, NlsStepperKind.LOW_REGULARITY)


def lie_step_nls(u_n: SpectralField, tau: float, mu: float) -> SpectralField:
    """One step of exponential Lie splitting.

    The nonlinear substep multiplies by the exact phase exp(-i*tau*mu*|u|^2)
    pointwise on the 2x grid (then truncates); the linear substep is the free
    flow.
    """
    return _one_step(u_n, tau, mu, NlsStepperKind.LIE_SPLITTING)


def run_nls(
    u0: SpectralField,
    tau: float,
    n_steps: int,
    mu: float,
    kind: NlsStepperKind = NlsStepperKind.LOW_REGULARITY,
    record_every: int | None = None,
    guard_factor: float = BLOWUP_FACTOR,
) -> list[SpectralField]:
    """Advance n_steps of size tau, recording every ``record_every`` steps.

    Returns the recorded snapshots (always including the initial state when
    recording, otherwise just the terminal state).  Raises ``BlowUpError``
    when a snapshot's H^1 norm exceeds ``guard_factor`` times the initial one
    or turns non-finite.
    """
    stepper = _Stepper(u0.grid, tau, mu, kind)
    # Each H^1 weight twice, for the real and the imaginary part of c.
    weights = np.repeat(1.0 + u0.grid.freqs.astype(np.float64) ** 2, 2)
    guard_sq = (guard_factor * max(sobolev_norm(u0, 1.0), 1e-300)) ** 2
    return evolve(
        (u0.coeffs,),
        lambda c: (stepper.step(c),),
        lambda c: float(weights @ np.square(c.view(np.float64))),
        guard_sq,
        n_steps,
        record_every,
        lambda c: SpectralField(u0.grid, c, False),
    )


def nls_reference_solve(
    problem: NlsProblem, n_out: int, tau_ref: float
) -> list[SpectralField]:
    """Fine-step trajectory with n_out+1 equispaced snapshots on [0, t_end].

    Uses the exponential-type integrator at step tau_ref; accept the result
    only after cross-validating against the Strang comparator (see the study
    driver).  tau_ref must divide the snapshot spacing t_end/n_out.
    """
    if n_out < 1:
        raise ValueError("n_out must be >= 1")
    if problem.t_end == 0:
        return [problem.u0]
    per = steps_for(problem.t_end / n_out, tau_ref)
    return run_nls(
        problem.u0,
        tau_ref,
        n_out * per,
        problem.mu,
        NlsStepperKind.LOW_REGULARITY,
        record_every=per,
    )

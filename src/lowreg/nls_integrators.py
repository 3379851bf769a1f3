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
    _solve,
    evolve,
    series_mask,
    sin_over,
)


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
    """Precomputed multiplier tables, one padded-transform workspace and the
    scratch of every step, allocated once for repeated steps at fixed
    (grid, tau, mu).

    The scratch is the filtered row, a real buffer on the 2N grid (|u|^2, the
    Lie phase argument, and the squares that ``size`` sums) and a complex
    phase buffer.  ``step`` writes each new state into one of two output
    arrays, never the one it was given, so the state it returns stays valid
    through the next step only; ``evolve`` copies every snapshot it keeps.
    """

    def __init__(self, grid: TorusGrid, tau: float, mu: float, kind: NlsStepperKind):
        if tau <= 0:
            raise ValueError("tau must be > 0")
        self.kind = kind
        # Formed as the step formulas read, left to right: 1j*tau*mu, tau*mu.
        self.scale = 1j * tau * mu
        self.phase_scale = tau * mu
        self.free = _free_multiplier(grid, tau)
        self.phi1 = _phi1_multiplier(grid, tau)
        n = grid.n_modes
        self.pair = PaddedPair(n, rows=2)
        # Each H^1 weight twice, for the real and the imaginary part of c.
        self.weights = np.repeat(1.0 + grid.freqs.astype(np.float64) ** 2, 2)
        self._filtered = np.empty(n, dtype=np.complex128)
        self._real = np.empty(2 * n)
        self._phase = np.empty(2 * n, dtype=np.complex128)
        self._outs = (np.empty(n, dtype=np.complex128), np.empty(n, dtype=np.complex128))

    def size(self, c: np.ndarray) -> float:
        """H^1 norm of a coefficient array, as ``sobolev_norm(f, 1.0)``."""
        return np.sqrt(self.weights @ np.square(c.view(np.float64), out=self._real))

    def step(self, c: np.ndarray) -> np.ndarray:
        out = self._outs[1] if c is self._outs[0] else self._outs[0]
        if self.kind is NlsStepperKind.LOW_REGULARITY:
            # phi1 * conj(c[-k]); the slot of -k is 0 for k = 0, else n - k.
            filtered = self._filtered
            filtered[0] = c[0].conjugate()
            np.conj(c[:0:-1], out=filtered[1:])
            np.multiply(self.phi1, filtered, out=filtered)
            u_phys, f_phys = self.pair.values(c, filtered)
            u_phys *= u_phys
            u_phys *= f_phys
            cubic = self.pair.coeffs(u_phys, out=out)
            # free * (c - 1j*tau*mu * cubic)
            np.multiply(self.scale, cubic, out=out)
            np.subtract(c, out, out=out)
            return np.multiply(self.free, out, out=out)
        (u_phys,) = self.pair.values(c)
        x = np.abs(u_phys, out=self._real)
        np.square(x, out=x)
        np.multiply(self.phase_scale, x, out=x)
        # The phase exp(-i*x) as cos(x) - 1j*sin(x), bit for bit and without
        # the complex exp: its imaginary part is 0.0 - sin(x), so a zero
        # argument gives +0.0, as the complex subtraction does.
        phase = self._phase
        np.cos(x, out=phase.real)
        np.sin(x, out=phase.imag)
        np.subtract(0.0, phase.imag, out=phase.imag)
        u_phys *= phase
        return np.multiply(self.free, self.pair.coeffs(u_phys, out=out), out=out)


def lri_step(u_n: SpectralField, tau: float, mu: float) -> SpectralField:
    """One step of the exponential-type integrator.

    u_{n+1} = exp(i*tau*dxx) * (u_n - i*tau*mu*(u_n)^2 * phi1_filtered(conj u_n)),
    with the cubic product dealiased and the conjugate taken in coefficient
    space.  ``mu = 0`` reduces the map to the free flow.
    """
    return run_nls(u_n, tau, 1, mu, NlsStepperKind.LOW_REGULARITY)[-1]


def lie_step_nls(u_n: SpectralField, tau: float, mu: float) -> SpectralField:
    """One step of exponential Lie splitting.

    The nonlinear substep multiplies by the exact phase exp(-i*tau*mu*|u|^2)
    pointwise on the 2x grid (then truncates); the linear substep is the free
    flow.
    """
    return run_nls(u_n, tau, 1, mu, NlsStepperKind.LIE_SPLITTING)[-1]


def run_nls(
    u0: SpectralField,
    tau: float,
    n_steps: int,
    mu: float,
    kind: NlsStepperKind = NlsStepperKind.LOW_REGULARITY,
    record_every: int | None = None,
) -> list[SpectralField]:
    """Advance n_steps of size tau, recording every ``record_every`` steps.

    Returns the recorded snapshots (always including the initial state when
    recording, otherwise just the terminal state).  Raises ``BlowUpError``
    when a state's H^1 norm exceeds ``BLOWUP_FACTOR`` times the initial one
    or turns non-finite.
    """
    stepper = _Stepper(u0.grid, tau, mu, kind)
    return evolve(u0.coeffs, stepper.step, stepper.size, n_steps, record_every,
                  lambda c: SpectralField(u0.grid, c, False))


def nls_reference_solve(
    problem: NlsProblem, n_out: int, tau_ref: float
) -> list[SpectralField]:
    """Fine-step trajectory with n_out+1 equispaced snapshots on [0, t_end].

    Uses the exponential-type integrator at step tau_ref; accept the result
    only after cross-validating against the Strang comparator (see the study
    driver).  tau_ref must divide the snapshot spacing t_end/n_out.
    """
    return _solve(run_nls, problem.u0, problem.t_end, n_out, tau_ref, problem.mu,
                  NlsStepperKind.LOW_REGULARITY)

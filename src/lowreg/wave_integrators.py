"""Time steppers for the semilinear wave equation u_tt - u_xx = g(u).

The equation is evolved in first-order form U = (u, v) with v = u_t and
generator A(u, v) = (v, u_xx), which acts on each Fourier mode as the 2x2
block [[0, 1], [-k^2, 0]].  Provided maps:

* ``wave_flow``       the group e^{tA} (per-mode rotation, shear at k = 0),
* ``phi2_apply``      the averaged backward flow (1/tau^2) * int_0^tau (tau-s) e^{-2sA} ds,
* ``h_map/b_map``  the nonlinear maps (-g(u), g'(u)v) and
  (0, g''(u)[v^2 - u_x^2] + g'(u)g(u)),
* ``corrected_lie_step``  Lie splitting plus the tau^2 phi2 correction, one
  step of ``run_wave``; ``corrected=False`` runs the plain Lie splitting.

The fields are real, so every map here works on real half-spectra
(k = 0..N/2, see ``torus_spectral.half_spectrum``), stacked as one
(2, N/2 + 1) array S with rows u and v: the array a ``WaveState`` stores,
read with ``_half_pair`` and wrapped with ``_full_pair``, with no full
spectrum formed on the way.  Each 2x2 block, of the flow or of
phi2, is one table (diag, off) over the N/2 + 1 slots that acts on the
stack as diag*S + off*S[::-1]; ``wave_flow``, ``phi2_apply``, the steppers
and ``diagnostics.wave_local_error_oracle`` all apply it so.  Products go
through the ``rfft``/``irfft`` padded pair, ``torus_spectral.RealPaddedPair``:
a corrected step makes one 2-row synthesis of (u, v) and one 2-row analysis
of (g(u), g'(u) v), a plain step one single-row call each way, and the
nonlinear maps one 3-row synthesis of (u, v, u_x), with the u_x row i*k
times the stored u row, and one analysis per map.  ``_wave_snapshots``, the
paused run that ``run_wave`` lists, steps the stored array of its initial
state and hands out each snapshot as a new ``WaveState``, a copy of the
stepper's array; its growth guard, like ``wave_state_norm``, weighs each
half-spectrum entry by the number of full coefficients it stands for.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable

import numpy as np

from .torus_spectral import (
    RealPaddedPair,
    TorusGrid,
    WaveState,
    _full_pair,
    _half_pair,
    _sobolev_weights,
    _solve,
    evolve,
    series_mask,
    sin_over,
)


@dataclasses.dataclass(frozen=True)
class Nonlinearity:
    """Scalar C^2 nonlinearity bundle: g and its first two derivatives."""

    g: Callable[[np.ndarray], np.ndarray]
    g1: Callable[[np.ndarray], np.ndarray]
    g2: Callable[[np.ndarray], np.ndarray]
    tag: str

    @staticmethod
    def preset(name: str) -> "Nonlinearity":
        try:
            return _PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown nonlinearity preset {name!r}; choose from {sorted(_PRESETS)}"
            ) from None


_PRESETS = {
    "quadratic": Nonlinearity(
        g=lambda z: z * z,
        g1=lambda z: 2.0 * z,
        g2=lambda z: 2.0 * np.ones_like(z),
        tag="quadratic",
    ),
    "cubic_minus": Nonlinearity(
        g=lambda z: -(z**3),
        g1=lambda z: -3.0 * z * z,
        g2=lambda z: -6.0 * z,
        tag="cubic_minus",
    ),
    "sine": Nonlinearity(
        g=np.sin,
        g1=np.cos,
        g2=lambda z: -np.sin(z),
        tag="sine",
    ),
    "zero": Nonlinearity(
        g=np.zeros_like,
        g1=np.zeros_like,
        g2=np.zeros_like,
        tag="zero",
    ),
}


@dataclasses.dataclass(frozen=True)
class WaveProblem:
    """Initial value problem data: nonlinearity, initial pair, final time."""

    nonlinearity: Nonlinearity
    initial: WaveState
    t_end: float

    def __post_init__(self) -> None:
        # t_end == 0 is tolerated as the degenerate zero-step case.
        if self.t_end < 0:
            raise ValueError("t_end must be >= 0")


def _flow_table(grid: TorusGrid, t: float):
    """e^{tA} per half-spectrum slot as tables (diag, off): diag = cos kt and
    off rows sin(kt)/k and -k sin kt; k = 0 gives the shear [[1, t], [0, 1]].
    The Nyquist slot holds k = -N/2, as ``grid.freqs`` does."""
    k = grid.freqs[: grid.nyquist_index + 1].astype(np.float64)
    kt = k * t
    sin_kt = np.sin(kt)
    return np.cos(kt), np.stack([t * sin_over(kt, sin_kt), -k * sin_kt])


def phi2_entry_r(y: np.ndarray, branch: str | None = None) -> np.ndarray:
    """(1 - cos y)/y^2 with value 1/2 at y = 0.

    Closed branch uses the cancellation-free form 2*sin^2(y/2)/y^2; a 4-term
    Taylor polynomial takes over below |y| < 0.04.
    """
    y = np.asarray(y, dtype=np.float64)
    use_series = series_mask(y, branch, 0.04)
    y2 = y * y
    series = 0.5 - y2 / 24.0 + y2 * y2 / 720.0 - y2 * y2 * y2 / 40320.0
    safe = np.where(use_series, 1.0, y)
    closed = 2.0 * np.sin(0.5 * safe) ** 2 / (safe * safe)
    return np.where(use_series, series, closed)


def phi2_entry_q(y: np.ndarray, branch: str | None = None) -> np.ndarray:
    """(y - sin y)/y^3 with value 1/6 at y = 0.

    The subtraction loses all significance for small |y|, so a 4-term Taylor
    polynomial takes over below |y| < 0.04; at that radius both branches are
    accurate to ~1e-12 relative.
    """
    y = np.asarray(y, dtype=np.float64)
    use_series = series_mask(y, branch, 0.04)
    y2 = y * y
    series = (
        1.0 / 6.0 - y2 / 120.0 + y2 * y2 / 5040.0 - y2 * y2 * y2 / 362880.0
    )
    safe = np.where(use_series, 1.0, y)
    closed = (safe - np.sin(safe)) / (safe**3)
    return np.where(use_series, series, closed)


def _phi2_table(grid: TorusGrid, tau: float):
    """The phi2 block per half-spectrum slot as tables (diag, off).

    With y = 2*k*tau the block is [[r(y), -2*tau*q(y)], [2*k^2*tau*q(y), r(y)]],
    which at k = 0 degenerates to [[1/2, -tau/3], [0, 1/2]].
    """
    k = grid.freqs[: grid.nyquist_index + 1].astype(np.float64)
    y = 2.0 * k * tau
    q = phi2_entry_q(y)
    return phi2_entry_r(y), np.stack([-2.0 * tau * q, 2.0 * k * k * tau * q])


def _apply_stacked(table, s: np.ndarray) -> np.ndarray:
    """A 2x2 block table (diag, off) applied to a stacked pair S of
    half-spectra: diag*S + off*S[::-1].  The tables are even in k, so on
    half-spectra they act exactly as the full tables act on Hermitian spectra."""
    diag, off = table
    return diag * s + off * s[::-1]


def wave_flow(w: WaveState, t: float) -> WaveState:
    """Linear wave group e^{tA} applied mode by mode."""
    return _full_pair(w.grid, _apply_stacked(_flow_table(w.grid, t), _half_pair(w)))


def phi2_apply(w: WaveState, tau: float) -> WaveState:
    """Weighted average of backward flows, applied mode by mode."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    return _full_pair(w.grid, _apply_stacked(_phi2_table(w.grid, tau), _half_pair(w)))


class _WaveWork:
    """Precomputed tables and a real padded-transform workspace for repeated
    wave steps at fixed (grid, tau, nl).

    ``step`` advances a stacked (2, N/2 + 1) array whose rows are the
    half-spectra of u and v (k = 0..N/2, see ``half_spectrum``).
    """

    def __init__(self, grid: TorusGrid, tau: float, nl: Nonlinearity, corrected: bool):
        if tau <= 0:
            raise ValueError("tau must be > 0")
        self.tau = tau
        self.nl = nl
        self.corrected = corrected
        self.flow = _flow_table(grid, tau)
        self.phi2 = _phi2_table(grid, tau)
        self.pair = RealPaddedPair(grid.n_modes, rows=2)
        # The weights of ``wave_state_norm``, doubled where an entry stands for
        # the +-k pair, each twice: for the real and the imaginary part.
        count = np.full(grid.nyquist_index + 1, 2.0)
        count[0] = count[-1] = 1.0
        self.weights = np.repeat(_norm_weights(grid) * count, 2, axis=1)

    def size(self, s: np.ndarray) -> float:
        """H^1 x L^2 size of a stacked half-spectrum pair, as ``wave_state_norm``."""
        u_h1_sq, v_l2_sq = np.vecdot(self.weights, np.square(s.view(np.float64)))
        return np.sqrt(u_h1_sq) + np.sqrt(v_l2_sq)

    def step(self, s: np.ndarray) -> np.ndarray:
        tau = self.tau
        # Rows u (and v) become g(u) (and g'(u) * v) in the workspace.
        values = self.pair.values(s[: 2 if self.corrected else 1])
        if self.corrected:
            values[1] *= self.nl.g1(values[0])
        values[0] = self.nl.g(values[0])
        f = self.pair.coeffs(values)
        a = s.copy()
        a[1] += tau * f[0]
        if self.corrected:
            np.negative(f[0], out=f[0])
            a += (tau * tau) * _apply_stacked(self.phi2, f)
        return _apply_stacked(self.flow, a)


def _nonlinear_coeffs(w: WaveState, *exprs) -> np.ndarray:
    """Stacked half-spectra of up to three pointwise expressions of (u, v, u_x)
    on the 2x grid, from one 3-row synthesis and one analysis of all the
    expressions on one real workspace."""
    h = w.grid.nyquist_index
    ik = 1j * w.grid.freqs[: h + 1].astype(np.complex128)
    ik[h] = 0.0  # as ``derivative`` zeroes the Nyquist mode
    s = _half_pair(w)
    pair = RealPaddedPair(w.grid.n_modes, rows=3)
    u, v, ux = pair.values(np.stack([s[0], s[1], ik * s[0]]))
    return pair.coeffs(np.stack([expr(u, v, ux) for expr in exprs]))


def a_apply(w: WaveState) -> WaveState:
    """The generator A(u, v) = (v, u_xx), applied in coefficient space."""
    k2 = w.grid.freqs[: w.grid.nyquist_index + 1].astype(np.float64) ** 2
    u, v = _half_pair(w)
    return _full_pair(w.grid, np.stack([v, -k2 * u]))


def h_map(w: WaveState, nl: Nonlinearity) -> WaveState:
    """(-g(u), g'(u) * v), evaluated pointwise on the 2x grid and truncated."""
    gu, g1v = _nonlinear_coeffs(
        w, lambda u, v, ux: nl.g(u), lambda u, v, ux: nl.g1(u) * v
    )
    return _full_pair(w.grid, np.stack([-gu, g1v]))


def b_map(w: WaveState, nl: Nonlinearity) -> WaveState:
    """(0, g''(u) * [v^2 - u_x^2] + g'(u) * g(u)), all products dealiased."""
    (b,) = _nonlinear_coeffs(
        w, lambda u, v, ux: nl.g2(u) * (v * v - ux * ux) + nl.g1(u) * nl.g(u)
    )
    return _full_pair(w.grid, np.stack([np.zeros_like(b), b]))


def corrected_lie_step(w_n: WaveState, tau: float, nl: Nonlinearity) -> WaveState:
    """One corrected Lie splitting step.

    U_{n+1} = e^{tau A} [U_n + tau*(0, g(u_n)) + tau^2 * phi2(-2 tau A)(-g(u_n), g'(u_n) v_n)].
    """
    return run_wave(w_n, tau, 1, nl, corrected=True)[-1]


@functools.cache
def _norm_weights(grid: TorusGrid) -> np.ndarray:
    """Weights of the squared moduli of a stored half pair in ``wave_state_norm``:
    (1+k^2) on the u row, 1 on the v row, times 4 on the halved Nyquist entry."""
    h = grid.nyquist_index
    weights = np.stack([_sobolev_weights(grid, 1.0)[: h + 1], np.ones(h + 1)])
    weights[:, h] *= 4.0
    weights.setflags(write=False)
    return weights


def wave_state_norm(w: WaveState) -> float:
    """H^1 norm of u plus L^2 norm of v; the natural size of a wave state.

    Summed from the stored half pair, bit for bit as ``sobolev_norm(w.u, 1.0)
    + sobolev_norm(w.v, 0.0)`` short of subnormal squares: the squared moduli
    weighted (times 4 at the doubled Nyquist entry) and k = 1..N/2-1 mirrored
    into FFT order, so that ``np.add.reduce`` adds the same terms in order."""
    h = w.grid.nyquist_index
    sq = np.abs(_half_pair(w))
    sq *= sq
    sq *= _norm_weights(w.grid)
    u_sq, v_sq = np.add.reduce(np.concatenate([sq, sq[:, h - 1 : 0 : -1]], axis=1), axis=1)
    return math.sqrt(u_sq) + math.sqrt(v_sq)


def _wave_snapshots(w0, tau, n_steps, nl, corrected=True, record_every=None):
    """The snapshots of ``run_wave`` as ``(j, w)``, each a new state: a paused
    run, whose workspace is built when the first one is asked for."""
    work = _WaveWork(w0.grid, tau, nl, corrected)
    for j, s in evolve(_half_pair(w0), work.step, work.size, n_steps, record_every):
        yield j, _full_pair(w0.grid, s)


def run_wave(
    w0: WaveState,
    tau: float,
    n_steps: int,
    nl: Nonlinearity,
    corrected: bool = True,
    record_every: int | None = None,
) -> list[WaveState]:
    """Advance n_steps of size tau, recording every ``record_every`` steps.

    Returns the states of the paused run ``_wave_snapshots``, kept as a list.
    Raises ``BlowUpError`` when a state exceeds ``BLOWUP_FACTOR`` times the
    initial combined norm or turns non-finite.
    """
    return [w for _, w in _wave_snapshots(w0, tau, n_steps, nl, corrected, record_every)]


def wave_reference_solve(
    problem: WaveProblem, n_out: int, tau_ref: float
) -> list[WaveState]:
    """Fine-step trajectory with n_out+1 equispaced snapshots on [0, t_end].

    Uses the corrected Lie splitting at step tau_ref; accept only after
    cross-validation against the Strang comparator (see the study driver).
    """
    return _solve(run_wave, problem.initial, problem.t_end, n_out, tau_ref,
                  problem.nonlinearity, True)

"""Spectral core for periodic functions on the torus [0, 2*pi).

A field is stored by its Fourier coefficients ``u_hat[k]`` with

    u(x) = sum_k u_hat[k] * exp(i*k*x),      k in {-N/2, ..., N/2 - 1},

kept in FFT order.  The analysis conventions used throughout:

* Sobolev norms are plain coefficient sums, ``H^r = sqrt(sum (1+k^2)^r |u_hat|^2)``.
* Lebesgue norms use the physical measure ``dx`` on [0, 2*pi), so
  ``||u||_L2 = sqrt(2*pi) * ||u_hat||_l2``; only p = 2 and p = 4 occur, and
  both are evaluated exactly.
* Nonlinear products are evaluated on a 2x zero-padded grid and truncated
  back, which keeps all quadratic and cubic products alias-free.
* A ``WaveState`` stores its real pair (u, v) as one read-only stacked
  half-spectrum, the (2, N/2 + 1) array of k = 0..N/2 that the wave
  steppers advance (see ``half_spectrum``); its ``u`` and ``v`` are exactly
  Hermitian fields built from it on each access.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Iterable, Iterator

import numpy as np

TWO_PI = 2.0 * np.pi

HERMITIAN_TOL = 1e-12

# A run stops once its state grows past this multiple of its initial size.
BLOWUP_FACTOR = 1e6

# No run takes more steps than this, far above any real one: a horizon that
# asks for more is refused before it can start a run that never ends.
MAX_STEPS = 2**40


# Streams for the velocity component of wave data are split off the user
# seed by a fixed documented offset so (u, v) draws never collide.
V_SEED_OFFSET = 1_000_003


class BlowUpError(RuntimeError):
    """Raised when an evolved state exceeds the configured growth guard."""


def sin_over(y: np.ndarray, sin_y: np.ndarray | None = None) -> np.ndarray:
    """sin(y)/y, with the cubic Taylor polynomial below |y| < 1e-4; a caller
    that has ``np.sin(y)`` already passes it as ``sin_y``."""
    y = np.asarray(y, dtype=np.float64)
    small = np.abs(y) < 1e-4
    safe = np.where(small, 1.0, y)
    sin_y = np.sin(safe) if sin_y is None else sin_y
    return np.where(small, 1.0 - y * y / 6.0, sin_y / safe)


def series_mask(y: np.ndarray, branch: str | None, radius: float) -> np.ndarray:
    """Where a Taylor branch replaces a closed form: |y| < radius by default;
    ``branch`` forces "series" or "closed" everywhere for switchover tests."""
    if branch is None:
        return np.abs(y) < radius
    if branch == "series":
        return np.ones(y.shape, dtype=bool)
    if branch == "closed":
        return np.zeros(y.shape, dtype=bool)
    raise ValueError(f"unknown branch {branch!r}")


def steps_for(span: float, tau: float) -> int:
    """Whole number of steps of size tau in span, at least one if span > 0."""
    if tau == 0 or not math.isfinite(tau):
        raise ValueError(f"step size {tau} is zero or not finite")
    n = span / tau
    if not math.isfinite(n):
        raise ValueError(f"{span} / {tau} is not a finite step count")
    if abs(n) > MAX_STEPS:
        raise ValueError(f"step size {tau} takes {abs(n):.3g} steps in the horizon {span}, "
                         "more than 2^40")
    if abs(n - round(n)) > 1e-9 * max(1.0, n):
        raise ValueError(f"step size {tau} does not divide the horizon {span}")
    if span > 0 and round(n) == 0:
        raise ValueError(f"step size {tau} takes no step in the horizon {span}")
    return round(n)


def evolve(state, step, size, n_steps, record_every) -> Iterator[tuple[int, np.ndarray]]:
    """Advance a coefficient array n_steps times under a growth guard, as a
    generator that steps only when asked for its next snapshot.

    ``step(state)`` returns the next array and ``size(state)`` measures it;
    a non-finite size or one above ``BLOWUP_FACTOR`` times the initial size
    raises ``BlowUpError``.  Guarding every step (not just snapshots) keeps
    divergence from ever reaching floating overflow.  It yields ``(j, state)``,
    the array after step j, at each snapshot: the initial state (j = 0) and
    every ``record_every``-th one, or just the terminal state when
    ``record_every`` is None or 0.  A negative ``n_steps``, or a stride that
    is negative or does not divide ``n_steps``, raises ``ValueError``.  The
    array may be the stepper's own buffer, overwritten by a later step: the
    paused runs hand out a copy as a state.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    if record_every and (record_every < 0 or n_steps % record_every):
        raise ValueError(f"record_every {record_every} is not a positive divisor of "
                         f"n_steps {n_steps}")
    if not np.all(np.isfinite(state.view(np.float64))):
        raise BlowUpError("non-finite coefficients in stepper input")
    guard = BLOWUP_FACTOR * max(size(state), 1e-300)
    if record_every:
        yield 0, state
    for j in range(1, n_steps + 1):
        state = step(state)
        s = size(state)
        if not np.isfinite(s) or s > guard:
            raise BlowUpError(f"norm guard tripped at step {j}")
        if record_every and j % record_every == 0:
            yield j, state
    if not record_every:
        yield n_steps, state


def _solve(run, initial, t_end: float, n_out: int, tau: float, *args):
    """Every multi-step run: ``run`` from ``initial`` at step tau, with n_out+1
    equispaced snapshots on [0, t_end] (one, taking no step, when t_end = 0);
    tau must divide t_end/n_out.  Returns what ``run`` returns: a runner's
    list of snapshots for a reference solve, a paused run's generator of
    ``(j, state)`` for the study driver."""
    if n_out < 1:
        raise ValueError("n_out must be >= 1")
    per = steps_for(t_end / n_out, tau)
    return run(initial, tau, n_out * per, *args, record_every=per)


@dataclasses.dataclass(frozen=True)
class TorusGrid:
    """Equispaced grid x_j = 2*pi*j/N with N Fourier modes, N a power of two."""

    n_modes: int
    points: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    freqs: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n_modes
        if n < 8 or n & (n - 1):
            raise ValueError(f"n_modes must be a power of two >= 8, got {n}")
        try:
            points = TWO_PI * np.arange(n) / n
            freqs = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        except MemoryError:
            raise ValueError(f"n_modes {n} is too large to allocate its grid") from None
        points.setflags(write=False)
        freqs.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "freqs", freqs)

    @property
    def nyquist_index(self) -> int:
        return self.n_modes // 2


@functools.cache
def _conj_perm(n: int) -> np.ndarray:
    """Index permutation sending the slot of wavenumber k to that of -k; built
    once per n and read-only, since every caller shares it."""
    perm = (-np.arange(n)) % n
    perm.setflags(write=False)
    return perm


def hermitian_defect(coeffs: np.ndarray) -> float:
    """Relative deviation of a coefficient array from Hermitian symmetry, NaN
    if it is not finite; dividing by its largest part first keeps coefficients
    near the float limit from overflowing the norms."""
    c = np.ascontiguousarray(coeffs, dtype=np.complex128)
    peak = float(np.abs(c.view(np.float64)).max(initial=0.0))
    if peak == 0.0 or not math.isfinite(peak):
        return 0.0 if peak == 0.0 else math.nan
    c = c / peak
    defect = float(np.linalg.norm(c - np.conj(c[_conj_perm(c.size)])))
    return defect / float(np.linalg.norm(c))


def _exactly_hermitian(c: np.ndarray) -> bool:
    """Whether c[-k] is conj(c[k]) for every k, part by part, a NaN matching a
    NaN; ``full_spectrum`` output always is."""
    mirror = np.conj(c[_conj_perm(c.size)])
    return np.array_equal(c, mirror) or np.array_equal(
        c.view(np.float64), mirror.view(np.float64), equal_nan=True)


def hermitian_part(coeffs: np.ndarray) -> np.ndarray:
    """Project coefficients onto exact Hermitian symmetry.

    Differences of two nearly equal real fields carry roundoff asymmetry that
    can dominate the tiny difference itself; this projection removes it
    without changing the represented real function beyond roundoff.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    return 0.5 * (c + np.conj(c[_conj_perm(c.size)]))


@dataclasses.dataclass(frozen=True, eq=False)
class SpectralField:
    """One periodic function as Fourier coefficients in FFT order."""

    grid: TorusGrid
    coeffs: np.ndarray
    is_real: bool = False

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.shape != (self.grid.n_modes,):
            raise ValueError(
                f"expected {self.grid.n_modes} coefficients, got shape {c.shape}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        if self.is_real and not _exactly_hermitian(c):
            defect = hermitian_defect(c)
            if not defect <= HERMITIAN_TOL:
                raise ValueError(
                    "coefficients violate Hermitian symmetry for a real field "
                    f"(relative defect {defect:.3e})"
                )


@dataclasses.dataclass(frozen=True, eq=False, init=False)
class WaveState:
    """Pair (u, v) of real fields on one grid; v plays the role of du/dt.

    Stored as one read-only (2, N/2 + 1) array ``_halves``: the half-spectra of
    u and v (see ``half_spectrum``), with real entries at k = 0 and N/2 (their
    imaginary parts +0.0) and the Nyquist entry halved.  ``u`` and ``v`` build
    their exactly Hermitian fields from it on each access.
    """

    grid: TorusGrid
    _halves: np.ndarray = dataclasses.field(repr=False)

    def __init__(self, u: SpectralField, v: SpectralField) -> None:
        if u.grid != v.grid:
            raise ValueError("u and v must share one grid")
        if not (u.is_real and v.is_real):
            raise ValueError("wave states hold real fields only")
        self._keep(u.grid, np.stack([half_spectrum(u.coeffs), half_spectrum(v.coeffs)]))

    def _keep(self, grid: TorusGrid, s: np.ndarray) -> None:
        """Store a read-only copy of ``s`` with its k = 0 and N/2 entries real."""
        s = np.array(s, dtype=np.complex128)
        ends = s[:, :: s.shape[1] - 1]
        ends.imag = 0.0
        s.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "_halves", s)

    @property
    def u(self) -> SpectralField:
        return SpectralField(self.grid, full_spectrum(self._halves[0]), True)

    @property
    def v(self) -> SpectralField:
        return SpectralField(self.grid, full_spectrum(self._halves[1]), True)


@dataclasses.dataclass(frozen=True)
class RoughDataSpec:
    """Recipe for seeded random data with prescribed coefficient decay.

    The produced field has ``|u_hat[k]| = amplitude * (1+|k|)^(-theta-1/2-delta)``
    exactly, so its H^theta norm stays bounded as the grid is refined while the
    H^(theta+1) norm grows without bound.
    """

    theta: float
    seed: int
    delta: float = 0.01
    real_valued: bool = True
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.theta, self.delta, self.amplitude))):
            raise ValueError("theta, delta and amplitude must be finite")
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if self.delta <= 0:
            raise ValueError("delta must be > 0")
        if self.amplitude <= 0:
            raise ValueError("amplitude must be > 0")


def zero_field(grid: TorusGrid, is_real: bool = True) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.n_modes, dtype=np.complex128), is_real)


def difference(a, b):
    """a - b for two fields or two wave states on one grid."""
    if isinstance(a, WaveState):
        return _full_pair(a.grid, _half_pair(a) - _half_pair(b))
    return SpectralField(a.grid, a.coeffs - b.coeffs, False)


def truncate_coeffs(c: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Restrict FFT-order coefficients to n modes, fewer than their last axis
    holds, folding the +-N/2 pair, into ``out`` when given, else a fresh array.

    Folding reproduces exactly what sampling the underlying function on the
    n-point grid does to the two Nyquist-conjugate modes, so truncation of a
    Hermitian array stays Hermitian.
    """
    m = c.shape[-1]
    if out is None:
        out = np.empty(c.shape[:-1] + (n,), dtype=np.complex128)
    h = n // 2
    out[..., :h] = c[..., :h]
    out[..., h:] = c[..., m - h :]
    out[..., h] += c[..., h]
    return out


def _check_rows(given: int, rows: int) -> None:
    """A padded pair transforms at most the ``rows`` rows it was built for."""
    if given > rows:
        raise ValueError(f"{given} rows given, but the workspace holds {rows}")


class PaddedPair:
    """Reusable buffers for the complex padded transform pair at N modes.

    ``values`` zero-pads up to ``rows`` coefficient arrays to 2N and returns
    their 2N nodal values from one inverse transform; ``coeffs`` returns the
    N retained coefficients of 2N nodal values (up to ``rows`` rows along
    leading axes) from one forward transform.  Both use ``norm="forward"``,
    which differs from the unnormalised pair by exact power-of-two scalings,
    and a batched call matches row-by-row calls bit for bit.  More rows than
    ``rows`` raise ``ValueError``.  The array ``values`` returns is a view of
    this workspace and stays valid only until its next call; ``coeffs``
    writes into the caller's ``out`` when given, else into a fresh array.
    """

    def __init__(self, n: int, rows: int = 1):
        self.n = n
        self.rows = rows
        self._padded = np.zeros((rows, 2 * n), dtype=np.complex128)
        self._values = np.empty((rows, 2 * n), dtype=np.complex128)
        self._spectrum = np.empty(rows * 2 * n, dtype=np.complex128)

    def values(self, *coeff_rows: np.ndarray) -> np.ndarray:
        """(len(coeff_rows), 2N) nodal values of the given N-coefficient rows."""
        _check_rows(len(coeff_rows), self.rows)
        h = self.n // 2
        padded = self._padded[: len(coeff_rows)]
        for row, c in zip(padded, coeff_rows):
            row[:h] = c[:h]
            row[-h:] = c[h:]
        return np.fft.ifft(padded, norm="forward", out=self._values[: len(coeff_rows)])

    def coeffs(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """N retained coefficients of 2N nodal values, along the last axis,
        truncated into ``out`` when given."""
        _check_rows(math.prod(values.shape[:-1]), self.rows)
        spectrum = self._spectrum[: values.size].reshape(values.shape)
        return truncate_coeffs(np.fft.fft(values, norm="forward", out=spectrum), self.n, out)


# Real fields travel through repeated steps as half-spectra: the N/2 + 1
# coefficients at k = 0 .. N/2, with the Nyquist entry halved so that it is
# the +N/2 member of the conjugate pair that irfft implies on the 2N grid.


def half_spectrum(c: np.ndarray) -> np.ndarray:
    """Hermitian part of FFT-order coefficients at k = 0..N/2, Nyquist halved.

    On an exactly Hermitian array this is a plain slice, bit for bit.
    """
    h = c.size // 2
    out = hermitian_part(c)[: h + 1]
    out[h] *= 0.5
    return out


def full_spectrum(x: np.ndarray) -> np.ndarray:
    """Exactly Hermitian FFT-order array from a half-spectrum; inverse of ``half_spectrum``."""
    h = x.size - 1
    out = np.empty(2 * h, dtype=np.complex128)
    out[0] = x[0].real
    out[1:h] = x[1:h]
    out[h] = 2.0 * x[h].real
    out[h + 1 :] = np.conj(x[h - 1 : 0 : -1])
    return out


def _half_pair(w: WaveState) -> np.ndarray:
    """The half-spectra of u and v, stacked as one (2, N/2 + 1) array: the
    state's own read-only storage, not a copy."""
    return w._halves


def _full_pair(grid: TorusGrid, s: np.ndarray) -> WaveState:
    """The wave state of a stacked half-spectrum pair, which it stores as a
    copy: no full spectrum is formed."""
    w = object.__new__(WaveState)
    w._keep(grid, s)
    return w


class RealPaddedPair:
    """Reusable buffers for the real padded transform pair at N modes.

    ``values`` returns the 2N nodal values of half-spectra (last axis
    N/2 + 1) from one ``irfft`` (its ``n`` argument does the zero padding);
    ``coeffs`` returns the half-spectra of real 2N nodal values from one
    ``rfft``, kept at k = 0..N/2 with the retained +-N/2 pair folded into the
    halved Nyquist entry as Re F[N/2], as ``truncate_coeffs`` folds it for
    the full spectrum.  Leading axes of up to ``rows`` rows in all are
    transformed in one call, bit for bit as row by row; more rows raise
    ``ValueError``.  Both directions use ``norm="forward"`` and write into
    this workspace: each result is a view that stays valid only until the
    next call of the same method.
    """

    def __init__(self, n: int, rows: int = 1):
        self.n = n
        self.rows = rows
        self._values = np.empty(rows * 2 * n)
        self._spectrum = np.empty(rows * (n + 1), dtype=np.complex128)

    def values(self, x: np.ndarray) -> np.ndarray:
        """Nodal values at the 2N padded-grid points, along the last axis."""
        _check_rows(math.prod(x.shape[:-1]), self.rows)
        shape = x.shape[:-1] + (2 * self.n,)
        out = self._values[: math.prod(shape)].reshape(shape)
        return np.fft.irfft(x, 2 * self.n, norm="forward", out=out)

    def coeffs(self, values: np.ndarray) -> np.ndarray:
        """Half-spectra of real 2N padded-grid values, along the last axis."""
        _check_rows(math.prod(values.shape[:-1]), self.rows)
        shape = values.shape[:-1] + (self.n + 1,)
        spectrum = self._spectrum[: math.prod(shape)].reshape(shape)
        f = np.fft.rfft(values, norm="forward", out=spectrum)[..., : self.n // 2 + 1]
        f[..., -1] = f[..., -1].real
        return f


def to_physical(f: SpectralField) -> np.ndarray:
    """Evaluate the trigonometric polynomial at the N grid points."""
    return np.fft.ifft(f.coeffs, norm="forward")


def from_physical(values: np.ndarray, grid: TorusGrid) -> SpectralField:
    """Interpolate N nodal values; inverse of ``to_physical``."""
    values = np.asarray(values)
    if values.shape != (grid.n_modes,):
        raise ValueError(
            f"expected {grid.n_modes} samples, got shape {values.shape}"
        )
    coeffs = np.fft.fft(values.astype(np.complex128)) / grid.n_modes
    return SpectralField(grid, coeffs, hermitian_defect(coeffs) <= HERMITIAN_TOL)


def conjugate(f: SpectralField) -> SpectralField:
    """Complex conjugate, computed in coefficient space as conj(u_hat[-k])."""
    c = np.conj(f.coeffs[_conj_perm(f.grid.n_modes)])
    return SpectralField(f.grid, c, f.is_real)


def derivative(f: SpectralField, order: int) -> SpectralField:
    """Spectral derivative; order 1 zeroes the Nyquist mode to stay real."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    k = f.grid.freqs
    if order == 1:
        symbol = 1j * k.astype(np.complex128)
        symbol[f.grid.nyquist_index] = 0.0
    else:
        symbol = -(k.astype(np.float64) ** 2)
    return SpectralField(f.grid, f.coeffs * symbol, f.is_real)


@functools.cache
def _sobolev_weights(grid: TorusGrid, r: float) -> np.ndarray:
    """The weights (1+k^2)^r of ``sobolev_norm``, in FFT order; built once per
    (grid, r) and read-only, since every caller shares it."""
    weights = (1.0 + grid.freqs.astype(np.float64) ** 2) ** r
    weights.setflags(write=False)
    return weights


def sobolev_norm(f: SpectralField, r: float) -> float:
    """Coefficient-weighted norm sqrt(sum (1+k^2)^r |u_hat[k]|^2)."""
    a = np.abs(f.coeffs)
    a *= a
    a *= _sobolev_weights(f.grid, r)
    return math.sqrt(np.add.reduce(a))


def lebesgue_norm(f: SpectralField, p: int) -> float:
    """L^p norm on [0, 2*pi) for p in {2, 4}, exact: L^2 by Parseval, as
    sqrt(2*pi) times the coefficient l^2 norm; L^4 by the rectangle rule on
    the 2N padded grid, exact because |u|^4 has no wavenumber beyond 2N - 2."""
    if p == 2:
        return math.sqrt(TWO_PI) * sobolev_norm(f, 0.0)
    if p != 4:
        raise ValueError("p must be 2 or 4")
    values = np.abs(PaddedPair(f.grid.n_modes).values(f.coeffs)[0])
    return float((TWO_PI / values.size * np.sum(values**4)) ** 0.25)


def spacetime_norm(samples: Iterable[SpectralField], dt: float, p: int) -> float:
    """L^p_t L^p_x norm, p in {2, 4}, over a uniformly sampled time interval,
    in one pass that keeps only each sample's ``lebesgue_norm``: a generator of
    samples, such as the fields of a paused run's snapshots, need never hold
    more than one.  In time: the composite trapezoid rule on the norms raised
    to p, then the root."""
    a = np.array([lebesgue_norm(s, p) for s in samples])
    if a.size < 2:
        raise ValueError("spacetime_norm needs at least 2 samples")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    powered = a**p
    integral = dt * (powered.sum() - 0.5 * (powered[0] + powered[-1]))
    return float(integral ** (1.0 / p))


# Deterministic per-mode random streams.
#
# Each (seed, k, slot) triple is hashed to one 64-bit word by xoring the
# inputs against fixed odd multipliers and applying the splitmix64 finalizer
# (xor-shift / multiply avalanche).  The word, scaled by 2^-64, gives one
# uniform draw in [0, 1).  Streams are therefore splittable per wavenumber:
# refining the grid keeps every existing coefficient bit-identical.

_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_SEED_MULT = 0x9E3779B97F4A7C15
_SLOT_MULT = 0xD6E8FEB86659FD93
_MASK64 = (1 << 64) - 1


def _mix64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= _MIX_A
    x ^= x >> np.uint64(27)
    x *= _MIX_B
    x ^= x >> np.uint64(31)
    return x


def unit_uniform(seed: int, kvals: np.ndarray, slot: int) -> np.ndarray:
    """Uniform draws in [0, 1), one per wavenumber, reproducible bit-for-bit."""
    ks = np.asarray(kvals, dtype=np.int64).astype(np.uint64)
    # Scalar words are hashed with exact Python ints (wrapping mod 2^64) so
    # numpy never sees a scalar overflow; array ops wrap silently by design.
    seed_word = ((int(seed) & _MASK64) * _SEED_MULT) & _MASK64
    slot_word = ((int(slot) & _MASK64) * _SLOT_MULT) & _MASK64
    state = np.uint64(seed_word ^ slot_word) ^ (ks * _MIX_B)
    return _mix64(state).astype(np.float64) * 2.0**-64


def random_rough_field(spec: RoughDataSpec, grid: TorusGrid) -> SpectralField:
    """Seeded field with coefficient magnitudes amplitude*(1+|k|)^(-theta-1/2-delta)."""
    n = grid.n_modes
    k = grid.freqs
    mags = spec.amplitude * (1.0 + np.abs(k).astype(np.float64)) ** (
        -(spec.theta + 0.5 + spec.delta)
    )
    if not spec.real_valued:
        phases = TWO_PI * unit_uniform(spec.seed, k, 0)
        return SpectralField(grid, mags * np.exp(1j * phases), False)
    coeffs = np.zeros(n, dtype=np.complex128)
    pos = np.arange(1, n // 2)
    phases = TWO_PI * unit_uniform(spec.seed, pos, 0)
    coeffs[pos] = mags[pos] * np.exp(1j * phases)
    coeffs[-pos] = np.conj(coeffs[pos])
    signs = np.where(unit_uniform(spec.seed, np.array([0, -n // 2]), 1) < 0.5, 1.0, -1.0)
    coeffs[0] = signs[0] * mags[0]
    coeffs[n // 2] = signs[1] * mags[n // 2]
    return SpectralField(grid, coeffs, True)


def rough_wave_state(
    spec: RoughDataSpec, grid: TorusGrid, v_theta: float | None = None
) -> WaveState:
    """Seeded wave datum: u drawn from ``spec``, v from the same law at
    ``v_theta`` (default one exponent lower, floored at 0) on the seed
    ``spec.seed + V_SEED_OFFSET``; both are real whatever ``spec.real_valued``
    says."""
    if v_theta is None:
        v_theta = max(spec.theta - 1.0, 0.0)
    spec = dataclasses.replace(spec, real_valued=True)
    v_spec = dataclasses.replace(spec, theta=v_theta, seed=spec.seed + V_SEED_OFFSET)
    return WaveState(random_rough_field(spec, grid), random_rough_field(v_spec, grid))


def regrid(f: SpectralField | WaveState, grid: TorusGrid):
    """Re-express a field, or both fields of a wave state, on another grid.

    Embedding splits a real field's Nyquist coefficient evenly over the +-N/2
    pair of the finer grid so Hermitian symmetry survives; coarsening folds
    the pair back.  Grid values at shared nodes are preserved exactly.
    """
    if isinstance(f, WaveState):
        return WaveState(regrid(f.u, grid), regrid(f.v, grid))
    n_old, n_new = f.grid.n_modes, grid.n_modes
    if n_new == n_old:
        return SpectralField(grid, f.coeffs, f.is_real)
    if n_new > n_old:
        h = n_old // 2
        c = np.zeros(n_new, dtype=np.complex128)
        c[:h] = f.coeffs[:h]
        c[n_new - h :] = f.coeffs[h:]
        if f.is_real:
            c[n_new - h] *= 0.5
            c[h] = np.conj(c[n_new - h])
        return SpectralField(grid, c, f.is_real)
    return SpectralField(grid, truncate_coeffs(f.coeffs, n_new), f.is_real)

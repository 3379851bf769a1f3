"""Space-time functionals and local-error integral oracles.

Operates on uniformly sampled trajectories of Schrödinger fields or wave
states; this module measures the snapshots it is given and runs no scheme.
The two ``*_local_error_oracle`` functions evaluate the exact
double-integral representation of a scheme's one-step error, with
quadrature nodes snapped to the trajectory's own time samples; the caller
sets it against the error measured directly (fine reference minus one step).
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
import sys
from typing import Sequence

import numpy as np

from .torus_spectral import (
    PaddedPair,
    SpectralField,
    TorusGrid,
    WaveState,
    _full_pair,
    _half_pair,
    conjugate,
    derivative,
    full_spectrum,
    spacetime_norm,
)
from .wave_integrators import (
    Nonlinearity,
    _apply_stacked,
    _flow_table,
    _nonlinear_coeffs,
    b_map,
)


@dataclasses.dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly spaced snapshots of one evolution, with provenance tags."""

    times: np.ndarray
    states: Sequence[SpectralField] | Sequence[WaveState]
    meta: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        if times.size < 3:
            raise ValueError("a trajectory needs at least 3 samples")
        if times.size != len(self.states):
            raise ValueError("one state per time sample is required")
        steps = np.diff(times)
        if not np.all(steps > 0):
            raise ValueError("time samples must increase")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValueError("time samples must be uniformly spaced")
        grids = {s.grid.n_modes for s in self.states}
        if len(grids) != 1:
            raise ValueError("all states must share one grid")
        if len({isinstance(s, WaveState) for s in self.states}) != 1:
            raise ValueError("states must not mix fields and wave states")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def grid(self) -> TorusGrid:
        return self.states[0].grid

    @property
    def is_wave(self) -> bool:
        return isinstance(self.states[0], WaveState)


def trajectory_of(
    states: Sequence[SpectralField] | Sequence[WaveState],
    t0: float,
    t_end: float,
    **meta,
) -> Trajectory:
    """Wrap equispaced snapshots covering [t0, t_end]."""
    times = np.linspace(t0, t_end, len(states))
    return Trajectory(times, list(states), dict(meta))


def strichartz_l4(traj: Trajectory) -> float:
    """Space-time L^4 norm of u_x over the trajectory's window, in one pass:
    each sample's u_x is measured and dropped before the next is built."""
    if traj.is_wave:
        raise ValueError("strichartz_l4 expects a trajectory of scalar fields")
    return spacetime_norm((derivative(u, 1) for u in traj.states), traj.dt, 4)


def null_form_field(w: WaveState) -> SpectralField:
    """Pointwise v^2 - (u_x)^2, dealiased on the 2x grid as ``b_map`` forms it."""
    (x,) = _nonlinear_coeffs(w, lambda u, v, ux: v * v - ux * ux)
    return SpectralField(w.grid, full_spectrum(x), True)


def nullform_norm(traj: Trajectory) -> float:
    """Space-time L^2 norm of v^2 - (u_x)^2 over the trajectory's window, in one
    pass: each sample's null form is measured and dropped before the next is built."""
    if not traj.is_wave:
        raise ValueError("nullform_norm expects a trajectory of wave states")
    return spacetime_norm((null_form_field(w) for w in traj.states), traj.dt, 2)


def _quadrature_layout(traj: Trajectory, tau: float, quad_order: int):
    span = float(traj.times[-1] - traj.times[0])
    if abs(span - tau) > 1e-9 * max(tau, 1.0):
        raise ValueError("trajectory must cover exactly one step [t0, t0 + tau]")
    n_sub = len(traj.states) - 1
    if quad_order < 2:
        raise ValueError("quad_order must be >= 2")
    if quad_order > n_sub or n_sub % quad_order:
        raise ValueError(
            f"insufficient trajectory resolution: {n_sub} sub-steps cannot "
            f"host {quad_order} quadrature panels"
        )
    return n_sub // quad_order, tau / quad_order


def nls_local_error_oracle(
    traj: Trajectory, tau: float, mu: float, quad_order: int
) -> SpectralField:
    """The double-integral representation of the exponential integrator's
    one-step error u_ref(t0 + tau) - Phi_tau(u_ref(t0)):

    integral = mu * int_0^tau int_0^s P(tau - sigma) D(sigma, s) dsigma ds,

    where P(t) is the free flow and D collects the three integrand terms

        D1 = mu * u^2 * (P2(sigma - s)(|u|^2 conj u) - 2|u|^2 * P2(sigma - s)(conj u)),
        D2 = -2 * (u_x)^2 * P2(sigma - s)(conj u),
        D3 = -4 * u * u_x * P2(sigma - s)(conj u_x),

    with P2(t) the multiplier of exp(2*i*t*dxx).  Both integrals use composite
    trapezoid rules whose nodes are trajectory samples; ``quad_order`` panels
    per step.  The sum is linear in the transforms, so it takes one pass over
    the inner nodes j, each pushed once by S_j = sum over outer nodes l >= j
    of both trapezoid weights times P2(sigma_j - s_l): O(q) transforms.
    """
    if traj.is_wave:
        raise ValueError("nls_local_error_oracle expects scalar fields")
    stride, h = _quadrature_layout(traj, tau, quad_order)
    grid = traj.grid
    n = grid.n_modes
    k2 = grid.freqs.astype(np.float64) ** 2
    pair = PaddedPair(n, rows=3)
    # exp(2i*(sigma - s)*dxx) has multiplier exp(2i*(s - sigma)*k^2); the
    # outer propagator exp(i*(tau - sigma)*dxx) has exp(-i*(tau - sigma)*k^2).
    shift = [np.exp(2j * (d * h) * k2) for d in range(quad_order + 1)]

    total = np.zeros(n, dtype=np.complex128)
    for j, node in enumerate(traj.states[::stride]):
        s_j = sum((0.5 * h if l == quad_order else h) * (0.5 * h if j in (0, l) else h)
                  * shift[l - j] for l in range(max(j, 1), quad_order + 1))
        ux = derivative(node, 1)
        up, uxp = pair.values(node.coeffs, ux.coeffs).copy()  # values() reuses its buffer
        absu2 = np.abs(up) ** 2
        # Rows: |u|^2 conj(u), conj(u) and conj(u_x), each pushed by S_j.
        pa, pc, pe = pair.values(
            s_j * pair.coeffs(absu2 * np.conj(up)),
            s_j * conjugate(node).coeffs,
            s_j * conjugate(ux).coeffs,
        )
        mu_u2 = mu * up * up
        integrand = mu_u2 * pa - 2.0 * (mu_u2 * absu2 + uxp * uxp) * pc - 4.0 * up * uxp * pe
        total += np.exp(-1j * (tau - j * h) * k2) * pair.coeffs(integrand)
    return SpectralField(grid, mu * total, False)


def wave_local_error_oracle(
    traj: Trajectory, tau: float, nl: Nonlinearity, quad_order: int
) -> WaveState:
    """The double-integral representation of the corrected Lie splitting's
    one-step error U_ref(t0 + tau) - Phi_tau(U_ref(t0)):

    integral = e^{tau A} int_0^tau (tau - s) e^{-2sA} int_0^s e^{sigma A}
               B(U(sigma)) dsigma ds,

    with B the first-order remainder map.  Quadrature as in the Schrödinger
    oracle.
    """
    if not traj.is_wave:
        raise ValueError("wave_local_error_oracle expects wave states")
    stride, h = _quadrature_layout(traj, tau, quad_order)
    grid = traj.grid

    pushed = [
        _apply_stacked(_flow_table(grid, j * h), _half_pair(b_map(node, nl)))
        for j, node in enumerate(traj.states[::stride])
    ]
    inner = total = np.zeros_like(pushed[0])
    for l in range(1, quad_order + 1):
        inner = inner + 0.5 * h * (pushed[l - 1] + pushed[l])
        s = l * h
        if l == quad_order:
            continue  # the (tau - s) weight vanishes at s = tau
        total = total + h * (tau - s) * _apply_stacked(_flow_table(grid, -2.0 * s), inner)
    return _full_pair(grid, _apply_stacked(_flow_table(grid, tau), total))


# Trajectory files: four arrays in numpy's .npy format, one after another: the
# sample times, each sample's realness flag, the stacked coefficients and the
# sorted meta as (key, value) rows of str.  A field is stored as its FFT-order
# coefficients, a wave state as its (2, N/2 + 1) half-spectrum pair, so the
# coefficients have shape (S, N) or (S, 2, N/2 + 1) and their rank gives the
# kind.  Not np.savez: its zip container stamps the time into the bytes.

# The one header np.save writes (format 1.0) for each array, and the dtype
# of each array in file order.
_HEADER = re.compile(r"\{'descr': '([^']*)', 'fortran_order': False, "
                     r"'shape': \(((?:\d+, )*\d+,?)?\), \} *\n")
_DESCRS = ("<f8", r"\|b1", "<c16", r"<U[1-9]\d{0,7}")


def write_trajectory(traj: Trajectory, path) -> None:
    meta = sorted((str(key), str(value)) for key, value in traj.meta.items())
    keys = [key for key, _ in meta]
    for key, value in meta:
        if not key or keys.count(key) > 1 or "\0" in key + value:
            raise ValueError(f"meta entry {key!r}: {value!r} cannot be written: keys must "
                             "be distinct and not empty as str, and no key or value may "
                             "hold a NUL character")
    if traj.is_wave:
        coeffs = np.stack([_half_pair(w) for w in traj.states])
    else:
        coeffs = np.stack([f.coeffs for f in traj.states])
    real = np.array([traj.is_wave or f.is_real for f in traj.states])
    # Saving through the handle also keeps np.save from adding a .npy suffix.
    with open(path, "wb") as fh:
        for array in (traj.times, real, coeffs, np.array(meta, dtype=str).reshape(-1, 2)):
            np.save(fh, array, allow_pickle=False)


def _next_array(fh, size: int, descr: str) -> np.ndarray:
    """The next array of ``fh``, once its header is one np.save writes for
    dtype ``descr`` and the file holds the bytes that header declares."""
    start = fh.tell()
    prefix = fh.read(10)
    if prefix[:8] != b"\x93NUMPY\x01\x00" or len(prefix) < 10:
        raise ValueError(f"no .npy 1.0 array at byte {start}")
    header = fh.read(int.from_bytes(prefix[8:], "little")).decode("latin1")
    match = _HEADER.fullmatch(header)
    if match is None or not re.fullmatch(descr, match[1]):
        raise ValueError(f"unexpected array header at byte {start}: {header.strip()!r}")
    shape = [int(n) for n in (match[2] or "").split(",") if n.strip()]
    # No dimension of an array in the file, even an empty one, exceeds its size.
    declared, left = math.prod(shape) * np.dtype(match[1]).itemsize, size - fh.tell()
    if declared > left or max(shape, default=0) > size:
        raise ValueError(f"the array at byte {start} declares shape {tuple(shape)} and "
                         f"{declared} bytes; {left} are left")
    fh.seek(start)
    return np.load(fh, allow_pickle=False)


def read_trajectory(path) -> Trajectory:
    """Read a trajectory file; malformed input raises a ValueError naming the file."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            times, real, coeffs, meta = [_next_array(fh, size, d) for d in _DESCRS]
            if fh.tell() != size:
                raise ValueError(f"{size - fh.tell()} bytes follow the four arrays")
        count = times.shape
        if (len(count) != 1 or real.shape != count or coeffs.shape[:1] != count
                or coeffs.ndim not in (2, 3) or meta.ndim != 2 or meta.shape[1] != 2):
            raise ValueError(f"array shapes {times.shape}, {real.shape}, {coeffs.shape} "
                             f"and {meta.shape} do not make a trajectory")
        if real.view(np.uint8).max(initial=0) > 1:
            raise ValueError("a realness flag is neither 0 nor 1")
        if meta.view(np.uint32).max(initial=0) > sys.maxunicode:
            raise ValueError("meta holds a code point beyond Unicode")
        if coeffs.ndim == 2:
            grid = TorusGrid(coeffs.shape[1])
            states = [SpectralField(grid, c, bool(r)) for c, r in zip(coeffs, real)]
        else:
            grid = TorusGrid(2 * (coeffs.shape[2] - 1))
            if coeffs.shape[1] != 2 or not real.all():
                raise ValueError("a wave state is a real (u, v) pair")
            if np.any(coeffs[:, :, :: grid.nyquist_index].imag != 0):
                raise ValueError("a wave state's k = 0 or N/2 entry is not real")
            states = [_full_pair(grid, s) for s in coeffs]
        return Trajectory(times, states, dict(meta.tolist()))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

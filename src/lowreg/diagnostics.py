"""Space-time functionals and local-error integral oracles.

Operates on uniformly sampled trajectories of Schrödinger fields or wave
states.  The two ``*_local_error_oracle`` functions compare the one-step
error of a scheme measured directly (fine reference minus one step) against
an independent evaluation of its exact double-integral representation, with
quadrature nodes snapped to the trajectory's own time samples.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Sequence

import numpy as np

from .nls_integrators import lri_step
from .torus_spectral import (
    PaddedPair,
    SpectralField,
    TorusGrid,
    WaveState,
    _full_pair,
    _half_pair,
    conjugate,
    derivative,
    difference,
    full_spectrum,
    spacetime_norm,
)
from .wave_integrators import (
    Nonlinearity,
    _apply_stacked,
    _flow_table,
    _nonlinear_coeffs,
    b_map,
    corrected_lie_step,
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
    return spacetime_norm((derivative(u, 1) for u in traj.states), traj.dt, 4, 4)


def null_form_field(w: WaveState) -> SpectralField:
    """Pointwise v^2 - (u_x)^2, dealiased on the 2x grid as ``b_map`` forms it."""
    (x,) = _nonlinear_coeffs(w, lambda u, v, ux: v * v - ux * ux)
    return SpectralField(w.grid, full_spectrum(x), True)


def nullform_norm(traj: Trajectory) -> float:
    """Space-time L^2 norm of v^2 - (u_x)^2 over the trajectory's window, in one
    pass: each sample's null form is measured and dropped before the next is built."""
    if not traj.is_wave:
        raise ValueError("nullform_norm expects a trajectory of wave states")
    return spacetime_norm((null_form_field(w) for w in traj.states), traj.dt, 2, 2)


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
) -> tuple[SpectralField, SpectralField]:
    """Direct one-step error versus its double-integral representation.

    direct   = u_ref(t0 + tau) - one step of the exponential integrator,
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
    integral = SpectralField(grid, mu * total, False)
    return difference(traj.states[-1], lri_step(traj.states[0], tau, mu)), integral


def wave_local_error_oracle(
    traj: Trajectory, tau: float, nl: Nonlinearity, quad_order: int
) -> tuple[WaveState, WaveState]:
    """Direct one-step error versus its double-integral representation.

    direct   = U_ref(t0 + tau) - one corrected Lie splitting step,
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
    integral = _full_pair(grid, _apply_stacked(_flow_table(grid, tau), total))

    direct = difference(traj.states[-1], corrected_lie_step(traj.states[0], tau, nl))
    return direct, integral


# Trajectory files: a "trajectory" header, kind, sample count, time grid and
# meta lines, followed by one record per sample.  Meta keys are single words
# and values single lines; both are read back as str.  A field record is a
# line "field <N> <is_real>" followed by N lines "<re> <im>" in ascending
# wavenumber order -N/2 .. N/2-1, floats in shortest round-trip repr; a
# wave-state record is a line "wavestate" followed by the records of u and v.


def _record(state) -> list[str]:
    """The lines of one field or wave-state record."""
    if isinstance(state, WaveState):
        return ["wavestate", *_record(state.u), *_record(state.v)]
    lines = [f"field {state.grid.n_modes} {int(state.is_real)}"]
    lines.extend(f"{float(z.real)!r} {float(z.imag)!r}" for z in np.fft.fftshift(state.coeffs))
    return lines


def write_trajectory(traj: Trajectory, path) -> None:
    lines = [
        "trajectory",
        f"kind {'wave' if traj.is_wave else 'nls'}",
        f"samples {len(traj.states)}",
        f"t0 {float(traj.times[0])!r}",
        f"dt {traj.dt!r}",
        f"meta {len(traj.meta)}",
    ]
    for key in sorted(traj.meta):
        key_text, value_text = str(key), str(traj.meta[key])
        if not (
            key_text.split() == [key_text]
            and "".join(value_text.splitlines()) == value_text
            and (key_text + value_text).isascii()
        ):
            raise ValueError(
                f"meta entry {key!r}: {traj.meta[key]!r} cannot be written: keys "
                "must be one word, values one line, both ASCII"
            )
        lines.append(f"{key_text} {value_text}")
    with open(path, "w", encoding="ascii") as fh:
        # One record at a time: the whole file as a list of lines would be
        # the largest transient allocation of a trajectory round trip.
        fh.write("\n".join(lines) + "\n")
        for state in traj.states:
            fh.write("\n".join(_record(state)) + "\n")


def _read_record(lines: Iterator[str], wave: bool):
    """The next field record of ``lines``, or with ``wave`` the next wave-state record."""
    if wave:
        header = next(lines).strip()
        if header != "wavestate":
            raise ValueError(f"malformed wave state header: {header!r}")
        return WaveState(_read_record(lines, False), _read_record(lines, False))
    header = next(lines).split()
    if len(header) != 3 or header[0] != "field" or header[2] not in ("0", "1"):
        raise ValueError(f"malformed field header: {header}")
    n = int(header[1])
    shifted = []
    for _ in range(n):
        re, im = next(lines).split()
        shifted.append(complex(float(re), float(im)))
    return SpectralField(TorusGrid(n), np.fft.ifftshift(np.array(shifted)), header[2] == "1")


def _header_value(lines: Iterator[str], key: str) -> str:
    """The value of the next line, which must read ``<key> <value>``."""
    words = next(lines).split()
    if len(words) != 2 or words[0] != key:
        raise ValueError(f"expected '{key} <value>', got {' '.join(words)!r}")
    return words[1]


def _trajectory_from_lines(lines: Iterator[str]) -> Trajectory:
    if next(lines).strip() != "trajectory":
        raise ValueError("not a trajectory file")
    kind = _header_value(lines, "kind")
    if kind not in ("nls", "wave"):
        raise ValueError(f"unknown trajectory kind {kind!r}")
    count = int(_header_value(lines, "samples"))
    t0 = float(_header_value(lines, "t0"))
    dt = float(_header_value(lines, "dt"))
    if not dt > 0:
        raise ValueError(f"dt {dt!r} must be > 0")
    n_meta = int(_header_value(lines, "meta"))
    meta = {}
    for _ in range(n_meta):
        key, _, value = next(lines).partition(" ")
        meta[key] = value
    states = [_read_record(lines, kind == "wave") for _ in range(count)]
    if any(line.strip() for line in lines):
        raise ValueError(f"text after the {count} declared samples")
    times = t0 + dt * np.arange(count)
    return Trajectory(times, states, meta)


def read_trajectory(path) -> Trajectory:
    """Read a trajectory file a line at a time, so a large file never sits in
    memory as a whole.  A record that ends early or a line that does not
    parse raises a ValueError naming the file and the line where reading stopped.
    """
    read = 0

    def lines(fh):
        nonlocal read
        for line in fh:
            read += 1
            yield line.rstrip("\n")

    with open(path, encoding="ascii") as fh:
        try:
            return _trajectory_from_lines(lines(fh))
        except StopIteration:
            raise ValueError(f"{path}, line {read + 1}: unexpected end of file") from None
        except (ValueError, IndexError) as exc:
            raise ValueError(f"{path}, line {read}: {exc}") from exc

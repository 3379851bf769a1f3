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
    _parse_file,
    _time_norm,
    conjugate,
    derivative,
    difference,
    field_from_lines,
    field_to_lines,
    full_spectrum,
    hermitian_part,
    lebesgue_norm,
    wave_state_from_lines,
    wave_state_to_lines,
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


def _strichartz_sample(u: SpectralField) -> float:
    """||u_x||_L4: the spatial norm that ``strichartz_l4`` integrates."""
    return lebesgue_norm(derivative(u, 1), 4)


def strichartz_l4(traj: Trajectory) -> float:
    """Space-time L^4 norm of u_x over the trajectory's window, in one pass:
    each sample's u_x is measured and dropped before the next is built."""
    if traj.is_wave:
        raise ValueError("strichartz_l4 expects a trajectory of scalar fields")
    return _time_norm([_strichartz_sample(s) for s in traj.states], traj.dt, 4)


def null_form_field(w: WaveState) -> SpectralField:
    """Pointwise v^2 - (u_x)^2, dealiased on the 2x grid as ``b_map`` forms it."""
    (x,) = _nonlinear_coeffs(w, lambda u, v, ux: v * v - ux * ux)
    return SpectralField(w.grid, full_spectrum(x), True)


def _nullform_sample(w: WaveState) -> float:
    """||v^2 - (u_x)^2||_L2: the spatial norm that ``nullform_norm`` integrates."""
    return lebesgue_norm(null_form_field(w), 2)


def nullform_norm(traj: Trajectory) -> float:
    """Space-time L^2 norm of v^2 - (u_x)^2 over the trajectory's window, in one
    pass: each sample's null form is measured and dropped before the next is built."""
    if not traj.is_wave:
        raise ValueError("nullform_norm expects a trajectory of wave states")
    return _time_norm([_nullform_sample(w) for w in traj.states], traj.dt, 2)


def dalembert_split(w: WaveState) -> tuple[SpectralField, SpectralField]:
    """Left/right mover data (u_x + v)/2 and (u_x - v)/2.

    For the homogeneous flow from (u, v), the first profile travels left and
    the second right: v(t, x) = left(x + t) - right(x - t).
    """
    ux = derivative(w.u, 1)
    half_sum = hermitian_part(0.5 * (ux.coeffs + w.v.coeffs))
    half_diff = hermitian_part(0.5 * (ux.coeffs - w.v.coeffs))
    return (
        SpectralField(w.grid, half_sum, True),
        SpectralField(w.grid, half_diff, True),
    )


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
    per step.
    """
    if traj.is_wave:
        raise ValueError("nls_local_error_oracle expects scalar fields")
    stride, h = _quadrature_layout(traj, tau, quad_order)
    grid = traj.grid
    n = grid.n_modes
    k2 = grid.freqs.astype(np.float64) ** 2
    nodes = traj.states[::stride]
    pair = PaddedPair(n, rows=3)
    # Rows: coefficients of |u|^2 conj(u), of conj(u) and of conj(u_x).
    fac: list[np.ndarray] = []
    mul_a: list[np.ndarray] = []  # physical factor mu * u^2
    mul_c: list[np.ndarray] = []  # physical factor -2*(mu*u^2*|u|^2 + u_x^2)
    mul_e: list[np.ndarray] = []  # physical factor -4 * u * u_x
    for node in nodes:
        ux = derivative(node, 1)
        up, uxp = pair.values(node.coeffs, ux.coeffs)
        absu2 = np.abs(up) ** 2
        fac.append(np.stack([
            pair.coeffs(absu2 * np.conj(up)),
            conjugate(node).coeffs,
            conjugate(ux).coeffs,
        ]))
        mul_a.append(mu * up * up)
        mul_c.append(-2.0 * (mu * up * up * absu2 + uxp * uxp))
        mul_e.append(-4.0 * up * uxp)

    # exp(2i*(sigma - s)*dxx) has multiplier exp(2i*(s - sigma)*k^2); the
    # outer propagator exp(i*(tau - sigma)*dxx) has exp(-i*(tau - sigma)*k^2).
    shift = [np.exp(2j * (d * h) * k2) for d in range(quad_order + 1)]
    prop = [np.exp(-1j * (tau - j * h) * k2) for j in range(quad_order + 1)]

    total = np.zeros(n, dtype=np.complex128)
    for l in range(1, quad_order + 1):
        inner = np.zeros(n, dtype=np.complex128)
        for j in range(l + 1):
            pa, pc, pe = pair.values(*(shift[l - j] * fac[j]))
            integrand = pair.coeffs(mul_a[j] * pa + mul_c[j] * pc + mul_e[j] * pe)
            w_in = 0.5 * h if j in (0, l) else h
            inner += w_in * (prop[j] * integrand)
        w_out = 0.5 * h if l == quad_order else h
        total += w_out * inner
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
# meta lines, followed by one field or wave-state record per sample.  Meta
# keys are single words and values single lines; both are read back as str.


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
    to_lines = wave_state_to_lines if traj.is_wave else field_to_lines
    with open(path, "w", encoding="ascii") as fh:
        # One record at a time: the whole file as a list of lines would be
        # the largest transient allocation of a trajectory round trip.
        fh.write("\n".join(lines) + "\n")
        for state in traj.states:
            fh.write("\n".join(to_lines(state)) + "\n")


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
    n_meta = int(_header_value(lines, "meta"))
    meta = {}
    for _ in range(n_meta):
        key, _, value = next(lines).partition(" ")
        meta[key] = value
    reader = wave_state_from_lines if kind == "wave" else field_from_lines
    states = [reader(lines) for _ in range(count)]
    if any(line.strip() for line in lines):
        raise ValueError(f"text after the {count} declared samples")
    times = t0 + dt * np.arange(count)
    return Trajectory(times, states, meta)


def read_trajectory(path) -> Trajectory:
    return _parse_file(path, _trajectory_from_lines)

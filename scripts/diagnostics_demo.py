#!/usr/bin/env python3
"""Tour of the space-time diagnostics on small reference trajectories.

Builds one Schrödinger and one wave trajectory from seeded rough data, prints
the Strichartz and null-form functionals with a doubled-resolution control,
then checks a one-step local error against its integral representation at two
quadrature densities.  Everything runs in seconds at N = 128.
"""

import lowreg as lr
from lowreg.study_cli import smooth_data_spec
from lowreg.torus_spectral import difference, rough_wave_state

SEED = 42
T = 1.0
TAU_REF = T / 1024


def schrodinger_functional():
    g1, g2 = lr.TorusGrid(128), lr.TorusGrid(256)
    u0 = lr.random_rough_field(
        lr.RoughDataSpec(theta=1.0, seed=SEED, real_valued=False, amplitude=0.5), g1
    )
    vals = []
    for datum, n_out in ((u0, 64), (lr.regrid(u0, g2), 128)):
        states = lr.nls_reference_solve(lr.NlsProblem(1, datum, T), n_out, TAU_REF)
        vals.append(lr.strichartz_l4(lr.trajectory_of(states, 0.0, T)))
    print(f"strichartz_l4: {vals[0]:.6f} (doubled resolution: {vals[1]:.6f})")


def wave_functional():
    g1, g2 = lr.TorusGrid(128), lr.TorusGrid(256)
    nl = lr.Nonlinearity.preset("quadratic")
    w0 = rough_wave_state(
        lr.RoughDataSpec(theta=1.0, seed=SEED, real_valued=True, amplitude=0.5), g1
    )
    vals = []
    for datum, n_out in ((w0, 64), (lr.regrid(w0, g2), 128)):
        states = lr.wave_reference_solve(lr.WaveProblem(nl, datum, T), n_out, TAU_REF)
        vals.append(lr.nullform_norm(lr.trajectory_of(states, 0.0, T)))
    print(f"nullform_norm: {vals[0]:.6f} (doubled resolution: {vals[1]:.6f})")


def local_error_representation():
    grid = lr.TorusGrid(128)
    nl = lr.Nonlinearity.preset("quadratic")
    tau = 2.0**-6
    spec = smooth_data_spec(seed=7, amplitude=0.5, real_valued=True)
    w0 = rough_wave_state(spec, grid, v_theta=spec.theta)
    states = lr.wave_reference_solve(lr.WaveProblem(nl, w0, tau), 1024, tau / 16384)
    traj = lr.trajectory_of(states, 0.0, tau)
    # The discrepancy shrinks with quadrature density until it reaches the
    # accuracy of the reference trajectory itself.
    for q in (16, 64, 256):
        direct, integral = lr.wave_local_error_oracle(traj, tau, nl, q)
        rel = lr.wave_state_norm(difference(direct, integral)) / lr.wave_state_norm(direct)
        print(f"one-step error vs integral form (q={q}): "
              f"relative discrepancy {rel:.3e}")


if __name__ == "__main__":
    schrodinger_functional()
    wave_functional()
    local_error_representation()

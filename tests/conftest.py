import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(__file__))

from lowreg import RoughDataSpec, TorusGrid, WaveState, random_rough_field

settings.register_profile(
    "default",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def grid16():
    return TorusGrid(16)


@pytest.fixture(scope="session")
def grid32():
    return TorusGrid(32)


@pytest.fixture(scope="session")
def grid64():
    return TorusGrid(64)


def rough_field_on(grid, seed, theta=1.0, amplitude=0.5, real_valued=False):
    spec = RoughDataSpec(
        theta=theta, seed=seed, real_valued=real_valued, amplitude=amplitude
    )
    return random_rough_field(spec, grid)


def rough_wave_state_on(grid, seed, theta=1.0, amplitude=0.5):
    u = rough_field_on(grid, seed, theta, amplitude, real_valued=True)
    v = rough_field_on(grid, seed + 1, max(theta - 1.0, 0.0), amplitude,
                       real_valued=True)
    return WaveState(u, v)


def seeds():
    return st.integers(min_value=0, max_value=2**63 - 1)


def banded_coeffs(n: int, bandwidth: int):
    """Strategy: FFT-order complex coefficient arrays supported on |k| <= bandwidth."""
    count = 2 * bandwidth + 1
    parts = st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=2 * count,
        max_size=2 * count,
    )

    def build(vals):
        re = np.array(vals[:count])
        im = np.array(vals[count:])
        c = np.zeros(n, dtype=np.complex128)
        ks = np.arange(-bandwidth, bandwidth + 1)
        c[ks % n] = re + 1j * im
        return c

    return parts.map(build)


def hermitian_coeffs(n: int):
    """Strategy: exactly Hermitian ``banded_coeffs`` over all n modes, with a
    nonzero (real) Nyquist coefficient."""

    def build(c):
        c = 0.5 * (c + np.conj(c[(-np.arange(n)) % n]))
        c[n // 2] = 0.5 + abs(c[n // 2].real)
        return c

    return banded_coeffs(n, n // 2).map(build)

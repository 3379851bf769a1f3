import ast
import dataclasses
import functools
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lowreg
from conftest import (
    banded_coeffs, hermitian_coeffs, mode_field, rough_field_on, save_trajectory_arrays, seeds,
)
from lowreg import (
    BlowUpError,
    Nonlinearity,
    RoughDataSpec,
    SpectralField,
    TorusGrid,
    WaveState,
    derivative,
    from_physical,
    hermitian_defect,
    hermitian_part,
    lebesgue_norm,
    null_form_field,
    random_rough_field,
    read_trajectory,
    regrid,
    run_nls,
    run_wave,
    sobolev_norm,
    spacetime_norm,
    to_physical,
    trajectory_of,
    write_trajectory,
    zero_field,
)
from lowreg import torus_spectral, wave_integrators
from lowreg.nls_integrators import _nls_snapshots
from lowreg.torus_spectral import (
    PaddedPair,
    RealPaddedPair,
    _conj_perm,
    _half_pair,
    conjugate,
    evolve,
    full_spectrum,
    half_spectrum,
    rough_wave_state,
    steps_for,
    unit_uniform,
)
from lowreg.wave_integrators import _wave_snapshots
from oracles import convolution_project, decay_norm_sq

TWO_PI = 2.0 * np.pi


# --- grid and field validation ----------------------------------------------


def test_grid_freqs_cover_symmetric_band_plus_nyquist(grid16):
    assert sorted(grid16.freqs) == list(range(-8, 8))
    assert grid16.points[0] == 0.0
    assert np.allclose(np.diff(grid16.points), TWO_PI / 16)


# 2^50 modes is too large to allocate: numpy refuses it at once, without
# touching memory.
@pytest.mark.parametrize("n", [4, 12, 20, 0, -16, 2**50])
def test_grid_rejects_bad_sizes(n):
    with pytest.raises(ValueError, match=f"n_modes.* {n}"):
        TorusGrid(n)


def test_real_flag_requires_hermitian_coefficients(grid16):
    c = np.zeros(16, dtype=np.complex128)
    c[1] = 1.0  # no matching conjugate at k = -1
    with pytest.raises(ValueError):
        SpectralField(grid16, c, is_real=True)
    c[-1] = 1.0
    SpectralField(grid16, c, is_real=True)


def test_real_flag_check_survives_coefficients_near_the_float_limit():
    grid = TorusGrid(8)
    c = np.zeros(8, dtype=np.complex128)
    c[1], c[2] = 1e308, 1j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="relative defect 1.414e"):
            SpectralField(grid, c, is_real=True)
        c[2], c[-1] = 0.0, 1e308
        assert SpectralField(grid, c, is_real=True).is_real


def test_real_flag_refuses_a_non_finite_defect():
    grid = TorusGrid(8)
    c = np.zeros(8, dtype=np.complex128)
    c[1], c[2] = np.inf, 1j  # no partner for either at k = -1, -2
    with pytest.raises(ValueError, match="relative defect nan"):
        SpectralField(grid, c, is_real=True)
    c[-1], c[-2] = np.inf, -1j
    assert SpectralField(grid, c, is_real=True).is_real
    c[:] = np.nan  # NaN parts mirrored onto NaN parts
    assert SpectralField(grid, c, is_real=True).is_real


def test_real_flag_takes_an_exactly_hermitian_array_without_measuring_it(monkeypatch):
    def unmeasured(coeffs):
        raise AssertionError("an exactly Hermitian array was measured")

    monkeypatch.setattr(torus_spectral, "hermitian_defect", unmeasured)
    x = np.exp(1j * np.arange(5.0))  # a half-spectrum at N = 8
    assert SpectralField(TorusGrid(8), full_spectrum(x), is_real=True).is_real


def test_wave_state_requires_shared_grid_and_real_fields(grid16, grid32):
    u = zero_field(grid16)
    with pytest.raises(ValueError):
        WaveState(u, zero_field(grid32))
    with pytest.raises(ValueError):
        WaveState(u, zero_field(grid16, is_real=False))


def test_wave_state_stores_one_read_only_stacked_half_spectrum(grid32):
    u = rough_field_on(grid32, 4, real_valued=True)
    v = rough_field_on(grid32, 5, theta=0.0, real_valued=True)
    w = WaveState(u, v)
    s = _half_pair(w)
    assert s is _half_pair(w)  # the storage itself, not a copy
    assert s.shape == (2, 17) and not s.flags.writeable
    with pytest.raises(ValueError):
        s[0, 1] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.u = v
    # random_rough_field stores the imaginary parts at k = 0 and N/2 as +0.0,
    # as full_spectrum builds them, so u and v come back bit for bit.
    for got, given in ((w.u, u), (w.v, v)):
        assert got.is_real and got.coeffs.tobytes() == given.coeffs.tobytes()
    assert w.u is not w.u  # each access builds a new field


@pytest.mark.parametrize("n", [16, 128])
@pytest.mark.parametrize("seed", range(4))
def test_nonlinear_coeffs_form_u_x_from_the_stored_half(n, seed, monkeypatch):
    """The u_x row that the g/h/b maps and the null form synthesise is the
    half-spectrum of ``derivative(w.u, 1)``, bit for bit."""
    rng = np.random.default_rng(seed)
    grid = TorusGrid(n)
    re, im = rng.standard_normal((2, 2, n // 2 + 1))
    u, v = (SpectralField(grid, full_spectrum(x), True) for x in re + 1j * im)
    synthesised = []

    class Recording(RealPaddedPair):
        def values(self, x):
            synthesised.append(x.copy())
            return super().values(x)

    monkeypatch.setattr(wave_integrators, "RealPaddedPair", Recording)
    w = WaveState(u, v)
    wave_integrators._nonlinear_coeffs(w, lambda u, v, ux: ux)
    (rows,) = synthesised
    assert rows[2].tobytes() == half_spectrum(derivative(w.u, 1).coeffs).tobytes()


def test_conj_perm_is_built_once_per_size_and_read_only():
    perm = _conj_perm(16)
    assert perm is _conj_perm(16)
    assert not perm.flags.writeable
    freqs = TorusGrid(16).freqs
    assert np.array_equal(freqs[perm], np.where(freqs == -8, -8, -freqs))


def test_hermitian_part_is_an_exact_symmetric_projection(grid32):
    rng = np.random.default_rng(0)
    c = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    sym = hermitian_part(c)
    assert hermitian_defect(sym) == 0.0
    assert np.allclose(hermitian_part(sym), sym)
    real = rough_field_on(grid32, 5, real_valued=True)
    assert np.allclose(hermitian_part(real.coeffs), real.coeffs)


# --- transforms ---------------------------------------------------------------


def test_to_physical_single_mode_gives_complex_exponential(grid16):
    f = mode_field(grid16, 1)
    assert np.allclose(to_physical(f), np.exp(1j * grid16.points), atol=1e-14)


def test_to_physical_zero_field_is_zero(grid16):
    assert np.all(to_physical(zero_field(grid16)) == 0.0)


@given(seeds())
def test_transform_round_trip(seed):
    grid = TorusGrid(32)
    f = rough_field_on(grid, seed)
    back = from_physical(to_physical(f), grid)
    assert np.linalg.norm(back.coeffs - f.coeffs) <= 1e-12 * np.linalg.norm(f.coeffs)


def test_from_physical_constant_and_cosine(grid16):
    const = from_physical(np.full(16, 2.5 + 0j), grid16)
    assert const.coeffs[0] == pytest.approx(2.5)
    assert np.allclose(np.delete(const.coeffs, 0), 0.0)

    cos = from_physical(np.cos(grid16.points), grid16)
    assert cos.coeffs[1] == pytest.approx(0.5)
    assert cos.coeffs[-1] == pytest.approx(0.5)
    assert cos.is_real


def test_from_physical_rejects_wrong_sample_count(grid16):
    with pytest.raises(ValueError):
        from_physical(np.zeros(17), grid16)


@pytest.mark.parametrize("n", [8, 16, 64])
@given(data=st.data())
def test_half_spectrum_round_trip_is_exact(n, data):
    c = data.draw(hermitian_coeffs(n))
    half = half_spectrum(c)
    assert half.shape == (n // 2 + 1,)
    assert half[n // 2] == 0.5 * c[n // 2]
    back = full_spectrum(half)
    assert np.array_equal(back, c)
    assert hermitian_defect(back) == 0.0


@pytest.mark.parametrize("n", [8, 16, 64])
@given(data=st.data())
def test_padded_real_values_match_the_complex_pair(n, data):
    # On Hermitian input the complex pair's one-sided Nyquist exponential has
    # the real pair's cosine as its real part.
    c = data.draw(hermitian_coeffs(n))
    (expected,) = PaddedPair(n).values(c).real
    got = RealPaddedPair(n).values(half_spectrum(c))
    assert got.shape == (2 * n,)
    assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)


def check_padded_real_coeffs(spectrum: np.ndarray) -> None:
    """The real pair's truncation of the real samples of a 2n ``spectrum``
    against the complex pair's.  FFT roundoff scales with the samples' whole
    2n spectrum, not with the retained band, which may hold nothing."""
    values = np.fft.ifft(spectrum).real * spectrum.size
    n = spectrum.size // 2
    expected = PaddedPair(n).coeffs(values)
    got = full_spectrum(RealPaddedPair(n).coeffs(values))
    scale = np.linalg.norm(np.fft.fft(values, norm="forward"))
    assert np.linalg.norm(got - expected) <= 1e-14 * scale


@pytest.mark.parametrize("n", [8, 16, 64])
@given(data=st.data())
def test_padded_real_coeffs_match_the_complex_pair(n, data):
    # Real samples on the 2n grid with content at every wavenumber there.
    check_padded_real_coeffs(data.draw(banded_coeffs(2 * n, n)))


def test_padded_real_coeffs_match_the_complex_pair_outside_the_band():
    # A drawn case: one coefficient at k = -9 of the 32-point grid (N = 16),
    # so the retained band holds roundoff only.
    spectrum = np.zeros(32, dtype=np.complex128)
    spectrum[-9] = 1.0
    check_padded_real_coeffs(spectrum)


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_batched_padded_pair_matches_row_by_row_calls(n):
    rng = np.random.default_rng(n)
    c = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    pair, single = PaddedPair(n, rows=3), PaddedPair(n)
    values = pair.values(*c)
    assert values.shape == (3, 2 * n)
    back = pair.coeffs(values.reshape(3, 1, 2 * n))
    assert back.shape == (3, 1, n)
    for i in range(3):
        assert np.array_equal(values[i], single.values(c[i])[0])
        assert np.array_equal(back[i, 0], single.coeffs(values[i]))


def test_padded_pair_workspace_is_reusable():
    rng = np.random.default_rng(5)
    a, b, c = rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32))
    pair = PaddedPair(32, rows=2)
    u, v = pair.values(a, b)
    (u_alone,) = PaddedPair(32).values(a)
    (v_alone,) = PaddedPair(32).values(b)
    assert np.array_equal(u, u_alone)
    assert np.array_equal(v, v_alone)
    (w,) = pair.values(c)
    assert np.shares_memory(w, u)
    fresh = PaddedPair(32)
    assert np.array_equal(w, fresh.values(c)[0])
    coeffs = pair.coeffs(w)
    expected = fresh.coeffs(fresh.values(c)[0])
    assert np.array_equal(coeffs, expected)
    pair.values(a, b)
    assert np.array_equal(coeffs, expected)


def test_padded_pair_truncates_into_a_given_array():
    rng = np.random.default_rng(6)
    values = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    pair, out = PaddedPair(32), np.empty(32, dtype=np.complex128)
    assert pair.coeffs(values, out=out) is out
    assert np.array_equal(out, PaddedPair(32).coeffs(values))


def test_padded_pairs_refuse_more_rows_than_they_hold():
    three = np.ones((3, 8), dtype=np.complex128)
    message = "3 rows given, but the workspace holds 2"
    pair, real = PaddedPair(8, rows=2), RealPaddedPair(8, rows=2)
    for transform, rows in [
        (lambda x: pair.values(*x), three),
        (pair.coeffs, np.ones((3, 16), dtype=np.complex128)),
        (pair.coeffs, np.ones((3, 1, 16), dtype=np.complex128)),
        (real.values, three[:, :5]),
        (real.coeffs, np.ones((3, 16))),
        (real.coeffs, np.ones((1, 3, 16))),
    ]:
        with pytest.raises(ValueError, match=message):
            transform(rows)


@pytest.mark.parametrize("n", [8, 64, 1024])
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_batched_real_pair_matches_row_by_row_calls(n, rows):
    rng = np.random.default_rng(10 * n + rows)
    x = rng.standard_normal((rows, n // 2 + 1)) + 1j * rng.standard_normal((rows, n // 2 + 1))
    pair, single = RealPaddedPair(n, rows), RealPaddedPair(n)
    values = pair.values(x)
    assert values.shape == (rows, 2 * n)
    back = pair.coeffs(values)
    assert back.shape == x.shape
    for i in range(rows):
        assert np.array_equal(values[i], single.values(x[i]))
        assert np.array_equal(values[i], np.fft.irfft(x[i], 2 * n, norm="forward"))
        plain = np.fft.rfft(values[i], norm="forward")[: n // 2 + 1]
        plain[-1] = plain[-1].real
        assert np.array_equal(back[i], single.coeffs(values[i]))
        assert np.array_equal(back[i], plain)


def test_real_padded_pair_workspace_is_reusable():
    rng = np.random.default_rng(7)
    a, b, c = rng.standard_normal((3, 17)) + 1j * rng.standard_normal((3, 17))
    pair, fresh = RealPaddedPair(32, rows=2), RealPaddedPair(32)
    u, v = pair.values(np.stack([a, b]))
    assert np.array_equal(u, fresh.values(a))
    assert np.array_equal(v, fresh.values(b))
    w = pair.values(c)
    assert w.shape == (64,)
    assert np.shares_memory(w, u)
    assert np.array_equal(w, fresh.values(c))
    coeffs = pair.coeffs(w)
    expected = fresh.coeffs(fresh.values(c)).copy()
    assert np.array_equal(coeffs, expected)
    pair.values(np.stack([a, b]))
    assert np.array_equal(coeffs, expected)
    both = pair.coeffs(pair.values(np.stack([b, c])))
    assert np.array_equal(both[0], fresh.coeffs(fresh.values(b)))
    assert np.array_equal(both[1], expected)


def references(tree: ast.Module, names) -> list[tuple[str, int, bool]]:
    """(top-level def or class, line, called) of each reference in a module to
    a dotted name ending in one of ``names``, such as ``np.fft.rfft`` to
    ``fft.rfft``, imports included; ``called`` says the reference is called."""

    def dotted(node):
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    uses = []
    for top in tree.body:
        scope = getattr(top, "name", "<module>")
        calls = {id(node.func) for node in ast.walk(top) if isinstance(node, ast.Call)}
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                paths = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                paths = [dotted(node)]
            if any(path and (path in names or path.endswith(tuple("." + n for n in names)))
                   for path in paths):
                uses.append((scope, node.lineno, id(node) in calls))
    return uses


def package_references(names) -> list[tuple[str, str, int, bool]]:
    """(module file, scope, line, called) of each reference in the package."""
    package = pathlib.Path(lowreg.__file__).parent
    return [
        (path.name, *use)
        for path in sorted(package.glob("*.py"))
        for use in references(ast.parse(path.read_text(encoding="utf-8")), names)
    ]


def callers(names) -> set[str]:
    return {f"{module}:{scope}" for module, scope, _, called in package_references(names)
            if called}


# The one padded-transform engine: numpy's transforms are called only by the
# two padded pairs and the plain N-point evaluation and interpolation.
TRANSFORMS = {"fft.fft", "fft.ifft", "fft.rfft", "fft.irfft"}
ENGINE = {"PaddedPair", "RealPaddedPair", "to_physical", "from_physical"}


def test_only_the_padded_pairs_and_the_point_evaluations_call_the_fft():
    outside, engine = [], set()
    for module, scope, line, _ in package_references(TRANSFORMS):
        if module == "torus_spectral.py" and scope in ENGINE:
            engine.add(scope)
        else:
            outside.append(f"{module}:{line} in {scope}")
    assert outside == []
    assert engine == ENGINE


# The one run path: no package code calls a runner, the paused runs that they
# drain are called only by the runners, evolve only by the paused runs, and
# every multi-step run hands its horizon and snapshot count to _solve.  The
# study driver runs a scheme only as a paused run, so it names neither runner;
# diagnostics measures the snapshots it is given and names no run at all; and
# no run shows its snapshots to an observer.
def test_every_multi_step_run_goes_through_solve():
    assert callers({"run_nls", "run_wave"}) == set()
    assert callers({"_nls_snapshots", "_wave_snapshots"}) == {
        "nls_integrators.py:run_nls",
        "wave_integrators.py:run_wave",
    }
    assert callers({"evolve"}) == {
        "nls_integrators.py:_nls_snapshots",
        "wave_integrators.py:_wave_snapshots",
    }
    assert callers({"_solve"}) == {
        "nls_integrators.py:nls_reference_solve",
        "wave_integrators.py:wave_reference_solve",
        "study_cli.py:_run_scheme",
    }
    assert [use for use in package_references({"run_nls", "run_wave"})
            if use[0] == "study_cli.py"] == []
    runs = {"run_nls", "run_wave", "_solve", "evolve", "_nls_snapshots", "_wave_snapshots",
            "_run_scheme"}
    assert [use for use in package_references(runs) if use[0] == "diagnostics.py"] == []
    package = pathlib.Path(lowreg.__file__).parent
    diagnostics = ast.parse((package / "diagnostics.py").read_text(encoding="utf-8"))
    assert "nls_integrators" not in {node.module for node in ast.walk(diagnostics)
                                     if isinstance(node, ast.ImportFrom)}
    observed = [
        f"{path.name}:{node.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(a, ast.arg) and a.arg == "observe" for a in ast.walk(node.args))
    ]
    assert observed == []


# One snapshot type and one distance: the stacked half pair of a wave state is
# read and wrapped only by the modules that step and measure it, and the study
# driver measures every error as norm(difference(state, ref)), so it names
# none of the raw-array norm helpers.
def test_only_the_wave_modules_touch_the_stacked_half_pair():
    users = {module for module, *_ in package_references({"_half_pair", "_full_pair"})}
    assert users <= {"torus_spectral.py", "wave_integrators.py", "diagnostics.py"}
    assert [use for use in package_references({"_sobolev_weights", "_weighted_norm"})
            if use[0] == "study_cli.py"] == []


# A small surface: every name the package exports is used, outside its own
# definition, by the package, a script, the benchmark or an acceptance test.
def test_every_exported_name_is_used_outside_the_unit_tests():
    package = pathlib.Path(lowreg.__file__).parent
    root = pathlib.Path(__file__).parent.parent
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    users = [*(path for path in package.glob("*.py") if path.name != "__init__.py"),
             *root.glob("scripts/*.py"), *root.glob("benchmark/*.py"),
             root / "tests" / "test_acceptance.py"]
    used = set()
    for path in users:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))}
            used |= names - {getattr(top, "name", None)}
    assert [name for name in exported if name not in used] == []


# --- derivative ----------------------------------------------------------------


def test_derivative_of_sine_is_cosine(grid16):
    f = from_physical(np.sin(grid16.points), grid16)
    df = derivative(f, 1)
    assert np.allclose(to_physical(df).real, np.cos(grid16.points), atol=1e-13)
    assert df.is_real


def test_second_derivative_of_plane_wave(grid16):
    f = mode_field(grid16, 2)
    d2 = derivative(f, 2)
    assert np.allclose(d2.coeffs, -4.0 * f.coeffs)


def test_derivative_of_constant_vanishes(grid16):
    f = mode_field(grid16, 0, 7.0)
    assert np.all(derivative(f, 1).coeffs == 0.0)
    assert np.all(derivative(f, 2).coeffs == 0.0)


def test_first_derivative_zeroes_nyquist_second_keeps_it(grid16):
    f = mode_field(grid16, 8)  # the unpaired -N/2 mode
    assert np.all(derivative(f, 1).coeffs == 0.0)
    assert derivative(f, 2).coeffs[8] == pytest.approx(-64.0)


@given(seeds())
def test_derivative_composition_matches_order_two_off_nyquist(seed):
    grid = TorusGrid(32)
    f = rough_field_on(grid, seed)
    twice = derivative(derivative(f, 1), 1)
    second = derivative(f, 2)
    keep = np.arange(32) != grid.nyquist_index
    assert np.allclose(twice.coeffs[keep], second.coeffs[keep], atol=1e-12)


# --- dealiased products ---------------------------------------------------------


def padded_product(*arrays):
    """The steppers' alias-free product of FFT-order coefficient arrays: the
    complex pair's nodal values, multiplied pointwise and transformed back."""
    pair = PaddedPair(arrays[0].size, len(arrays))
    return pair.coeffs(np.prod(pair.values(*arrays), axis=0))


def test_cubic_product_of_single_mode(grid16):
    e1 = mode_field(grid16, 1)
    out = padded_product(e1.coeffs, e1.coeffs, conjugate(e1).coeffs)
    expected = np.zeros(16, dtype=np.complex128)
    expected[1] = 1.0
    assert np.allclose(out, expected, atol=1e-14)


def test_product_of_constants(grid16):
    a = mode_field(grid16, 0, 2.0 + 1.0j)
    b = mode_field(grid16, 0, -3.0)
    out = padded_product(a.coeffs, b.coeffs)
    assert out[0] == pytest.approx(-6.0 - 3.0j)
    assert np.allclose(np.delete(out, 0), 0.0)


def test_high_mode_square_does_not_alias_into_low_modes(grid16):
    # (e^{i7x})^2 = e^{i14x} lies outside the 16-mode band; an unpadded
    # product would wrap it onto k = -2, the padded one must drop it.
    e7 = mode_field(grid16, 7)
    out = padded_product(e7.coeffs, e7.coeffs)
    assert np.allclose(out, 0.0, atol=1e-14)
    oracle = convolution_project([e7.coeffs, e7.coeffs], 16)
    assert np.allclose(out, oracle, atol=1e-14)

    aliased = from_physical(to_physical(e7) ** 2, grid16)
    assert abs(aliased.coeffs[-2]) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [16, 32])
@given(data=st.data())
def test_banded_products_match_exact_convolution(n, data):
    bw = n // 3
    count = data.draw(st.integers(2, 3))
    arrays = [data.draw(banded_coeffs(n, bw)) for _ in range(count)]
    out = padded_product(*arrays)

    oracle = convolution_project(arrays, n)
    scale = max(np.linalg.norm(oracle), 1.0)
    assert np.linalg.norm(out - oracle) <= 1e-12 * scale


def test_real_products_read_the_nyquist_mode_as_a_cosine():
    # Every seeded real rough field has a Nyquist coefficient; its square is
    # that of the cosine ``regrid`` embeds on the doubled grid, truncated back.
    f = random_rough_field(RoughDataSpec(theta=1.0, seed=3), TorusGrid(16))
    assert f.coeffs[8] != 0.0
    # The real pair takes the field as a half-spectrum, as the wave steppers do.
    pair = RealPaddedPair(16, 2)
    values = pair.values(np.stack([half_spectrum(f.coeffs)] * 2))
    square = full_spectrum(pair.coeffs(np.prod(values, axis=0)))
    fine = TorusGrid(32)
    values = to_physical(regrid(f, fine)).real
    expected = regrid(from_physical(values * values, fine), f.grid)
    assert np.allclose(square, expected.coeffs, rtol=0.0, atol=1e-14)


# --- norms ----------------------------------------------------------------------


def test_sobolev_norm_of_single_mode(grid16):
    assert sobolev_norm(mode_field(grid16, 1), 1.0) == pytest.approx(np.sqrt(2.0))
    assert sobolev_norm(zero_field(grid16), 1.0) == 0.0


@given(seeds())
def test_plancherel_identity(seed):
    grid = TorusGrid(64)
    f = rough_field_on(grid, seed)
    coeff_l2 = sobolev_norm(f, 0.0)
    phys = to_physical(f)
    phys_l2 = np.sqrt(np.mean(np.abs(phys) ** 2))
    assert phys_l2 == pytest.approx(coeff_l2, rel=1e-12)
    assert lebesgue_norm(f, 2) == pytest.approx(np.sqrt(TWO_PI) * coeff_l2, rel=1e-12)


def test_lebesgue_norm_of_constants(grid16):
    f = mode_field(grid16, 0, -1.5)
    assert lebesgue_norm(f, 2) == pytest.approx(1.5 * TWO_PI ** 0.5)
    assert lebesgue_norm(f, 4) == pytest.approx(1.5 * TWO_PI ** 0.25)


def test_lebesgue_norm_of_unimodular_wave(grid16):
    assert lebesgue_norm(mode_field(grid16, 1), 4) == pytest.approx(TWO_PI ** 0.25)


def test_quartic_norm_of_cosine(grid32):
    f = from_physical(np.cos(grid32.points), grid32)
    # int cos^4 over the circle is 3*pi/4; cross-check by dense quadrature.
    x = np.linspace(0.0, TWO_PI, 20001)
    dense = np.trapezoid(np.cos(x) ** 4, x)
    assert dense == pytest.approx(3.0 * np.pi / 4.0, rel=1e-9)
    assert lebesgue_norm(f, 4) ** 4 == pytest.approx(3.0 * np.pi / 4.0, rel=1e-12)


def test_lebesgue_norm_rejects_unsupported_exponent(grid16):
    with pytest.raises(ValueError):
        lebesgue_norm(zero_field(grid16), 3)
    with pytest.raises(ValueError):
        lebesgue_norm(zero_field(grid16), np.inf)


def rectangle_rule_norm(f: SpectralField, p: int) -> float:
    """L^p norm by the rectangle rule on 8N points: each coefficient is put
    at its wavenumber modulo 8N and one plain inverse FFT gives the values."""
    m = 8 * f.grid.n_modes
    padded = np.zeros(m, dtype=np.complex128)
    padded[f.grid.freqs % m] = f.coeffs
    values = np.abs(np.fft.ifft(padded) * m)
    return float((TWO_PI / m * np.sum(values**p)) ** (1.0 / p))


@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("n", [8, 64, 256])
def test_lebesgue_norms_are_exact(n, p):
    """L^2 by Parseval and L^4 on the 2N grid agree with a rule on 8N points,
    exact for both: |u|^4 has no wavenumber beyond 2N - 2."""
    grid = TorusGrid(n)
    rng = np.random.default_rng(n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert c[n // 2] != 0.0
    null_form = null_form_field(rough_wave_state(RoughDataSpec(theta=1.0, seed=n), grid))
    assert null_form.is_real
    for f in (SpectralField(grid, c), null_form):
        assert lebesgue_norm(f, p) == pytest.approx(rectangle_rule_norm(f, p), rel=1e-13)


def test_spacetime_norm_of_time_constant_field(grid16):
    f = from_physical(np.cos(grid16.points), grid16)
    T = 0.75
    samples = [f] * 7
    value = spacetime_norm(samples, T / 6, 4)
    assert value == pytest.approx(T ** 0.25 * lebesgue_norm(f, 4), rel=1e-12)


def test_spacetime_norm_of_zero_trajectory(grid16):
    z = zero_field(grid16)
    assert spacetime_norm([z, z, z], 0.1, 2) == 0.0


def test_spacetime_norm_matches_closed_form_trapezoid(grid16):
    # Scalar samples growing linearly in time: the trapezoid sum is exact
    # and computable by hand.
    values = [1.0 + 0.5 * j for j in range(5)]
    samples = [mode_field(grid16, 0, v) for v in values]
    dt = 0.25
    powered = [(v * TWO_PI ** 0.5) ** 2 for v in values]
    expected = (dt * (sum(powered) - 0.5 * (powered[0] + powered[-1]))) ** 0.5
    assert spacetime_norm(samples, dt, 2) == pytest.approx(expected, rel=1e-14)


def test_spacetime_norm_rejects_degenerate_input(grid16):
    with pytest.raises(ValueError):
        spacetime_norm([zero_field(grid16)], 0.1, 2)


@pytest.mark.parametrize("p", [2, 4])
def test_spacetime_norm_takes_a_generator_in_one_pass(grid32, p):
    samples = [rough_field_on(grid32, seed) for seed in range(6)]
    expected = spacetime_norm(samples, 0.125, p)
    assert spacetime_norm((s for s in samples), 0.125, p).hex() == expected.hex()


@pytest.mark.parametrize("count", [0, 1])
def test_spacetime_norm_rejects_short_generators(grid16, count):
    samples = (zero_field(grid16) for _ in range(count))
    with pytest.raises(ValueError, match="needs at least 2 samples"):
        spacetime_norm(samples, 0.1, 2)


@pytest.mark.parametrize("dt", [0.0, -0.1])
def test_spacetime_norm_rejects_nonpositive_steps(grid16, dt):
    samples = [zero_field(grid16)] * 3
    with pytest.raises(ValueError, match="dt must be > 0"):
        spacetime_norm(iter(samples), dt, 2)
    # A single sample breaks both rules; the sample count is checked first.
    with pytest.raises(ValueError, match="needs at least 2 samples"):
        spacetime_norm(iter(samples[:1]), dt, 2)


# --- seeded rough data -----------------------------------------------------------


def test_rough_field_magnitudes_follow_the_decay_law(grid64):
    spec = RoughDataSpec(theta=1.0, seed=11, delta=0.01, real_valued=False,
                         amplitude=0.5)
    f = random_rough_field(spec, grid64)
    k = np.abs(grid64.freqs.astype(np.float64))
    expected = 0.5 * (1.0 + k) ** (-(1.0 + 0.5 + 0.01))
    assert np.allclose(np.abs(f.coeffs), expected, rtol=1e-14)


def test_rough_field_is_deterministic_and_seed_sensitive(grid64):
    a = rough_field_on(grid64, 7)
    b = rough_field_on(grid64, 7)
    c = rough_field_on(grid64, 8)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.allclose(a.coeffs, c.coeffs)


@given(seeds())
def test_real_rough_field_passes_the_real_invariant(seed):
    grid = TorusGrid(32)
    f = rough_field_on(grid, seed, real_valued=True)
    assert f.is_real
    assert hermitian_defect(f.coeffs) <= 1e-12
    assert np.allclose(to_physical(f).imag, 0.0, atol=1e-13)


def test_rough_wave_state_draws_real_fields_from_any_spec():
    grid = TorusGrid(32)
    spec = RoughDataSpec(theta=1.0, seed=5, real_valued=False, amplitude=0.5)
    got = rough_wave_state(spec, grid, v_theta=0.5)
    want = rough_wave_state(dataclasses.replace(spec, real_valued=True), grid, v_theta=0.5)
    assert got.u.is_real and got.v.is_real
    assert np.array_equal(got.u.coeffs, want.u.coeffs)
    assert np.array_equal(got.v.coeffs, want.v.coeffs)


def test_refining_the_grid_keeps_existing_coefficients_bit_identical():
    spec = RoughDataSpec(theta=1.0, seed=3, real_valued=True)
    coarse = random_rough_field(spec, TorusGrid(64))
    fine = random_rough_field(spec, TorusGrid(128))
    for k in range(-31, 32):
        assert fine.coeffs[k % 128] == coarse.coeffs[k % 64]


def test_rough_field_norms_match_decay_law_partial_sums():
    spec = RoughDataSpec(theta=1.0, seed=42, delta=0.01, real_valued=False)
    norms = {}
    for n in (256, 512):
        grid = TorusGrid(n)
        f = random_rough_field(spec, grid)
        for r in (1.0, 2.0):
            predicted = np.sqrt(decay_norm_sq(grid.freqs, r, 1.0, 0.01))
            assert sobolev_norm(f, r) == pytest.approx(predicted, rel=1e-12)
            norms[(n, r)] = predicted
    # The H^2 norm keeps growing under refinement much faster than H^1 does.
    h1_growth = norms[(512, 1.0)] / norms[(256, 1.0)]
    h2_growth = norms[(512, 2.0)] / norms[(256, 2.0)]
    assert h1_growth < 1.08
    assert h2_growth > 1.38


def test_unit_uniform_is_deterministic_and_in_range():
    ks = np.arange(-16, 16)
    a = unit_uniform(123, ks, 0)
    assert np.array_equal(a, unit_uniform(123, ks, 0))
    assert np.all((a >= 0.0) & (a < 1.0))
    assert not np.allclose(a, unit_uniform(124, ks, 0))
    assert not np.allclose(a, unit_uniform(123, ks, 1))


# --- regridding --------------------------------------------------------------


@given(seeds())
def test_embed_then_coarsen_round_trips(seed):
    coarse = TorusGrid(32)
    fine = TorusGrid(64)
    f = rough_field_on(coarse, seed, real_valued=True)
    back = regrid(regrid(f, fine), coarse)
    assert np.allclose(back.coeffs, f.coeffs, atol=1e-15)


def test_embedding_preserves_shared_node_values(grid32):
    f = rough_field_on(grid32, 9, real_valued=True)
    fine = regrid(f, TorusGrid(64))
    assert fine.is_real
    coarse_values = to_physical(f).real
    fine_values = to_physical(fine).real
    assert np.allclose(fine_values[::2], coarse_values, atol=1e-13)


# --- serialization -------------------------------------------------------------


# Fields and wave states are written only as trajectory samples: a file of four
# .npy arrays, the times, the realness flags, the coefficients and the meta.
def load_arrays(path):
    with open(path, "rb") as fh:
        return [np.load(fh) for _ in range(4)]


def test_field_file_round_trip(tmp_path, grid32):
    f = rough_field_on(grid32, 21)
    path = tmp_path / "field.npy"
    write_trajectory(trajectory_of([f, f, f], 0.0, 1.0), path)
    g = read_trajectory(path).states[0]
    assert g.grid.n_modes == 32
    assert g.is_real == f.is_real
    assert np.array_equal(g.coeffs, f.coeffs)

    times, real, coeffs, meta = load_arrays(path)
    assert coeffs.shape == (3, 32) and np.array_equal(coeffs[0], f.coeffs)
    assert real.tolist() == [False] * 3 and meta.shape == (0, 2)

    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ValueError, match=r"field\.npy: unexpected array header"):
        read_trajectory(path)
    for coeffs_, real_, error in [
        (coeffs, [False, False], "do not make a trajectory"),
        (coeffs[:, :24], real, "n_modes must be a power of two"),
        (coeffs, [True, False, False], "Hermitian symmetry"),
        (coeffs, np.array([2, 0, 0], dtype=np.uint8).view(bool), "neither 0 nor 1"),
    ]:
        save_trajectory_arrays(path, coeffs_, real_)
        with pytest.raises(ValueError, match=rf"field\.npy: .*{error}"):
            read_trajectory(path)


def test_field_reader_does_not_trust_the_header_size(tmp_path):
    # Loading the coefficients this header declares would take 16 petabytes.
    path = tmp_path / "traj.npy"
    save_trajectory_arrays(path, np.zeros((3, 8)), [False] * 3)
    old, new = b"'shape': (3, 8), }", b"'shape': (1000000000000000,), }"
    data = path.read_bytes()
    path.write_bytes(data.replace(old + b" " * (len(new) - len(old)), new))
    assert path.stat().st_size == len(data)
    with pytest.raises(ValueError, match=r"traj\.npy: .*declares shape \(1000000000000000,\) and "
                       r"16000000000000000 bytes"):
        read_trajectory(path)


def test_field_reader_refuses_an_overflowing_real_record(tmp_path):
    # 1e308 at k = 1 with no partner at k = -1, and i at k = 2.
    c = np.zeros(8, dtype=np.complex128)
    c[1], c[2] = 1e308, 1j
    path = tmp_path / "traj.npy"
    save_trajectory_arrays(path, [c, c, c], [True] * 3)
    with pytest.raises(ValueError, match=r"traj\.npy: .*Hermitian symmetry"):
        read_trajectory(path)


def test_field_reader_refuses_a_real_record_with_a_nan_defect(tmp_path):
    # inf at k = 1 with no partner at k = -1, and i at k = 2.
    c = np.zeros(8, dtype=np.complex128)
    c[1], c[2] = np.inf, 1j
    path = tmp_path / "traj.npy"
    save_trajectory_arrays(path, [c, c, c], [True] * 3)
    with pytest.raises(ValueError, match=r"traj\.npy: .*Hermitian symmetry.*nan"):
        read_trajectory(path)


def test_wave_state_file_round_trip(tmp_path, grid32):
    w = WaveState(
        rough_field_on(grid32, 4, real_valued=True),
        rough_field_on(grid32, 5, theta=0.0, real_valued=True),
    )
    path = tmp_path / "state.npy"
    write_trajectory(trajectory_of([w, w, w], 0.0, 1.0), path)
    back = read_trajectory(path).states[0]
    assert np.array_equal(back.u.coeffs, w.u.coeffs)
    assert np.array_equal(back.v.coeffs, w.v.coeffs)

    # The coefficients are the stored half-spectrum pairs, shape (3, 2, N/2 + 1).
    times, real, coeffs, meta = load_arrays(path)
    assert coeffs.shape == (3, 2, 17) and np.array_equal(coeffs[0], _half_pair(w))
    assert real.all()

    path.write_bytes(path.read_bytes()[:1024])
    with pytest.raises(ValueError, match=r"state\.npy: the array at byte \d+ declares"):
        read_trajectory(path)
    # _full_pair would zero an imaginary part at k = 0 or N/2 without a word.
    for k in (0, 16):
        forged = coeffs.copy()
        forged[1, 0, k] += 1e-300j
        save_trajectory_arrays(path, forged, real)
        with pytest.raises(ValueError, match=r"state\.npy: .*k = 0 or N/2 entry is not real"):
            read_trajectory(path)
    for coeffs_, real_ in [(coeffs[:, :1], real), (coeffs, [True, False, True])]:
        save_trajectory_arrays(path, coeffs_, real_)
        with pytest.raises(ValueError, match=r"state\.npy: a wave state is a real \(u, v\) pair"):
            read_trajectory(path)


# --- the evolve loop -------------------------------------------------------------


def test_steps_for_refuses_more_than_2_to_the_40_steps():
    assert steps_for(1.0, 2.0**-40) == 2**40
    with pytest.raises(ValueError, match=r"more than 2\^40"):
        steps_for(1.0, 2.0**-41)


@pytest.mark.parametrize("equation, step", [("nls", 3), ("wave", 23)], ids=["nls", "wave"])
def test_runners_name_the_step_at_which_the_guard_trips(equation, step):
    """Both runners guard at BLOWUP_FACTOR times the initial size as their
    own stepper measures it."""
    if equation == "nls":
        run = functools.partial(run_nls, mode_field(TorusGrid(16), 0, 10.0), 0.25, 64, 1)
    else:
        grid = TorusGrid(8)
        u = SpectralField(grid, mode_field(grid, 0, 5.0).coeffs, is_real=True)
        run = functools.partial(run_wave, WaveState(u, zero_field(grid)), 2.0**-4, 256,
                                Nonlinearity.preset("quadratic"))
    with pytest.raises(BlowUpError, match=f"^norm guard tripped at step {step}$"):
        run()


def test_evolve_steps_only_when_asked_for_a_snapshot():
    taken = []

    def step(c):
        taken.append(1)
        return 2.0 * c

    run = evolve(np.ones(4, dtype=np.complex128), step, lambda c: 1.0, 6, 2)
    assert next(run)[0] == 0 and taken == []
    j, c = next(run)
    assert j == 2 and len(taken) == 2 and np.array_equal(c, np.full(4, 4.0))
    assert [j for j, _ in run] == [4, 6] and len(taken) == 6


@pytest.mark.parametrize("equation", ["nls", "wave"])
def test_a_paused_run_hands_out_snapshots_no_later_step_overwrites(equation):
    grid = TorusGrid(16)
    if equation == "nls":
        u0 = rough_field_on(grid, 4, amplitude=0.5)
        paused = functools.partial(_nls_snapshots, u0, 0.01, 8, 1)
        run = functools.partial(run_nls, u0, 0.01, 8, 1)

        def arrays(u):
            return [u.coeffs]
    else:
        w = rough_wave_state(RoughDataSpec(theta=1.0, seed=4, amplitude=0.5), grid)
        nl = Nonlinearity.preset("quadratic")
        paused = functools.partial(_wave_snapshots, w, 0.01, 8, nl)
        run = functools.partial(run_wave, w, 0.01, 8, nl)

        def arrays(w):
            return [w.u.coeffs, w.v.coeffs]
    # The snapshots are kept as they come, each with a copy of its arrays
    # taken then: no later step overwrites them.
    kept = [(j, state, [a.copy() for a in arrays(state)])
            for j, state in paused(record_every=2)]
    assert [j for j, *_ in kept] == [0, 2, 4, 6, 8]
    for (_, state, copies), recorded in zip(kept, run(record_every=2), strict=True):
        assert type(state) is type(recorded)
        for got, then, want in zip(arrays(state), copies, arrays(recorded)):
            assert np.array_equal(got, then) and np.array_equal(got, want)
    assert [j for j, _ in paused()] == [8]  # without a stride, just the terminal state


def _runner(equation):
    """``run(tau, n_steps, **kwargs)`` of ``equation`` on a rough datum at N = 16."""
    grid = TorusGrid(16)
    if equation == "nls":
        u0 = rough_field_on(grid, 3)
        return functools.partial(run_nls, u0, mu=1)
    w0 = rough_wave_state(RoughDataSpec(theta=1.0, seed=3, amplitude=0.5), grid)
    return functools.partial(run_wave, w0, nl=Nonlinearity.preset("quadratic"))


# Unchecked, a stride of 3 or 4 in 10 steps stops at step 9 or 8, short of
# the terminal state; -2 records 6 states; -5 steps return the initial state
# as the terminal one.
@pytest.mark.parametrize("n_steps, record_every", [(10, 3), (10, 4), (10, -2), (-5, None)],
                         ids=["stride-3-in-10", "stride-4-in-10", "negative-stride",
                              "negative-steps"])
@pytest.mark.parametrize("equation", ["nls", "wave"])
def test_a_run_refuses_a_stride_or_step_count_that_misses_its_end(equation, n_steps,
                                                                   record_every):
    run = _runner(equation)
    with pytest.raises(ValueError, match="n_steps"):
        run(0.01, n_steps, record_every=record_every)


@pytest.mark.parametrize("equation", ["nls", "wave"])
def test_a_dividing_stride_ends_on_the_terminal_state_bit_for_bit(equation):
    def raw(state):
        fields = (state.u, state.v) if isinstance(state, WaveState) else (state,)
        return b"".join(f.coeffs.tobytes() for f in fields)

    run = _runner(equation)
    recorded = run(0.01, 10, record_every=5)
    assert len(recorded) == 3
    assert raw(recorded[-1]) == raw(run(0.01, 10)[-1])
    # Zero steps record the initial state alone, with or without a stride.
    assert all(len(run(0.01, 0, record_every=every)) == 1 for every in (None, 0, 3))

"""Independent numerical oracles used to pin expected values in the tests.

Everything here is implemented from first principles (quadrature rules,
truncated series, scipy's ODE integrator) without importing the package under
test, so agreement between the two is meaningful evidence rather than a
tautology.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import solve_ivp


# --- quadrature -------------------------------------------------------------


def _gl_nodes(a: float, b: float, panels: int, order: int = 12):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    x, w = leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


def unit_phase_average(x: float) -> complex:
    """int_0^1 exp(i*x*t) dt by composite Gauss-Legendre quadrature.

    The panel count scales with the total phase so each panel sees at most
    about two radians of oscillation.
    """
    panels = max(4, int(np.ceil(abs(x) / 2.0)))
    t, w = _gl_nodes(0.0, 1.0, panels)
    return complex(np.sum(w * np.exp(1j * x * t)))


def phi1_multiplier_quadrature(tau: float, k: int) -> complex:
    """Time average (1/tau) int_0^tau exp(2*i*s*k^2) ds."""
    return unit_phase_average(2.0 * tau * k * k)


def phi1_multiplier_rectangle(tau: float, k: int, n: int = 10_000) -> complex:
    """The same time average by an n-point midpoint rectangle rule."""
    s = (np.arange(n) + 0.5) * (tau / n)
    return complex(np.mean(np.exp(2j * s * k * k)))


def phi2_block_quadrature(tau: float, k: int) -> np.ndarray:
    """(1/tau^2) int_0^tau (tau - s) expm(-2*s*A_k) ds as a 2x2 real block.

    A_k is the per-mode generator [[0, 1], [-k^2, 0]].  Its exponential is
    taken in the closed rotation form, which test_wave_flow_matches_series
    certifies against series/Pade matrix exponentials before this oracle is
    trusted.
    """
    phase = 2.0 * abs(k) * tau
    panels = max(4, int(np.ceil(phase)))
    s, w = _gl_nodes(0.0, tau, panels)
    if k == 0:
        b00 = np.ones_like(s)
        b01 = -2.0 * s
        b10 = np.zeros_like(s)
    else:
        b00 = np.cos(2.0 * k * s)
        b01 = -np.sin(2.0 * k * s) / k
        b10 = k * np.sin(2.0 * k * s)
    factor = (tau - s) * w / tau**2
    return np.array(
        [
            [np.sum(factor * b00), np.sum(factor * b01)],
            [np.sum(factor * b10), np.sum(factor * b00)],
        ]
    )


def phi2_zero_mode_rectangle(tau: float, n: int = 10_000) -> np.ndarray:
    """(1/tau^2) int_0^tau (tau - s) [[1, -2s], [0, 1]] ds, midpoint rule."""
    s = (np.arange(n) + 0.5) * (tau / n)
    factor = (tau - s) / n / tau
    return np.array(
        [
            [np.sum(factor), np.sum(factor * (-2.0 * s))],
            [0.0, np.sum(factor)],
        ]
    )


def matexp_series(m: np.ndarray, terms: int = 20) -> np.ndarray:
    """Plain truncated Taylor series of the matrix exponential."""
    m = np.asarray(m, dtype=np.float64)
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for j in range(1, terms):
        term = term @ m / j
        out = out + term
    return out


# --- exact coefficient convolution ------------------------------------------


def _fft_index_to_k(i: int, n: int) -> int:
    return i if i < n // 2 else i - n


def convolution_project(arrays, n: int) -> np.ndarray:
    """Exact integer convolution of FFT-order coefficient arrays, projected
    onto the n-mode grid the way 2x-padded pointwise multiplication acts.

    The product of 2 or 3 factors lives on wavenumbers up to 3n/2; sampling
    on the 2n grid aliases mod 2n, and the final restriction keeps
    |k| <= n/2 with the +n/2 line folded onto -n/2.
    """
    conv = {}
    for i, v in enumerate(np.asarray(arrays[0], dtype=np.complex128)):
        if v != 0:
            conv[_fft_index_to_k(i, n)] = v
    for arr in arrays[1:]:
        nxt = {}
        for i, v in enumerate(np.asarray(arr, dtype=np.complex128)):
            if v == 0:
                continue
            k2 = _fft_index_to_k(i, n)
            for k1, v1 in conv.items():
                key = k1 + k2
                nxt[key] = nxt.get(key, 0.0) + v1 * v
        conv = nxt
    out = np.zeros(n, dtype=np.complex128)
    h = n // 2
    for k, v in conv.items():
        k2 = ((k + n) % (2 * n)) - n
        if -h <= k2 < h:
            out[k2 % n] += v
        elif k2 == h:
            out[h] += v
    return out


# --- reference ODE solutions ------------------------------------------------


def _pad(c: np.ndarray, m: int) -> np.ndarray:
    n = c.size
    h = n // 2
    out = np.zeros(m, dtype=np.complex128)
    out[:h] = c[:h]
    out[m - h:] = c[h:]
    return out


def _fold(c: np.ndarray, n: int) -> np.ndarray:
    m = c.size
    h = n // 2
    out = np.empty(n, dtype=np.complex128)
    out[:h] = c[:h]
    out[h:] = c[m - h:]
    out[h] += c[h]
    return out


def plain_nls_steps(c0, free, phi1, tau, mu, lri, n_steps):
    """States after 0..n_steps plain steps of LRI (``lri``) or Lie-NLS splitting.

    Every product is formed plainly: pad to 2N, ``ifft(...) * 2N``, multiply,
    then ``fft(...) / 2N`` and fold back to N modes; the Lie phase is
    ``exp(-i*tau*mu*|u|^2)``.  The free-flow and phi1 multiplier tables are
    passed in, so only the step's structure is rebuilt here.
    """
    n = c0.size
    m = 2 * n
    rev = (-np.arange(n)) % n

    def values(c):
        return np.fft.ifft(_pad(c, m)) * m

    def coeffs(vals):
        return _fold(np.fft.fft(vals) / m, n)

    c = np.asarray(c0, dtype=np.complex128)
    states = [c]
    for _ in range(n_steps):
        u = values(c)
        if lri:
            cubic = coeffs(u * u * values(phi1 * np.conj(c[rev])))
            c = free * (c - 1j * tau * mu * cubic)
        else:
            c = free * coeffs(u * np.exp(-1j * tau * mu * np.abs(u) ** 2))
        states.append(c)
    return states


def semidiscrete_nls_states(
    c0: np.ndarray,
    freqs: np.ndarray,
    mu: float,
    t_eval: np.ndarray,
    rtol: float = 1e-13,
    atol: float = 1e-15,
) -> np.ndarray:
    """High-order adaptive solve of the N-mode coefficient system

        dc_k/dt = -i k^2 c_k - i mu (|u|^2 u)_k

    with the cubic term formed on the 2x grid and folded back, matching the
    grid semantics of the pseudospectral system being verified.  Returns one
    coefficient row per requested time.
    """
    n = c0.size
    m = 2 * n
    k2 = freqs.astype(np.float64) ** 2

    def rhs(_t, c):
        u = np.fft.ifft(_pad(c, m)) * m
        cubic = _fold(np.fft.fft(np.abs(u) ** 2 * u) / m, n)
        return -1j * k2 * c - 1j * mu * cubic

    sol = solve_ivp(
        rhs,
        (float(t_eval[0]), float(t_eval[-1])),
        np.asarray(c0, dtype=np.complex128),
        method="DOP853",
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
    )
    assert sol.success, sol.message
    return sol.y.T


def scalar_second_order_ode(
    g, u0: float, v0: float, t_eval, rtol: float = 1e-12, atol: float = 1e-14
) -> np.ndarray:
    """Solve u'' = g(u) with initial (u0, v0); returns rows (u, v) per time."""
    t_eval = np.atleast_1d(np.asarray(t_eval, dtype=np.float64))

    def rhs(_t, y):
        return [y[1], g(y[0])]

    sol = solve_ivp(
        rhs,
        (0.0, float(t_eval[-1])),
        [u0, v0],
        method="DOP853",
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
    )
    assert sol.success, sol.message
    return sol.y.T


# --- scalar reimplementations of zero-mode stepping -------------------------


def corrected_lie_zero_mode(u: float, v: float, tau: float, g, g1):
    """One corrected splitting step on spatially constant data.

    On constants the wave group is the shear [[1, tau], [0, 1]] and the
    phi2 block is [[1/2, -tau/3], [0, 1/2]]; the update is evaluated with
    plain scalar arithmetic.
    """
    gu = g(u)
    hu, hv = -gu, g1(u) * v
    pu = 0.5 * hu - (tau / 3.0) * hv
    pv = 0.5 * hv
    au = u + tau * tau * pu
    av = v + tau * gu + tau * tau * pv
    return au + tau * av, av


def lie_zero_mode(u: float, v: float, tau: float, g):
    """One plain splitting step on spatially constant data."""
    av = v + tau * g(u)
    return u + tau * av, av


# --- full-spectrum wave splitting --------------------------------------------


def _phi2_q(y: np.ndarray) -> np.ndarray:
    """(y - sin y)/y^3: a 12-term Taylor sum below |y| < 1, closed form above."""
    y = np.asarray(y, dtype=np.float64)
    small = np.abs(y) < 1.0
    series = np.zeros_like(y)
    term = np.full_like(y, 1.0 / 6.0)
    for j in range(12):
        series += term
        term = -term * y * y / ((2 * j + 4) * (2 * j + 5))
    safe = np.where(small, 1.0, y)
    return np.where(small, series, (safe - np.sin(safe)) / safe**3)


def _phi2_r(y: np.ndarray) -> np.ndarray:
    """(1 - cos y)/y^2 as 2 sin^2(y/2)/y^2, with 1/2 at y = 0."""
    y = np.asarray(y, dtype=np.float64)
    safe = np.where(y == 0.0, 1.0, y)
    return np.where(y == 0.0, 0.5, 2.0 * np.sin(0.5 * safe) ** 2 / safe**2)


def full_spectrum_wave_steps(uc, vc, freqs, tau, g, g1, corrected, n_steps):
    """n_steps of the corrected (or plain) Lie splitting on full N-mode spectra.

    Every transform is a complex ifft/fft of length 2N whose real part feeds
    the nonlinearity, and every multiplier acts on all N complex
    coefficients; the Hermitian half of that work is redundant, which makes
    this an independent check of a step on real half-spectra.  Returns the
    terminal (u, v) coefficients, projected onto Hermitian symmetry.
    """
    n = freqs.size
    m = 2 * n
    k = freqs.astype(np.float64)
    kt = k * tau
    sin_over_k = np.where(k == 0.0, tau, np.sin(kt) / np.where(k == 0.0, 1.0, k))
    flow = (np.cos(kt), sin_over_k, -k * np.sin(kt))
    q = _phi2_q(2.0 * k * tau)
    r = _phi2_r(2.0 * k * tau)
    phi2 = (r, -2.0 * tau * q, 2.0 * k * k * tau * q)

    def block(table, a, b):
        diag, upper, lower = table
        return diag * a + upper * b, lower * a + diag * b

    def values(c):
        return (np.fft.ifft(_pad(c, m)) * m).real

    def coeffs(vals):
        return _fold(np.fft.fft(vals) / m, n)

    uc = np.asarray(uc, dtype=np.complex128)
    vc = np.asarray(vc, dtype=np.complex128)
    for _ in range(n_steps):
        u_phys = values(uc)
        g_hat = coeffs(g(u_phys))
        au, av = uc, vc + tau * g_hat
        if corrected:
            p_u, p_v = block(phi2, -g_hat, coeffs(g1(u_phys) * values(vc)))
            au = au + tau * tau * p_u
            av = av + tau * tau * p_v
        uc, vc = block(flow, au, av)
    conj = (-np.arange(n)) % n
    return 0.5 * (uc + np.conj(uc[conj])), 0.5 * (vc + np.conj(vc[conj]))


def two_array_wave_steps(uh, vh, flow, phi2, tau, g, g1, corrected, n_steps):
    """States (uh, vh) after 0..n_steps corrected (or plain) Lie steps on
    real half-spectra, u and v held as two separate arrays.

    Every transform is a single-row ``irfft(x, 2N, norm="forward")`` or
    ``rfft(values, norm="forward")`` kept at k = 0..N/2 with the Nyquist
    entry's imaginary part dropped, and each 2x2 block is applied to u and v
    separately.  The (diag, upper, lower) flow and phi2 tables at
    k = 0..N/2 are passed in, so only the step's structure is rebuilt here.
    """
    h = uh.size - 1

    def values(x):
        return np.fft.irfft(x, 4 * h, norm="forward")

    def coeffs(vals):
        f = np.fft.rfft(vals, norm="forward")[: h + 1]
        f[-1] = f[-1].real
        return f

    def block(table, a, b):
        diag, upper, lower = table
        return diag * a + upper * b, lower * a + diag * b

    states = [(uh, vh)]
    for _ in range(n_steps):
        u_phys = values(uh)
        g_hat = coeffs(g(u_phys))
        au, av = uh, vh + tau * g_hat
        if corrected:
            h_v = coeffs(g1(u_phys) * values(vh))
            p_u, p_v = block(phi2, -g_hat, h_v)
            au = au + tau * tau * p_u
            av = av + tau * tau * p_v
        uh, vh = block(flow, au, av)
        states.append((uh, vh))
    return states


# --- local-error double integral ---------------------------------------------


def nls_local_error_double_loop(nodes, freqs, tau: float, mu: float) -> np.ndarray:
    """mu * int_0^tau int_0^s P(tau - sigma) D(sigma, s) dsigma ds, as the
    coefficients of the NLS one-step error's integral representation.

    ``nodes`` are the q + 1 equispaced coefficient arrays of u on [0, tau];
    both integrals are composite trapezoid rules over them, evaluated term by
    term: one padded transform pair per node pair (l, j), O(q^2) in all.
    Products are formed plainly on the 2N grid, u_x drops the Nyquist mode
    and conj(u) has coefficients conj(u_hat[-k]).
    """
    q = len(nodes) - 1
    n = nodes[0].size
    m = 2 * n
    h = tau / q
    k = freqs.astype(np.float64)
    k2 = k * k
    ik = 1j * k
    ik[n // 2] = 0.0
    rev = (-np.arange(n)) % n

    def values(c):
        return np.fft.ifft(_pad(c, m)) * m

    def coeffs(vals):
        return _fold(np.fft.fft(vals) / m, n)

    # Rows: coefficients of |u|^2 conj(u), of conj(u) and of conj(u_x).
    fac, mul_a, mul_c, mul_e = [], [], [], []
    for c in nodes:
        cx = ik * c
        up, uxp = values(c), values(cx)
        absu2 = np.abs(up) ** 2
        fac.append([coeffs(absu2 * np.conj(up)), np.conj(c[rev]), np.conj(cx[rev])])
        mul_a.append(mu * up * up)
        mul_c.append(-2.0 * (mu * up * up * absu2 + uxp * uxp))
        mul_e.append(-4.0 * up * uxp)

    # exp(2i*(sigma - s)*dxx) has multiplier exp(2i*(s - sigma)*k^2); the
    # outer propagator exp(i*(tau - sigma)*dxx) has exp(-i*(tau - sigma)*k^2).
    shift = [np.exp(2j * (d * h) * k2) for d in range(q + 1)]
    prop = [np.exp(-1j * (tau - j * h) * k2) for j in range(q + 1)]

    total = np.zeros(n, dtype=np.complex128)
    for l in range(1, q + 1):
        inner = np.zeros(n, dtype=np.complex128)
        for j in range(l + 1):
            pa, pc, pe = (values(shift[l - j] * row) for row in fac[j])
            integrand = coeffs(mul_a[j] * pa + mul_c[j] * pc + mul_e[j] * pe)
            w_in = 0.5 * h if j in (0, l) else h
            inner += w_in * (prop[j] * integrand)
        w_out = 0.5 * h if l == q else h
        total += w_out * inner
    return mu * total


# --- closed forms ------------------------------------------------------------


def nls_plane_wave_coefficient(a: complex, k: int, mu: float, t: float) -> complex:
    """Mode-k coefficient of the exact solution a*exp(i(kx - (k^2 + mu|a|^2)t))."""
    return a * np.exp(-1j * (k * k + mu * abs(a) ** 2) * t)


def decay_norm_sq(freqs: np.ndarray, r: float, theta: float, delta: float,
                  amplitude: float = 1.0) -> float:
    """Squared H^r norm of a field with |u_hat[k]| = amplitude*(1+|k|)^-p,
    p = theta + 1/2 + delta, summed over exactly the given wavenumbers."""
    k = np.abs(freqs.astype(np.float64))
    mags_sq = amplitude**2 * (1.0 + k) ** (-2.0 * (theta + 0.5 + delta))
    return float(np.sum((1.0 + k * k) ** r * mags_sq))

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ceofdm import closed_form
from ceofdm.cli import write_csv
from ceofdm.closed_form import acf_uniform, af_surface, ambiguity, spectrum
from ceofdm.eoa import h_for_tbp
from ceofdm.gbf import compute_coefficients
from ceofdm.oracle import af_numeric
from ceofdm.waveform import (OutOfSupport, PskCode, WaveformSpec,
                             random_psk_code, wrap_phase)


def _spec(L=2, h=0.5, T=1.0, seed=1):
    return WaveformSpec(T=T, h=h, code=random_psk_code(L, 32, seed))


def _naive_chi(coeffs, T, tau, nu):
    # direct double sum over (m, n); the library must match it exactly.
    # exp(-j pi (m + n) tau / T) splits into one phasor per index, and the
    # sinc matrix takes its entries from the 4M + 1 lags m - n.
    m, M = coeffs.m_index, coeffs.M
    A = (T - abs(tau)) / T
    phasor = np.exp(-1j * np.pi * m * tau / T)
    lags = np.sinc(A * (nu * T + np.arange(-2 * M, 2 * M + 1)))
    snc = lags[m[:, None] - m[None, :] + 2 * M]
    return A * ((coeffs.c * phasor) @ snc @ (np.conj(coeffs.c) * phasor))


# derandomized so that every run draws the same examples, and nothing is
# stored between runs
_PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                     database=None)


@st.composite
def _specs(draw):
    # h is capped so that the truncation order, and with it the cost of the
    # pairwise reference, stays near a few hundred harmonics
    L = draw(st.integers(1, 24))
    T = draw(st.floats(0.25, 4.0))
    h = draw(st.floats(0.0, 1.0)) * min(6.0, 70.0 / (L * (L + 1)))
    phi = draw(st.lists(st.floats(-np.pi, np.pi), min_size=L, max_size=L))
    return WaveformSpec(T=T, h=h, code=PskCode(L=L, gamma=np.ones(L),
                                               phi=np.array(phi)))


def _negated(spec):
    code = PskCode(L=spec.L, gamma=spec.code.gamma,
                   phi=wrap_phase(-spec.code.phi))
    return WaveformSpec(T=spec.T, h=spec.h, code=code)


def test_constant_waveform_spectrum_is_sinc():
    code = PskCode(L=1, gamma=np.ones(1), phi=np.zeros(1))
    spec = WaveformSpec(T=2.0, h=0.0, code=code)
    f = np.linspace(-4, 4, 81)
    s = spectrum(spec, f)
    np.testing.assert_allclose(s.values, np.sqrt(2.0) * np.sinc(2.0 * f),
                               atol=1e-12)


def test_spectrum_on_harmonic_grid_returns_coefficients():
    spec = _spec(L=3, h=0.7, T=2.0, seed=5)
    co = compute_coefficients(spec)
    k = np.arange(-co.M, co.M + 1)
    s = spectrum(spec, k / spec.T, coeffs=co)
    np.testing.assert_allclose(s.values, np.sqrt(spec.T) * co.c, atol=1e-12)


def test_spectrum_discrete_parseval_is_exact():
    spec = _spec(L=2, h=1.0, seed=2)
    co = compute_coefficients(spec)
    k = np.arange(-co.M, co.M + 1)
    s = spectrum(spec, k / spec.T, coeffs=co)
    total = np.sum(np.abs(s.values) ** 2) / spec.T
    assert total == pytest.approx(1.0, abs=1e-10)


def test_spectrum_dense_grid_energy_near_unity():
    # off-grid trapezoid picks up the slowly decaying sinc tails, so the
    # band must be much wider than the coefficient support for 1e-3
    spec = _spec(L=1, h=0.5, seed=3)
    f = np.linspace(-150.0, 150.0, 60001)
    s = spectrum(spec, f)
    energy = np.trapezoid(np.abs(s.values) ** 2, f)
    assert energy == pytest.approx(1.0, abs=1e-3)


@_PROPERTY
@given(spec=_specs(),
       far=st.lists(st.floats(50.0, 1e5), min_size=1, max_size=8))
@example(spec=WaveformSpec(T=2.5, h=0.0, code=PskCode(
    L=1, gamma=np.ones(1), phi=np.zeros(1))), far=[50.0, 1e5])
def test_spectrum_matches_pairwise_sinc_sum_property(spec, far):
    # T f on the harmonics k (where k / T * T may miss k by an ulp), within
    # 1e-9 and 3e-13 of them, and far beyond the band on both sides
    co = compute_coefficients(spec)
    k = np.arange(-co.M - 60, co.M + 61, dtype=float)
    far = co.M + np.array(far)
    f = np.concatenate([k, k + 1e-9, k - 3e-13, far, -far]) / spec.T
    got = spectrum(spec, f, coeffs=co).values
    ref = np.sqrt(spec.T) * (np.sinc(spec.T * f[:, None] - co.m_index) @ co.c)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)


def test_ambiguity_matches_naive_double_sum():
    spec = _spec(L=1, h=0.5, seed=1)
    co = compute_coefficients(spec)
    for tau, nu in [(0.0, 0.0), (0.3, 2.0), (-0.45, -7.0), (0.71, 0.5)]:
        ref = _naive_chi(co, spec.T, tau, nu)
        assert abs(ambiguity(spec, tau, nu, coeffs=co) - ref) < 1e-12


def test_ambiguity_origin_is_unity():
    for seed in range(3):
        spec = _spec(L=4, h=0.8, seed=seed)
        assert abs(ambiguity(spec, 0.0, 0.0) - 1.0) < 1e-12


def test_ambiguity_sign_convention_against_quadrature():
    # the residual-phase sign is the one thing the regrouping cannot check
    spec = _spec(L=2, h=0.9, seed=4)
    for tau, nu in [(0.35, 3.0), (-0.2, -5.0)]:
        closed = ambiguity(spec, tau, nu)
        ref = af_numeric(spec, tau, nu, 8192.0)
        assert abs(closed - ref) < 1e-8


def test_ambiguity_point_symmetry():
    spec = _spec(L=3, h=1.1, seed=6)
    co = compute_coefficients(spec)
    for tau, nu in [(0.25, 1.5), (0.6, -4.0)]:
        a = ambiguity(spec, tau, nu, coeffs=co)
        b = ambiguity(spec, -tau, -nu, coeffs=co)
        assert abs(a - np.conj(b)) < 1e-12


def test_ambiguity_support_boundary():
    for spec in (_spec(), _spec(L=1, h=2.5, T=1.5, seed=12),
                 _spec(L=24, h=0.1856, seed=12)):
        for tau in (-spec.T, spec.T):
            for nu in (0.0, 3.0, -2.5 / spec.T, 7.3):
                assert ambiguity(spec, tau, nu) == 0
    with pytest.raises(OutOfSupport):
        ambiguity(spec, 1.5 * spec.T, 0.0)


def test_af_surface_layout_and_hash():
    spec = _spec(L=2, h=0.6, seed=7)
    tau = np.linspace(-0.5, 0.5, 5)
    nu = np.linspace(-3, 3, 7)
    surf = af_surface(spec, tau, nu)
    assert surf.chi.shape == (5, 7)
    co = compute_coefficients(spec)
    for i in (0, 2, 4):
        for j in (0, 3, 6):
            ref = ambiguity(spec, tau[i], nu[j], coeffs=co)
            assert surf.chi[i, j] == ref  # same code path, bit-identical


def test_acf_uniform_matches_pointwise_ambiguity():
    spec = _spec(L=2, h=2.0, seed=8)
    co = compute_coefficients(spec)
    tau, R = acf_uniform(spec, n_tau=128, coeffs=co)
    assert len(tau) == 129 and tau[0] == 0.0 and tau[-1] == spec.T
    ref = np.array([ambiguity(spec, t, 0.0, coeffs=co) for t in tau])
    np.testing.assert_allclose(R, ref, atol=1e-10)
    assert R[-1] == 0.0
    assert abs(R[0] - 1.0) < 1e-12


def test_acf_uniform_folds_harmonics_on_small_grids():
    # n_tau below the coefficient span folds several harmonics into each bin
    spec = _spec(L=2, h=5.0, seed=9)
    co = compute_coefficients(spec)
    for n_tau in (64, 97):
        assert 2 * co.M + 1 > n_tau
        tau, R = acf_uniform(spec, n_tau=n_tau, coeffs=co)
        ref = np.array([ambiguity(spec, t, 0.0, coeffs=co) for t in tau])
        np.testing.assert_allclose(R, ref, atol=1e-10)
        naive = [_naive_chi(co, spec.T, t, 0.0) for t in tau]
        np.testing.assert_allclose(R, naive, rtol=0, atol=1e-12)


def test_acf_uniform_rejects_empty_delay_grid():
    spec = _spec(L=2, h=0.5, seed=1)
    for n_tau in (0, -4):
        with pytest.raises(ValueError, match="n_tau"):
            acf_uniform(spec, n_tau=n_tau)


def test_acf_mainlobe_narrows_with_modulation_index():
    code = random_psk_code(2, 32, 10)
    widths = []
    for h in (0.3, 3.0):
        spec = WaveformSpec(T=1.0, h=h, code=code)
        tau, R = acf_uniform(spec, n_tau=1024)
        below = np.flatnonzero(np.abs(R) < 0.5)
        widths.append(tau[below[0]])
    assert widths[1] < widths[0]


def test_af_volume_over_wide_doppler_window_is_unity():
    # total AF volume equals the squared pulse energy; a Doppler window much
    # wider than the occupied band must recover it to a fraction of a percent
    from scipy.integrate import simpson
    spec = _spec(L=2, h=0.5, seed=1)
    tau = np.linspace(0.0, spec.T, 257)
    nu = np.linspace(-40.0, 40.0, 801)
    surf = af_surface(spec, tau, nu)
    v = simpson(np.abs(surf.chi) ** 2, x=nu, axis=1)
    volume = 2.0 * simpson(v, x=tau)  # nu-profile is even in tau
    assert volume == pytest.approx(1.0, abs=0.02)


def test_csv_exports_round_trip(tmp_path):
    spec = _spec(L=1, h=0.4, seed=11)
    f = np.linspace(-3, 3, 11)
    s = spectrum(spec, f)
    path = tmp_path / "spectrum.csv"
    write_csv(path, "f,re,im,abs2", [s.f, s.values])
    data = np.genfromtxt(path, delimiter=",", names=True)
    np.testing.assert_allclose(data["re"] + 1j * data["im"], s.values,
                               atol=1e-16)

    tau = np.linspace(-0.4, 0.4, 3)
    nu = np.linspace(-2, 2, 3)
    surf = af_surface(spec, tau, nu)
    path = tmp_path / "af.csv"
    write_csv(path, "tau,nu,re,im,abs2",
              [*np.meshgrid(tau, nu, indexing="ij"), surf.chi])
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert len(data) == 9
    np.testing.assert_allclose(
        (data["re"] + 1j * data["im"]).reshape(3, 3), surf.chi, atol=1e-16)

    tg, R = acf_uniform(spec, n_tau=16)
    path = tmp_path / "acf.csv"
    write_csv(path, "tau,re,im,abs2", [tg, R])
    data = np.genfromtxt(path, delimiter=",", names=True)
    np.testing.assert_allclose(data["abs2"], np.abs(R) ** 2, atol=1e-16)


@_PROPERTY
@given(spec=_specs(),
       s=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
       nuT=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=3))
def test_af_surface_matches_naive_double_sum_property(spec, s, nuT):
    co = compute_coefficients(spec)
    tau = np.array(s) * spec.T
    nu = np.array(nuT) / spec.T
    chi = af_surface(spec, tau, nu, coeffs=co).chi
    ref = np.array([[_naive_chi(co, spec.T, t, v) for v in nu] for t in tau])
    np.testing.assert_allclose(chi, ref, rtol=0, atol=1e-12)


@_PROPERTY
@given(spec=_specs(), n_tau=st.integers(3, 700))
def test_acf_uniform_matches_naive_double_sum_property(spec, n_tau):
    co = compute_coefficients(spec)
    tau, R = acf_uniform(spec, n_tau=n_tau, coeffs=co)
    idx = np.unique(np.linspace(0, n_tau, 5).astype(int))
    ref = [_naive_chi(co, spec.T, tau[j], 0.0) for j in idx]
    np.testing.assert_allclose(R[idx], ref, rtol=0, atol=1e-12)
    assert abs(R[0] - 1.0) < 1e-12 and R[-1] == 0.0


@_PROPERTY
@given(spec=_specs(), nuT=st.floats(-30.0, 30.0))
def test_phase_negation_conjugates_chi_property(spec, nuT):
    # negating the phases reverses the pulse in time, which conjugates chi;
    # at tau = 0 the point symmetry is not built in and is checked directly
    neg = _negated(spec)
    tau = np.array([0.0, 0.3, -0.7]) * spec.T
    nu = np.array([nuT, -nuT]) / spec.T
    a = af_surface(spec, tau, nu).chi
    b = af_surface(neg, tau, nu).chi
    np.testing.assert_allclose(b, np.conj(a), rtol=0, atol=1e-12)
    assert abs(a[0, 0] - np.conj(a[0, 1])) < 1e-12
    n_tau = 256
    np.testing.assert_allclose(acf_uniform(neg, n_tau)[1],
                               np.conj(acf_uniform(spec, n_tau)[1]),
                               rtol=0, atol=1e-12)


def test_unmodulated_pulse_is_a_triangle():
    code = PskCode(L=2, gamma=np.ones(2), phi=np.zeros(2))
    spec = WaveformSpec(T=2.0, h=0.0, code=code)
    tau, R = acf_uniform(spec, n_tau=100)
    np.testing.assert_allclose(R, 1.0 - tau / spec.T, rtol=0, atol=1e-15)
    taus = np.array([-1.5, -0.5, 0.0, 0.7, 2.0])
    nus = np.array([-3.0, -0.25, 0.0, 1.0, 2.2])
    A = 1.0 - np.abs(taus) / spec.T
    ref = A[:, None] * np.sinc(A[:, None] * nus[None, :] * spec.T)
    chi = af_surface(spec, taus, nus).chi
    np.testing.assert_allclose(chi, ref, rtol=0, atol=1e-15)


@pytest.mark.parametrize("L, h", [(1, 2.5), (3, 1.2)])
def test_chi_at_and_near_integer_doppler(L, h):
    # nu T on an integer makes one lag's bracket cancel exactly; 2.5 is the
    # tie between two nearest lags
    spec = _spec(L=L, h=h, T=0.8, seed=14)
    co = compute_coefficients(spec)
    tau = np.array([-0.6, 0.0, 0.25, 0.79]) * spec.T
    nuT = np.array([0.0, 1e-12, -1e-12, 4.0, 4.0 + 1e-12, -7.0 + 1e-12,
                    2.5, -2.5])
    nu = nuT / spec.T
    chi = af_surface(spec, tau, nu, coeffs=co).chi
    ref = np.array([[_naive_chi(co, spec.T, t, v) for v in nu] for t in tau])
    np.testing.assert_allclose(chi, ref, rtol=0, atol=1e-12)


# The kernels as they were before af_surface shared its +-nu kernels and
# sinc-term sums and bounded its buffers.  The new kernels must reproduce
# them bit for bit, so the CLI data files keep their bytes.
def _old_lag_conv(d, M, nuT):
    k = np.arange(-2 * M, 2 * M + 1)
    x = k + nuT[:, None]
    near = k == -np.rint(nuT)[:, None]
    x[near] = 1.0
    p = np.exp(1j * np.pi * x) / (2j * np.pi * x)
    p[near] = 0.0
    n = 1 << (4 * M).bit_length()
    full = np.fft.ifft(np.fft.fft(p, n) * np.fft.fft(d, n))
    return full[:, 2 * M:4 * M + 1]


def _old_harmonic_weights(c, M, nuT):
    k0 = -np.rint(nuT)
    u = c * _old_lag_conv(np.conj(c), M, nuT)
    v = -np.conj(c) * _old_lag_conv(c, M, -nuT)
    src = np.arange(2 * M + 1) + k0.astype(int)[:, None]
    inside = (src >= 0) & (src <= 2 * M)
    g = np.where(inside, c[np.clip(src, 0, 2 * M)], 0.0) * np.conj(c)
    return u, v, g, k0


def _old_chi_causal(c, M, s, nuT):
    u, v, g, k0 = _old_harmonic_weights(c, M, nuT)
    W = np.stack([u, v, g], axis=1).reshape(3 * len(nuT), 2 * M + 1)
    m = np.arange(-M, M + 1)
    S = np.empty((len(s), len(W)), dtype=complex)
    step = max(1, (1 << 20) // W.size)
    for i in range(0, len(s), step):
        z = np.exp(-2j * np.pi * np.outer(s[i:i + step], m))
        S[i:i + step] = np.sum(z[:, None, :] * W, axis=2)
    S = S.reshape(len(s), len(nuT), 3)
    A = (1.0 - s)[:, None]
    chi = (np.exp(-1j * np.pi * np.outer(s, nuT)) * S[:, :, 0]
           - np.exp(1j * np.pi * np.outer(s, nuT)) * S[:, :, 1]
           + A * np.sinc(A * (k0 + nuT)) * np.exp(-1j * np.pi * np.outer(s, k0))
           * S[:, :, 2])
    chi[s >= 1.0] = 0.0
    return chi


def _old_af_surface(co, T, taus, nus):
    s = taus / T
    neg = s < 0
    chi = np.empty((len(taus), len(nus)), dtype=complex)
    for j in range(0, len(nus), 64):
        nuT = nus[j:j + 64] * T
        if np.any(~neg):
            chi[~neg, j:j + 64] = _old_chi_causal(co.c, co.M, s[~neg], nuT)
        if np.any(neg):
            chi[neg, j:j + 64] = np.conj(
                _old_chi_causal(co.c, co.M, -s[neg], -nuT))
    return chi


def _old_acf_uniform(co, T, n_tau):
    u, v, g, _ = _old_harmonic_weights(co.c, co.M, np.zeros(1))
    bins = co.m_index % n_tau

    def dft(w):
        folded = (np.bincount(bins, w.real, n_tau)
                  + 1j * np.bincount(bins, w.imag, n_tau))
        return np.fft.fft(folded)

    A = 1.0 - np.arange(n_tau) / n_tau
    return np.concatenate([A * dft(g[0]) + dft(u[0] - v[0]), [0.0]])


def _same_bits(a, b):
    # equal values and equal signs of zero, which the CSV files print
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@_PROPERTY
@given(spec=_specs(),
       s=st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=4),
       nuT=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=6),
       n_tau=st.integers(1, 700))
# T = 2 and 1 keep nu T = (k + 0.5) / T * T exact, on the tie of rint
@example(spec=WaveformSpec(T=2.0, h=0.0, code=PskCode(
    L=1, gamma=np.ones(1), phi=np.zeros(1))), s=[0.4], nuT=[0.5],
    n_tau=16)
@example(spec=WaveformSpec(T=1.0, h=1.2, code=PskCode(
    L=3, gamma=np.ones(3), phi=np.array([0.3, -2.0, 1.1]))),
    s=[-0.25, 0.7], nuT=[-4.5, 0.0], n_tau=97)
def test_kernels_match_unshared_kernels_bit_for_bit_property(spec, s, nuT,
                                                              n_tau):
    co = compute_coefficients(spec)
    T = spec.T
    # tau = 0 and +-T; Dopplers on ties of rint at k +- 0.5, an asymmetric
    # grid, and more Dopplers than one block holds, not a multiple of it
    tau = np.array([0.0, 1.0, -1.0, *s]) * T
    ties = np.array([-2.5, -0.5, 0.5, 1.5, 3.5])
    # the Dopplers af_surface builds kernels for at a time
    block = max(1, closed_form._BLOCK // (1 << (4 * co.M).bit_length()))
    wide = np.linspace(-7.0, 11.0, 2 * block + 3)
    nu = np.concatenate([nuT, ties, wide]) / T
    got = af_surface(spec, tau, nu, coeffs=co).chi
    assert _same_bits(got, _old_af_surface(co, T, tau, nu))
    for t, v in ((tau[-1], nu[0]), (-T, nu[-1]), (0.0, 0.5 / T)):
        point = ambiguity(spec, t, v, coeffs=co)
        assert _same_bits(np.array([point]),
                          _old_af_surface(co, T, np.array([t]),
                                          np.array([v]))[0])
    _, R = acf_uniform(spec, n_tau, coeffs=co)
    assert _same_bits(R, _old_acf_uniform(co, T, n_tau))


def test_spectrum_entries_do_not_depend_on_the_grid(monkeypatch):
    # every value is a fixed-order sum over its own row of reciprocals, so
    # single frequencies, sub-grids and other buffer sizes give the grid's
    # bits.  At h = 600 and L = 1 a row (2M + 1 > 8192) is longer than
    # einsum's iterator buffer.
    rng = np.random.default_rng(5)
    for spec, n_f in ((_spec(L=24, h=0.1856, seed=3), 4001),
                      (_spec(L=2, h=5.0, T=2.5, seed=9), 1025),
                      (_spec(L=1, h=600.0, seed=2), 41)):
        co = compute_coefficients(spec)
        n_m = len(co.m_index)
        # buffers of one row, of 7 rows and the default, each with a
        # partial last chunk
        default = max(1, 2 * closed_form._BLOCK // n_m)
        assert n_f % 7 and n_f % default
        x = rng.uniform(-1.5, 1.5, n_f) * co.M
        # r == 0 rows, inside and beyond +-M, on the first and last row of
        # every chunk
        k = rng.integers(-co.M - 40, co.M + 41, n_f)
        k[::5] = np.where(k[::5] < 0, -co.M - 1, co.M + 3)
        on = np.zeros(n_f, dtype=bool)
        for rows in (7, default):
            on[::rows] = on[rows - 1::rows] = True
        x[on] = k[on]
        f = x / spec.T
        full = spectrum(spec, f, coeffs=co).values
        assert np.any(np.abs(x[on]) > co.M)
        for block in (1, (7 * n_m + 1) // 2, closed_form._BLOCK):
            with monkeypatch.context() as mp:
                mp.setattr(closed_form, "_BLOCK", block)
                assert _same_bits(spectrum(spec, f, coeffs=co).values, full)
        for i in (*range(0, n_f, max(1, n_f // 40)), n_f - 1):
            assert _same_bits(spectrum(spec, f[i], coeffs=co).values,
                              full[i:i + 1])
        for a, b in ((1, 8), (3, n_f // 2), (n_f // 3, n_f)):
            assert _same_bits(spectrum(spec, f[a:b], coeffs=co).values,
                              full[a:b])


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernels_work_in_a_bounded_buffer():
    # the L = 24, TBP 200 spec of the design session, on the CLI's grids
    L = 24
    spec = WaveformSpec(T=1.0, h=h_for_tbp(1.0, 200.0, L),
                        code=random_psk_code(L, 32, 0))
    co = compute_coefficients(spec)
    assert co.M == 484
    tau = np.linspace(-0.9, 0.9, 64)
    nu = np.linspace(-10.0, 10.0, 64)
    assert _traced_peak(lambda: af_surface(spec, tau, nu, coeffs=co)) < 6e6
    f = np.linspace(-400.0, 400.0, 4001)
    assert _traced_peak(lambda: spectrum(spec, f, coeffs=co)) < 1 << 20

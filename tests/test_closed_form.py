import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceofdm.cli import write_csv
from ceofdm.closed_form import acf_uniform, af_surface, ambiguity, spectrum
from ceofdm.gbf import compute_coefficients
from ceofdm.oracle import af_numeric
from ceofdm.waveform import (OutOfSupport, PskCode, WaveformSpec,
                             random_psk_code, wrap_phase)


def _spec(L=2, h=0.5, T=1.0, seed=1):
    return WaveformSpec(T=T, h=h, code=random_psk_code(L, 32, seed))


def _naive_chi(coeffs, T, tau, nu):
    # direct double sum over (m, n); the library must match it exactly
    m = coeffs.m_index
    A = (T - abs(tau)) / T
    phase = np.exp(-1j * np.pi * (m[:, None] + m[None, :]) * tau / T)
    snc = np.sinc(A * (nu * T + m[:, None] - m[None, :]))
    w = coeffs.c[:, None] * np.conj(coeffs.c)[None, :]
    return A * np.sum(w * phase * snc)


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


def test_acf_uniform_small_grid_fallback_agrees():
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

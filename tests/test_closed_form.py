import ast
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ceofdm import closed_form
from ceofdm.cli import write_csv
from ceofdm.closed_form import (acf_uniform, af_surface, ambiguity, chirp_z,
                                lag_weights, spectrum)
from ceofdm.eoa import h_for_tbp
from ceofdm.gbf import TOL, compute_coefficients
from ceofdm.oracle import af_numeric_grid
from ceofdm.waveform import (OutOfSupport, PskCode, WaveformSpec,
                             random_psk_code, wrap_phase)


def _spec(L=2, h=0.5, T=1.0, seed=1):
    return WaveformSpec(T=T, h=h, code=random_psk_code(L, 32, seed))


def _naive_chi(c, T, tau, nu):
    # direct double sum over (m, n); the library must match it exactly.
    # exp(-j pi (m + n) tau / T) splits into one phasor per index, and the
    # sinc matrix takes its entries from the 4M + 1 lags m - n.
    M = len(c) // 2
    m = np.arange(-M, M + 1)
    A = (T - abs(tau)) / T
    phasor = np.exp(-1j * np.pi * m * tau / T)
    lags = np.sinc(A * (nu * T + np.arange(-2 * M, 2 * M + 1)))
    snc = lags[m[:, None] - m[None, :] + 2 * M]
    return A * ((c * phasor) @ snc @ (np.conj(c) * phasor))


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
    return WaveformSpec(T=T, h=h, code=PskCode(phi=np.array(phi)))


def _negated(spec):
    code = PskCode(phi=wrap_phase(-spec.code.phi), gamma=spec.code.gamma)
    return WaveformSpec(T=spec.T, h=spec.h, code=code)


def test_constant_waveform_spectrum_is_sinc():
    code = PskCode(phi=np.zeros(1))
    spec = WaveformSpec(T=2.0, h=0.0, code=code)
    f = np.linspace(-4, 4, 81)
    s = spectrum(compute_coefficients(spec), spec.T, f)
    np.testing.assert_allclose(s, np.sqrt(2.0) * np.sinc(2.0 * f),
                               atol=1e-12)


def test_spectrum_on_harmonic_grid_returns_coefficients():
    spec = _spec(L=3, h=0.7, T=2.0, seed=5)
    c = compute_coefficients(spec)
    M = len(c) // 2
    k = np.arange(-M, M + 1)
    s = spectrum(c, spec.T, k / spec.T)
    np.testing.assert_allclose(s, np.sqrt(spec.T) * c, atol=1e-12)


def test_spectrum_discrete_parseval_is_exact():
    spec = _spec(L=2, h=1.0, seed=2)
    c = compute_coefficients(spec)
    M = len(c) // 2
    k = np.arange(-M, M + 1)
    s = spectrum(c, spec.T, k / spec.T)
    total = np.sum(np.abs(s) ** 2) / spec.T
    assert total == pytest.approx(1.0, abs=1e-10)


def test_spectrum_dense_grid_energy_near_unity():
    # off-grid trapezoid picks up the slowly decaying sinc tails, so the
    # band must be much wider than the coefficient support for 1e-3
    spec = _spec(L=1, h=0.5, seed=3)
    f = np.linspace(-150.0, 150.0, 60001)
    s = spectrum(compute_coefficients(spec), spec.T, f)
    energy = np.trapezoid(np.abs(s) ** 2, f)
    assert energy == pytest.approx(1.0, abs=1e-3)


@_PROPERTY
@given(spec=_specs(),
       far=st.lists(st.floats(50.0, 1e5), min_size=1, max_size=8))
@example(spec=WaveformSpec(T=2.5, h=0.0, code=PskCode(phi=np.zeros(1))),
         far=[50.0, 1e5])
def test_spectrum_matches_pairwise_sinc_sum_property(spec, far):
    # T f on the harmonics k (where k / T * T may miss k by an ulp), within
    # 1e-9 and 3e-13 of them, and far beyond the band on both sides
    c = compute_coefficients(spec)
    M = len(c) // 2
    k = np.arange(-M - 60, M + 61, dtype=float)
    far = M + np.array(far)
    f = np.concatenate([k, k + 1e-9, k - 3e-13, far, -far]) / spec.T
    got = spectrum(c, spec.T, f)
    m = np.arange(-M, M + 1)
    ref = np.sqrt(spec.T) * (np.sinc(spec.T * f[:, None] - m) @ c)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)


def test_ambiguity_matches_naive_double_sum():
    spec = _spec(L=1, h=0.5, seed=1)
    c = compute_coefficients(spec)
    for tau, nu in [(0.0, 0.0), (0.3, 2.0), (-0.45, -7.0), (0.71, 0.5)]:
        ref = _naive_chi(c, spec.T, tau, nu)
        assert abs(ambiguity(c, spec.T, tau, nu) - ref) < 1e-12


def test_ambiguity_origin_is_unity():
    for seed in range(3):
        spec = _spec(L=4, h=0.8, seed=seed)
        c = compute_coefficients(spec)
        assert abs(ambiguity(c, spec.T, 0.0, 0.0) - 1.0) < 1e-12


def test_ambiguity_sign_convention_against_quadrature():
    # the residual-phase sign is the one thing the regrouping cannot check
    spec = _spec(L=2, h=0.9, seed=4)
    c = compute_coefficients(spec)
    for tau, nu in [(0.35, 3.0), (-0.2, -5.0)]:
        closed = ambiguity(c, spec.T, tau, nu)
        ref = af_numeric_grid(spec, [tau], [nu], 8192.0)[0, 0]
        assert abs(closed - ref) < 1e-8


def test_ambiguity_point_symmetry():
    spec = _spec(L=3, h=1.1, seed=6)
    c = compute_coefficients(spec)
    for tau, nu in [(0.25, 1.5), (0.6, -4.0)]:
        a = ambiguity(c, spec.T, tau, nu)
        b = ambiguity(c, spec.T, -tau, -nu)
        assert abs(a - np.conj(b)) < 1e-12


def test_ambiguity_support_boundary():
    for spec in (_spec(), _spec(L=1, h=2.5, T=1.5, seed=12),
                 _spec(L=24, h=0.1856, seed=12)):
        c = compute_coefficients(spec)
        for tau in (-spec.T, spec.T):
            for nu in (0.0, 3.0, -2.5 / spec.T, 7.3):
                assert ambiguity(c, spec.T, tau, nu) == 0
        # a finite Doppler beyond OutOfSupport.CYCLES / T is refused before
        # nu T can overflow (T = 1.5) or leave the integers that k0 is cast
        # to (1e19 at T = 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for nu in (1e19, 1e308, -1e308):
                with pytest.raises(OutOfSupport, match=r"\|nu\| = .* exceed"):
                    ambiguity(c, spec.T, 0.2 * spec.T, nu)
                with pytest.raises(OutOfSupport, match=r"\|nu\| = .* exceed"):
                    af_surface(c, spec.T, [0.0, 0.5 * spec.T], [0.0, nu])
    for tau in (1.5 * spec.T, np.nan):
        with pytest.raises(OutOfSupport):
            ambiguity(c, spec.T, tau, 0.0)
    # a NaN delay is refused, not spread into the other rows of the surface
    with pytest.raises(OutOfSupport):
        af_surface(c, spec.T, [-0.5 * spec.T, np.nan, 0.5 * spec.T], [0.0])
    # so is a non-finite Doppler, before any cast or product can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu in (np.nan, np.inf, -np.inf):
            with pytest.raises(OutOfSupport, match=r"\|nu\| = \w+ is not fin"):
                ambiguity(c, spec.T, 0.2 * spec.T, nu)
            with pytest.raises(OutOfSupport, match=r"\|nu\| = \w+ is not fin"):
                af_surface(c, spec.T, [0.0, 0.5 * spec.T], [0.0, nu, 2.0])


def test_af_surface_layout_and_hash():
    spec = _spec(L=2, h=0.6, seed=7)
    tau = np.linspace(-0.5, 0.5, 5)
    nu = np.linspace(-3, 3, 7)
    c = compute_coefficients(spec)
    chi = af_surface(c, spec.T, tau, nu)
    assert chi.shape == (5, 7)
    for i in (0, 2, 4):
        for j in (0, 3, 6):
            # a one-point grid takes its delay sums by its own transform
            ref = ambiguity(c, spec.T, tau[i], nu[j])
            assert abs(chi[i, j] - ref) < 2e-14


def test_acf_uniform_matches_pointwise_ambiguity():
    spec = _spec(L=2, h=2.0, seed=8)
    c = compute_coefficients(spec)
    tau, R = acf_uniform(c, spec.T, n_tau=128)
    assert len(tau) == 129 and tau[0] == 0.0 and tau[-1] == spec.T
    ref = np.array([ambiguity(c, spec.T, t, 0.0) for t in tau])
    np.testing.assert_allclose(R, ref, atol=1e-10)
    assert R[-1] == 0.0
    assert abs(R[0] - 1.0) < 1e-12


def test_acf_uniform_folds_harmonics_on_small_grids():
    # n_tau below the coefficient span folds several harmonics into each bin
    spec = _spec(L=2, h=5.0, seed=9)
    c = compute_coefficients(spec)
    for n_tau in (64, 97):
        assert len(c) > n_tau
        tau, R = acf_uniform(c, spec.T, n_tau=n_tau)
        ref = np.array([ambiguity(c, spec.T, t, 0.0) for t in tau])
        np.testing.assert_allclose(R, ref, atol=1e-10)
        naive = [_naive_chi(c, spec.T, t, 0.0) for t in tau]
        np.testing.assert_allclose(R, naive, rtol=0, atol=1e-12)


def test_acf_uniform_rejects_empty_delay_grid():
    spec = _spec(L=2, h=0.5, seed=1)
    c = compute_coefficients(spec)
    for n_tau in (0, -4):
        with pytest.raises(ValueError, match="^n_tau must be an integer >= 1"):
            acf_uniform(c, spec.T, n_tau=n_tau)


def test_acf_uniform_default_grid_follows_the_order():
    # max(4096, 2 size): 4096 up to M = 511, then the power of two at or
    # above 4 (2M + 1)
    rng = np.random.default_rng(0)
    for M, n_tau in ((1, 4096), (314, 4096), (484, 4096), (511, 4096),
                     (512, 8192), (968, 8192), (1024, 16384), (4765, 65536)):
        c = rng.normal(size=2 * M + 1) + 1j * rng.normal(size=2 * M + 1)
        tau, R = acf_uniform(c, 1.3)
        ref_tau, ref = acf_uniform(c, 1.3, n_tau)
        assert tau.tobytes() == ref_tau.tobytes()
        assert R.tobytes() == ref.tobytes()


def _binned_acf(c, n_tau):
    # R from the lag weights, binned and transformed as acf_uniform does it
    w, v = lag_weights(c)
    bins = np.arange(-(len(c) // 2), len(c) // 2 + 1) % n_tau
    G = np.fft.fft(np.bincount(bins, w, n_tau))
    U = np.fft.fft(np.bincount(bins, v, n_tau))
    A = 1.0 - np.arange(n_tau) / n_tau
    return np.concatenate([A * G + 2j * U, [0.0]])


@_PROPERTY
@given(spec=_specs(), n_tau=st.integers(1, 700))
def test_acf_uniform_bins_the_lag_weights_bit_for_bit_property(spec, n_tau):
    c = compute_coefficients(spec)
    _, R = acf_uniform(c, spec.T, n_tau)
    assert _same_bits(R, _binned_acf(c, n_tau))


def test_acf_uniform_bins_the_lag_weights_bit_for_bit():
    # one to three delay steps, 97, a grid shorter than the 2M + 1
    # harmonics it folds, and the default grid
    c = compute_coefficients(_spec(L=24, h=h_for_tbp(200.0, 24), seed=3))
    M = len(c) // 2
    for n_tau in (1, 2, 3, 97, M, None):
        _, R = acf_uniform(c, 1.3, n_tau)
        assert _same_bits(R, _binned_acf(c, len(R) - 1))


@pytest.mark.parametrize("L", [1, 3, 24])
def test_lag_weights_of_an_unmodulated_pulse(L):
    # h = 0: one line at m = 0, and v is FFT rounding (6.1e-19 measured)
    c = compute_coefficients(_spec(L=L, h=0.0, seed=5))
    w, v = lag_weights(c)
    M = len(c) // 2
    assert M == 8 and w.shape == v.shape == (2 * M + 1,)
    assert np.array_equal(w, np.eye(1, 2 * M + 1, M)[0])
    assert np.abs(v).max() < 1e-17


def test_lag_weights_keep_their_bits_with_the_kept_kernel():
    # lag_weights keeps the nu = 0 kernel of the last order it saw; codes
    # of alternating orders must each get their own kernel's weights, as
    # when the kernel was built on every call
    cs = [compute_coefficients(_spec(L=L, h=h, seed=4))
          for L, h in ((2, 1.3), (3, 0.4), (2, 1.3), (1, 0.0))]
    assert len({len(c) for c in cs}) == 3
    for c in cs * 2:
        M = len(c) // 2
        size = 1 << (4 * M).bit_length()
        P = closed_form._kernel_fft(M, np.zeros(1), size)
        u = c * closed_form._lag_conv(P, np.fft.fft(np.conj(c), size), M)[0]
        w, v = lag_weights(c)
        assert _same_bits(w, c.real ** 2 + c.imag ** 2)
        assert _same_bits(v, u.imag)
    kernel = closed_form._acf_kernel(M, size)
    assert not kernel.flags.writeable
    with pytest.raises(ValueError):
        kernel[0, 0] = 0.0


@_PROPERTY
@given(spec=_specs())
def test_lag_weights_sum_to_the_pulse_energy_property(spec):
    # sum w = sum |c_m|^2 = 1 to the coefficient engine's tolerance;
    # 200 random PSK specs gave at most 4.4e-16
    w, _ = lag_weights(compute_coefficients(spec))
    assert abs(w.sum() - 1.0) < TOL


def test_acf_mainlobe_narrows_with_modulation_index():
    code = random_psk_code(2, 32, 10)
    widths = []
    for h in (0.3, 3.0):
        spec = WaveformSpec(T=1.0, h=h, code=code)
        tau, R = acf_uniform(compute_coefficients(spec), spec.T, n_tau=1024)
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
    chi = af_surface(compute_coefficients(spec), spec.T, tau, nu)
    v = simpson(np.abs(chi) ** 2, x=nu, axis=1)
    volume = 2.0 * simpson(v, x=tau)  # nu-profile is even in tau
    assert volume == pytest.approx(1.0, abs=0.02)


def test_csv_exports_round_trip(tmp_path):
    spec = _spec(L=1, h=0.4, seed=11)
    c = compute_coefficients(spec)
    f = np.linspace(-3, 3, 11)
    s = spectrum(c, spec.T, f)
    path = tmp_path / "spectrum.csv"
    write_csv(path, "f,re,im,abs2", [f, s])
    data = np.genfromtxt(path, delimiter=",", names=True)
    np.testing.assert_allclose(data["re"] + 1j * data["im"], s,
                               atol=1e-16)

    tau = np.linspace(-0.4, 0.4, 3)
    nu = np.linspace(-2, 2, 3)
    chi = af_surface(c, spec.T, tau, nu)
    path = tmp_path / "af.csv"
    write_csv(path, "tau,nu,re,im,abs2",
              [*np.meshgrid(tau, nu, indexing="ij"), chi])
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert len(data) == 9
    np.testing.assert_allclose(
        (data["re"] + 1j * data["im"]).reshape(3, 3), chi, atol=1e-16)

    tg, R = acf_uniform(c, spec.T, n_tau=16)
    path = tmp_path / "acf.csv"
    write_csv(path, "tau,re,im,abs2", [tg, R])
    data = np.genfromtxt(path, delimiter=",", names=True)
    np.testing.assert_allclose(data["abs2"], np.abs(R) ** 2, atol=1e-16)


@_PROPERTY
@given(spec=_specs(),
       s=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
       nuT=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=3))
def test_af_surface_matches_naive_double_sum_property(spec, s, nuT):
    c = compute_coefficients(spec)
    tau = np.array(s) * spec.T
    nu = np.array(nuT) / spec.T
    chi = np.array([[ambiguity(c, spec.T, t, v) for v in nu]
                    for t in tau])
    ref = np.array([[_naive_chi(c, spec.T, t, v) for v in nu] for t in tau])
    np.testing.assert_allclose(chi, ref, rtol=0, atol=1e-12)


@_PROPERTY
@given(spec=_specs(), n_tau=st.integers(3, 700))
def test_acf_uniform_matches_naive_double_sum_property(spec, n_tau):
    c = compute_coefficients(spec)
    tau, R = acf_uniform(c, spec.T, n_tau=n_tau)
    idx = np.unique(np.linspace(0, n_tau, 5).astype(int))
    ref = [_naive_chi(c, spec.T, tau[j], 0.0) for j in idx]
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
    c, c_neg = compute_coefficients(spec), compute_coefficients(neg)
    a = np.array([[ambiguity(c, spec.T, t, v) for v in nu] for t in tau])
    b = np.array([[ambiguity(c_neg, neg.T, t, v) for v in nu]
                  for t in tau])
    np.testing.assert_allclose(b, np.conj(a), rtol=0, atol=1e-12)
    assert abs(a[0, 0] - np.conj(a[0, 1])) < 1e-12
    n_tau = 256
    np.testing.assert_allclose(acf_uniform(c_neg, neg.T, n_tau)[1],
                               np.conj(acf_uniform(c, spec.T, n_tau)[1]),
                               rtol=0, atol=1e-12)


@_PROPERTY
@given(spec=_specs())
@example(spec=WaveformSpec(T=0.5, h=h_for_tbp(200.0, 24),
                           code=random_psk_code(24, 32, 0)))
def test_zero_delay_cut_is_sinc_property(spec):
    # |s(t)|^2 = 1/T on the support for every constant-envelope pulse, so
    # chi(0, nu) = (1/T) int exp(j 2 pi nu t) dt = sinc(nu T) whatever the
    # code.  The grid holds integer nu T and the +-0.5 ties of rint (exactly
    # so when T is a power of two).  Over 500 random specs of this range the
    # largest error was 5.1e-15.
    nus = np.linspace(-10.0, 10.0, 81) / spec.T
    chi = af_surface(compute_coefficients(spec), spec.T, [0.0], nus)[0]
    np.testing.assert_allclose(chi, np.sinc(nus * spec.T), rtol=0,
                               atol=1e-14)


def test_unmodulated_pulse_is_a_triangle():
    code = PskCode(phi=np.zeros(2))
    spec = WaveformSpec(T=2.0, h=0.0, code=code)
    c = compute_coefficients(spec)
    tau, R = acf_uniform(c, spec.T, n_tau=100)
    np.testing.assert_allclose(R, 1.0 - tau / spec.T, rtol=0, atol=1e-15)
    taus = np.array([-1.5, -0.5, 0.0, 0.7, 2.0])
    nus = np.array([-3.0, -0.25, 0.0, 1.0, 2.2])
    A = 1.0 - np.abs(taus) / spec.T
    ref = A[:, None] * np.sinc(A[:, None] * nus[None, :] * spec.T)
    chi = np.array([[ambiguity(c, spec.T, t, v) for v in nus]
                    for t in taus])
    np.testing.assert_allclose(chi, ref, rtol=0, atol=1e-15)


@pytest.mark.parametrize("L, h", [(1, 2.5), (3, 1.2)])
def test_chi_at_and_near_integer_doppler(L, h):
    # nu T on an integer makes one lag's bracket cancel exactly; 2.5 is the
    # tie between two nearest lags
    spec = _spec(L=L, h=h, T=0.8, seed=14)
    c = compute_coefficients(spec)
    tau = np.array([-0.6, 0.0, 0.25, 0.79]) * spec.T
    nuT = np.array([0.0, 1e-12, -1e-12, 4.0, 4.0 + 1e-12, -7.0 + 1e-12,
                    2.5, -2.5])
    nu = nuT / spec.T
    chi = np.array([[ambiguity(c, spec.T, t, v) for v in nu]
                    for t in tau])
    ref = np.array([[_naive_chi(c, spec.T, t, v) for v in nu] for t in tau])
    np.testing.assert_allclose(chi, ref, rtol=0, atol=1e-12)


# The kernels as they were before af_surface shared its +-nu kernels and
# sinc-term sums, with the delay sums taken directly, one phasor per
# harmonic.  af_surface's chirp-z must match them at rounding level, and
# acf_uniform, which takes v = conj(u) in place of the second convolution
# that _old_acf_uniform computes, to 1e-15.
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


def _old_af_surface(c, T, taus, nus):
    M = len(c) // 2
    s = taus / T
    neg = s < 0
    chi = np.empty((len(taus), len(nus)), dtype=complex)
    for j in range(0, len(nus), 64):
        nuT = nus[j:j + 64] * T
        if np.any(~neg):
            chi[~neg, j:j + 64] = _old_chi_causal(c, M, s[~neg], nuT)
        if np.any(neg):
            chi[neg, j:j + 64] = np.conj(
                _old_chi_causal(c, M, -s[neg], -nuT))
    return chi


def _old_acf_uniform(c, T, n_tau):
    M = len(c) // 2
    u, v, g, _ = _old_harmonic_weights(c, M, np.zeros(1))
    bins = np.arange(-M, M + 1) % n_tau

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
@given(spec=_specs(), n_s=st.integers(1, 4),
       span=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
       nuT=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=6),
       n_tau=st.integers(1, 700))
# T = 2 and 1 keep nu T = (k + 0.5) / T * T exact, on the tie of rint
@example(spec=WaveformSpec(T=2.0, h=0.0, code=PskCode(phi=np.zeros(1))),
         n_s=1, span=[0.4, 0.4], nuT=[0.5], n_tau=16)
@example(spec=WaveformSpec(T=1.0, h=1.2, code=PskCode(
    phi=np.array([0.3, -2.0, 1.1]))), n_s=3, span=[-0.25, 0.7],
    nuT=[-4.5, 0.0], n_tau=97)
def test_kernels_match_unshared_kernels_bit_for_bit_property(spec, n_s, span,
                                                              nuT, n_tau):
    c = compute_coefficients(spec)
    T = spec.T
    # tau = 0 and +-T; Dopplers on ties of rint at k +- 0.5, an asymmetric
    # grid, and more Dopplers than one block holds, not a multiple of it
    lo, hi = sorted(span)
    ties = np.array([-2.5, -0.5, 0.5, 1.5, 3.5])
    # the Dopplers af_surface builds kernels for at a time
    M = len(c) // 2
    block = max(1, closed_form._BLOCK // (1 << (4 * M).bit_length()))
    wide = np.linspace(-7.0, 11.0, 2 * block + 3)
    nu = np.concatenate([nuT, ties, wide]) / T
    for tau in (np.arange(-n_s, n_s + 1) / n_s * T,
                np.linspace(lo * T, hi * T, n_s + 1)):
        got = af_surface(c, spec.T, tau, nu)
        np.testing.assert_allclose(got, _old_af_surface(c, T, tau, nu),
                                   rtol=0, atol=2e-14)
    for t, v in ((lo * T, nu[0]), (-T, nu[-1]), (0.0, 0.5 / T)):
        point = ambiguity(c, spec.T, t, v)
        old = _old_af_surface(c, T, np.array([t]), np.array([v]))[0, 0]
        assert abs(point - old) < 2e-14


@_PROPERTY
@given(spec=_specs(), n_tau=st.integers(1, 700))
def test_acf_uniform_matches_two_convolution_formula_property(spec, n_tau):
    c = compute_coefficients(spec)
    _, R = acf_uniform(c, spec.T, n_tau)
    np.testing.assert_allclose(R, _old_acf_uniform(c, spec.T, n_tau),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("n_tau", [1, 2, 3, 7, 97, 4096])
@pytest.mark.parametrize("L, tbp", [(1, 0.0), (3, 0.0), (1, 9.0), (24, 200.0)])
def test_acf_uniform_matches_two_convolution_formula_at_edges(L, tbp, n_tau):
    # h = 0 (M = 0), L = 1, one to three delay steps, and grids shorter
    # than the 2M + 1 harmonics they fold
    h = h_for_tbp(tbp, L) if tbp else 0.0
    c = compute_coefficients(_spec(L=L, h=h, T=1.3, seed=3))
    _, R = acf_uniform(c, 1.3, n_tau)
    np.testing.assert_allclose(R, _old_acf_uniform(c, 1.3, n_tau),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("L, h, n_tau, n_nu", [
    (1, 0.0, 7, 3),      # h = 0: M = 0, one harmonic
    (1, 2.5, 9, 5),      # L = 1
    (4, 0.9, 1, 4),      # a one-point grid
    (3, 1.2, 2, 40),     # two delays, many Dopplers
])
@pytest.mark.parametrize("lo, hi", [(-1.0, -0.05), (0.0, 1.0), (0.3, 0.3),
                                    (-0.7, 0.55)])
def test_af_surface_edges_match_direct_sums(L, h, n_tau, n_nu, lo, hi):
    # all-negative, all-nonnegative, constant and mixed delay grids
    spec = _spec(L=L, h=h, T=1.7, seed=4)
    c = compute_coefficients(spec)
    tau = np.linspace(lo, hi, n_tau) * spec.T
    nu = np.linspace(-6.0, 9.0, n_nu) / spec.T
    got = af_surface(c, spec.T, tau, nu)
    np.testing.assert_allclose(got, _old_af_surface(c, spec.T, tau, nu),
                               rtol=0, atol=2e-14)


@_PROPERTY
@given(spec=_specs(), nuT=st.lists(st.floats(-30.0, 30.0), min_size=1,
                                   max_size=6))
def test_v_from_own_kernel_matches_kernel_at_minus_nu_property(spec, nuT):
    # v_n = conj(c_n) sum_m q_{m-n} c_m from the kernel at nu, by
    # q_k = -conj(p_k), against v from the kernel at -nu, by
    # q_k(nu) = -p_{-k}(-nu).  The rows _chi_causal hands its chirp-z
    # transform are the g rows of the distinct k0, in blocks of as many rows
    # as a Doppler block, then per Doppler block the u and v rows.
    c = compute_coefficients(spec)
    M = len(c) // 2
    # 0, integers, the ties of rint at k +- 0.5, and |nu T| up to 30
    nuT = np.concatenate([nuT, [0.0, 1.0, -3.0, 0.5, -0.5, 2.5, -29.5, 30.0]])
    rows = []
    chirp_z = closed_form.chirp_z

    def spy(*args):
        sums = chirp_z(*args)
        return lambda x: rows.append(x) or sums(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(closed_form, "chirp_z", spy)
        closed_form._chi_causal(c, M, np.zeros(1), 0.0, nuT)
    size = 1 << (4 * M).bit_length()
    block = max(1, closed_form._BLOCK // size)
    g_calls = -(-len(np.unique(np.rint(nuT))) // block)
    v = np.concatenate([r[len(r) // 2:] for r in rows[g_calls:]])
    old = -np.conj(c) * closed_form._lag_conv(
        closed_form._kernel_fft(M, -nuT, size), np.fft.fft(c, size), M)
    np.testing.assert_allclose(v, old, rtol=0, atol=1e-14)


@pytest.mark.parametrize("lo, hi, n_tau, per_doppler", [
    (0.0, 0.9, 33, 1),     # tau >= 0
    (-0.9, -0.1, 17, 1),   # tau < 0
    (0.4, 0.4, 1, 1),      # a single point
    (-0.9, 0.9, 64, 2),    # both halves
])
def test_af_surface_builds_one_kernel_row_per_doppler_and_half(
        monkeypatch, lo, hi, n_tau, per_doppler):
    spec = _spec(L=3, h=1.2, seed=2)
    built = []
    kernel_fft = closed_form._kernel_fft

    def counted(M, nuT, size):
        built.append(len(nuT))
        return kernel_fft(M, nuT, size)

    monkeypatch.setattr(closed_form, "_kernel_fft", counted)
    nu = np.linspace(-10.0, 10.0, 1 if n_tau == 1 else 40)
    af_surface(compute_coefficients(spec), spec.T, np.linspace(lo, hi, n_tau),
               nu)
    assert sum(built) == per_doppler * len(nu)


def test_af_surface_takes_linspace_grids_and_rejects_others():
    spec = _spec(L=1, h=0.5, T=2.5, seed=3)
    c = compute_coefficients(spec)
    rng = np.random.default_rng(8)
    for _ in range(200):
        lo, hi = np.sort(rng.uniform(-1.0, 1.0, 2)) * spec.T
        tau = np.linspace(lo, hi, rng.integers(1, 600))
        assert af_surface(c, spec.T, tau, [0.0]).shape[0] == len(tau)
    for tau in ([0.0, 0.1, 0.5], np.linspace(0.5, -0.5, 5),
                np.linspace(-1.0, 1.0, 9) + [0, 0, 0, 0, 1e-9, 0, 0, 0, 0]):
        with pytest.raises(ValueError, match="tau_grid"):
            af_surface(c, spec.T, tau, [0.0])


def test_kernels_return_arrays_of_their_grids_shape():
    spec = _spec(L=3, h=1.2, seed=2)
    c = compute_coefficients(spec)
    f = np.linspace(-9.0, 9.0, 6)
    S = spectrum(c, spec.T, f)
    assert S.shape == (6,) and S.dtype == complex
    # a grid of any shape gives that shape, entry for entry
    assert spectrum(c, spec.T, f[2]).shape == ()
    np.testing.assert_array_equal(
        spectrum(c, spec.T, f.reshape(2, 3)), S.reshape(2, 3))
    for n_tau, n_nu in ((1, 1), (5, 1), (1, 7), (5, 7)):
        chi = af_surface(c, spec.T, np.linspace(-0.5, 0.5, n_tau),
                         np.linspace(-3.0, 3.0, n_nu))
        assert chi.shape == (n_tau, n_nu) and chi.dtype == complex


def test_af_surface_on_empty_grids():
    spec = _spec(L=3, h=1.2, seed=2)
    c = compute_coefficients(spec)
    # tau >= 0, tau < 0 and both halves, each with no Doppler
    for tau in ([0.1, 0.2], [-0.3, -0.1], np.linspace(-0.5, 0.5, 5)):
        assert af_surface(c, spec.T, tau, []).shape == (len(tau), 0)
    assert af_surface(c, spec.T, [], [0.0, 1.5]).shape == (0, 2)
    assert af_surface(c, spec.T, [], []).shape == (0, 0)


def test_chirp_z_delay_sums_against_extended_precision():
    # sum_m u_m exp(-j 2 pi m s) for the u row of af_surface at nu T = 2.3,
    # at delays b + k a that are exact in double, so the direct sums see the
    # same delays as the transform; a's 43 bits keep a j^2 inexact
    b, a, n = 3 / 1024, 7 / 1024 * (1.0 + 2.0 ** -40), 129
    s = b + a * np.arange(n)
    assert all(Fraction(x) == Fraction(b) + k * Fraction(a)
               for k, x in enumerate(s))
    idx = [1, 64, 128]
    for L, tbp, seed, M in ((24, 200, 0, 484), (8, 2000, 3, 2806),
                            (4, 4000, 1, 4061)):
        spec = WaveformSpec(T=1.0, h=h_for_tbp(tbp, L),
                            code=random_psk_code(L, 32, seed))
        c = compute_coefficients(spec)
        assert len(c) == 2 * M + 1
        size = 1 << (4 * M).bit_length()
        u = c * closed_form._lag_conv(
            closed_form._kernel_fft(M, np.array([2.3]), size),
            np.fft.fft(np.conj(c), size), M)[0]
        m = np.arange(-M, M + 1)
        direct = (np.exp(-2j * np.pi * np.outer(s[idx], m)) * u).sum(axis=1)
        fast = chirp_z(b, a, -M, 2 * M + 1, n)(u)[idx]
        # Horner's rule in 100 bits, highest harmonic first
        ref = np.empty(len(idx), dtype=complex)
        with mpmath.workprec(100):
            poly = [mpmath.mpc(w) for w in u[::-1]]
            for r, i in enumerate(idx):
                z = mpmath.expjpi(-2 * mpmath.mpf(s[i]))
                ref[r] = complex(mpmath.polyval(poly, z) * z ** -M)
        assert np.max(np.abs(fast - ref)) <= 1.5 * np.max(np.abs(direct - ref))


def test_spectrum_entries_do_not_depend_on_the_grid(monkeypatch):
    # every value is a fixed-order sum over its own row of reciprocals, so
    # single frequencies, sub-grids and other buffer sizes give the grid's
    # bits.  At h = 600 and L = 1 a row (2M + 1 > 8192) is longer than
    # einsum's iterator buffer.
    rng = np.random.default_rng(5)
    for spec, n_f in ((_spec(L=24, h=0.1856, seed=3), 4001),
                      (_spec(L=2, h=5.0, T=2.5, seed=9), 1025),
                      (_spec(L=1, h=600.0, seed=2), 41)):
        c = compute_coefficients(spec)
        n_m, M = len(c), len(c) // 2
        # buffers of one row, of 7 rows and the default, each with a
        # partial last chunk
        default = max(1, 2 * closed_form._BLOCK // n_m)
        assert n_f % 7 and n_f % default
        x = rng.uniform(-1.5, 1.5, n_f) * M
        # r == 0 rows, inside and beyond +-M, on the first and last row of
        # every chunk
        k = rng.integers(-M - 40, M + 41, n_f)
        k[::5] = np.where(k[::5] < 0, -M - 1, M + 3)
        on = np.zeros(n_f, dtype=bool)
        for rows in (7, default):
            on[::rows] = on[rows - 1::rows] = True
        x[on] = k[on]
        f = x / spec.T
        full = spectrum(c, spec.T, f)
        assert np.any(np.abs(x[on]) > M)
        for block in (1, (7 * n_m + 1) // 2, closed_form._BLOCK):
            with monkeypatch.context() as mp:
                mp.setattr(closed_form, "_BLOCK", block)
                assert _same_bits(spectrum(c, spec.T, f), full)
        for i in (*range(0, n_f, max(1, n_f // 40)), n_f - 1):
            assert _same_bits(spectrum(c, spec.T, f[i]), full[i])
        for a, b in ((1, 8), (3, n_f // 2), (n_f // 3, n_f)):
            assert _same_bits(spectrum(c, spec.T, f[a:b]),
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
    spec = WaveformSpec(T=1.0, h=h_for_tbp(200.0, L),
                        code=random_psk_code(L, 32, 0))
    c = compute_coefficients(spec)
    assert len(c) // 2 == 484
    tau = np.linspace(-0.9, 0.9, 64)
    nu = np.linspace(-10.0, 10.0, 64)
    assert _traced_peak(lambda: af_surface(c, spec.T, tau, nu)) < 6e6
    f = np.linspace(-400.0, 400.0, 4001)
    assert _traced_peak(lambda: spectrum(c, spec.T, f)) < 1 << 20
    # TBP 2000: the sinc-term rows of the 21 distinct k0 in +-10/T go
    # through the transform in blocks too.  Peak 3.7 MB; 15.7 MB in one call
    spec = WaveformSpec(T=1.0, h=h_for_tbp(2000.0, L),
                        code=random_psk_code(L, 32, 0))
    c = compute_coefficients(spec)
    assert len(c) // 2 == 4765
    tau = np.linspace(-0.9, 0.9, 8)
    assert _traced_peak(lambda: af_surface(c, spec.T, tau, nu)) < 5e6


def test_closed_form_imports_neither_gbf_nor_the_spec():
    # the kernels read the pulse from (c, T) alone: the package names they
    # import are the grid, count and FFT-length rules
    tree = ast.parse(Path(closed_form.__file__).read_text())
    imports = {(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names}
    assert imports == {("waveform", "OutOfSupport"), ("waveform", "_count"),
                       ("waveform", "_fft_len")}


def test_no_support_check_is_unbounded():
    # every time, delay, Doppler and frequency grid has a finite support
    calls = [(path.name, node)
             for path in Path(closed_form.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func) == "OutOfSupport.check"]
    assert len(calls) >= 8
    for name, call in calls:
        for arg in call.args[1:] + [k.value for k in call.keywords]:
            assert "inf" not in ast.unparse(arg), (name, ast.unparse(call))


@pytest.mark.parametrize("c", [np.zeros(4, dtype=complex),
                               np.ones((3, 3), dtype=complex),
                               np.zeros(0, dtype=complex)],
                         ids=["even", "2-d", "empty"])
def test_kernels_reject_coefficients_without_a_centre(c):
    for kernel in (lambda: spectrum(c, 1.0, [0.0, 0.5]),
                   lambda: af_surface(c, 1.0, [0.0, 0.5], [0.0]),
                   lambda: ambiguity(c, 1.0, 0.25, 1.0),
                   lambda: acf_uniform(c, 1.0, 16)):
        with pytest.raises(ValueError, match="odd"):
            kernel()

import mpmath
import numpy as np
import pytest

from ceofdm import gbf, waveform
from ceofdm.cli import write_csv
from ceofdm.eoa import h_for_tbp
from ceofdm.gbf import (GbfCoefficients, TruncationFailure,
                        compute_coefficients, resynthesize)
from ceofdm.waveform import (PskCode, WaveformSpec, _harmonic_sum, phase_at,
                             random_psk_code, wrap_phase)


def _spec(L=2, h=0.5, T=1.0, seed=1):
    return WaveformSpec(T=T, h=h, code=random_psk_code(L, 32, seed))


def test_constant_waveform_has_single_coefficient():
    spec = WaveformSpec(T=1.0, h=0.0,
                        code=PskCode(L=3, gamma=np.ones(3), phi=np.zeros(3)))
    co = compute_coefficients(spec)
    assert co.coefficient(0) == pytest.approx(1.0, abs=1e-15)
    others = np.delete(co.c, co.M)
    np.testing.assert_allclose(others, 0.0, atol=1e-15)
    assert co.residual < 1e-12


def test_single_carrier_reduces_to_ordinary_bessel():
    # c_m = j^m e^{j m phi_1} J_m(2 pi h) for L = 1
    for h, phi1 in [(0.5, -np.pi / 4), (1.3, 1.0), (2.0, np.pi)]:
        code = PskCode(L=1, gamma=np.ones(1), phi=np.array([phi1]))
        co = compute_coefficients(WaveformSpec(T=1.0, h=h, code=code))
        with mpmath.workdps(30):
            for m in range(-co.M, co.M + 1):
                ref = (1j ** m) * np.exp(1j * m * phi1) * float(
                    mpmath.besselj(m, 2 * np.pi * h))
                assert abs(co.coefficient(m) - ref) < 1e-10


def _coefficients_from_scratch(spec):
    # the schedule with every order sampling the phase factor in full
    M = gbf._initial_order(spec)
    while True:
        nfft = 1
        while nfft < 4 * (2 * M + 1):
            nfft *= 2
        theta = 2.0 * np.pi * np.arange(nfft) / nfft
        g = np.exp(1j * (2.0 * np.pi * spec.h
                         * _harmonic_sum(spec.code, theta)))
        c = (np.fft.fft(g) / nfft)[np.arange(-M, M + 1) % nfft]
        residual = float(1.0 - np.sum(np.abs(c) ** 2))
        if residual < gbf.TOL and max(abs(c[0]), abs(c[-1])) <= gbf.TOL:
            return M, c, residual
        M *= 2


@pytest.mark.parametrize("case", ["scan", "L24", "chunked"])
def test_doubled_order_reuses_samples_bit_for_bit(case, monkeypatch):
    # the scan's h range (157 -> 314), an L = 24 code at TBP 200 that
    # doubles 484 -> 968, and the scan's h with _harmonic_sum chunked below
    # the doubled FFT size of 4096
    if case == "L24":
        specs = [WaveformSpec(T=1.0, h=h_for_tbp(1.0, 200.0, 24),
                              code=random_psk_code(24, 32, 1))]
    else:
        specs = [WaveformSpec(T=1.0, h=h, code=PskCode(
                     L=2, gamma=np.ones(2), phi=wrap_phase(np.array(phi))))
                 for h in (5.78, 5.7975, 5.8149)
                 for phi in ([0.0, 0.0], [0.3, -1.2], [-np.pi, 2.5])]
    if case == "chunked":
        monkeypatch.setattr(waveform, "_HARMONIC_CHUNK", 1000)
    sizes = []

    def counted(code, x, *args):
        sizes.append(len(x))
        return _harmonic_sum(code, x, *args)

    # the reference calls waveform's _harmonic_sum, which stays uncounted
    monkeypatch.setattr(gbf, "_harmonic_sum", counted)
    for spec in specs:
        M, c, residual = _coefficients_from_scratch(spec)
        assert M == 2 * gbf._initial_order(spec)
        sizes.clear()
        co = compute_coefficients(spec)
        assert co.M == M and co.residual == residual
        assert co.c.tobytes() == c.tobytes()
        # the rebuild evaluates only the odd samples of its grid
        assert sizes == [sizes[0], sizes[0]]


def test_parseval_residual_below_tol():
    for seed in range(5):
        spec = _spec(L=8, h=0.4, seed=seed)
        co = compute_coefficients(spec)
        # rounding can push the coefficient energy a hair past 1
        assert -1e-14 < co.residual < 1e-12
        assert len(co.c) == 2 * co.M + 1


def test_coefficients_deterministic():
    spec = _spec(L=4, h=1.1, seed=3)
    a = compute_coefficients(spec)
    b = compute_coefficients(spec)
    assert a.M == b.M
    np.testing.assert_array_equal(a.c, b.c)


def test_resynthesis_matches_phase_samples():
    spec = _spec(L=4, h=0.8, seed=2)
    co = compute_coefficients(spec)
    t = np.linspace(-spec.T / 2, spec.T / 2, 4096)
    ref = np.exp(1j * phase_at(spec, t))
    err = np.abs(resynthesize(co, spec.T, t) - ref)
    assert err.max() < 1e-11


def test_phase_negation_flips_coefficient_index():
    # negating every code phase sends c_m to c_{-m} exactly
    spec = _spec(L=5, h=0.9, seed=8)
    neg = WaveformSpec(T=spec.T, h=spec.h,
                       code=PskCode(L=spec.L, gamma=spec.code.gamma,
                                    phi=wrap_phase(-spec.code.phi)))
    a = compute_coefficients(spec)
    b = compute_coefficients(neg)
    assert a.M == b.M
    np.testing.assert_allclose(b.c, a.c[::-1], atol=5e-15)


def test_truncation_order_grows_with_h():
    assert compute_coefficients(_spec(L=2, h=0.1)).M < compute_coefficients(
        _spec(L=2, h=5.0)).M


def test_truncation_cap_enforced():
    code = PskCode(L=100, gamma=np.ones(100), phi=np.zeros(100))
    spec = WaveformSpec(T=1.0, h=25.0, code=code)
    with pytest.raises(TruncationFailure):
        compute_coefficients(spec)


def test_coefficient_accessor_bounds():
    co = compute_coefficients(_spec())
    assert co.coefficient(0) == complex(co.c[co.M])
    with pytest.raises(IndexError):
        co.coefficient(co.M + 1)
    with pytest.raises(ValueError):
        GbfCoefficients(M=2, c=np.zeros(4, dtype=complex), residual=0.0)


def test_coefficient_csv_round_trip(tmp_path):
    co = compute_coefficients(_spec(L=3, h=0.6, seed=4))
    path = tmp_path / "coeffs.csv"
    write_csv(path, "m,re,im,abs2", [co.m_index, co.c])
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert len(data) == 2 * co.M + 1
    np.testing.assert_allclose(data["re"] + 1j * data["im"], co.c,
                               atol=1e-16)
    np.testing.assert_allclose(data["abs2"], np.abs(co.c) ** 2, atol=1e-16)

import mpmath
import numpy as np
import pytest

from ceofdm.cli import write_csv
from ceofdm.gbf import (GbfCoefficients, TruncationFailure,
                        compute_coefficients, resynthesize)
from ceofdm.waveform import (PskCode, WaveformSpec, phase_at,
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

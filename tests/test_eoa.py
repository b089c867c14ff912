import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ceofdm.closed_form import af_surface
from ceofdm.eoa import (DegenerateEllipse, EoaParameters, ellipse_contour,
                        ellipse_tilt, eoa_closed_form, h_for_tbp,
                        max_coupling_code, rho_norm_max)
from ceofdm.oracle import eoa_numeric
from ceofdm.waveform import (PskCode, WaveformSpec, freq_mod_at,
                             random_psk_code)


def _spec(L=2, h=0.5, T=1.0, seed=1):
    return WaveformSpec(T=T, h=h, code=random_psk_code(L, 32, seed))


def test_h_from_time_bandwidth_product():
    assert h_for_tbp(1.0, 200.0, 24) == pytest.approx(0.1856, abs=1e-4)
    assert h_for_tbp(1.0, 200.0, 2) == pytest.approx(5.81, abs=1e-2)


def test_h_from_tbp_reproduces_bandwidth():
    # the returned h makes beta2 equal the swept-LFM value pi^2 df^2 / 3
    for L, T, df in [(4, 1.0, 50.0), (24, 2.0, 100.0)]:
        h = h_for_tbp(T, df, L)
        spec = WaveformSpec(T=T, h=h, code=random_psk_code(L, 32, 0))
        beta2 = eoa_closed_form(spec).beta2
        assert beta2 == pytest.approx(np.pi ** 2 * df ** 2 / 3.0, rel=1e-12)


def test_single_carrier_bandwidth_value():
    code = PskCode(L=1, gamma=np.ones(1), phi=np.array([0.7]))
    params = eoa_closed_form(WaveformSpec(T=1.0, h=1.0, code=code))
    assert params.beta2 == pytest.approx(8.0 * np.pi ** 4, rel=1e-14)
    assert params.tau2 == pytest.approx(np.pi ** 2 / 3.0, rel=1e-14)


def test_closed_forms_match_quadrature():
    fs = 16384.0
    spec = _spec(L=3, h=0.9, seed=2)
    params = eoa_closed_form(spec)
    numeric = eoa_numeric(spec, fs)
    assert params.beta2 == pytest.approx(numeric["beta2"], rel=1e-9)
    assert params.rho == pytest.approx(numeric["rho"], abs=1e-8)


def test_rho_norm_max_values():
    assert rho_norm_max(1) == pytest.approx(0.7797, abs=5e-4)
    assert rho_norm_max(24) == pytest.approx(0.2673, abs=5e-4)
    # formula consistency at an un-tabulated L
    L = 2
    ref = (6.0 / np.pi) * L / np.sqrt(2 * L ** 3 + 3 * L ** 2 + L)
    assert rho_norm_max(2) == pytest.approx(ref, rel=1e-14)


def test_rho_norm_max_decays_like_inverse_sqrt_L():
    ratio = rho_norm_max(64) / rho_norm_max(16)
    assert ratio == pytest.approx(0.5, rel=0.15)


def test_max_coupling_code_is_binary_optimum():
    # exhaustive check over all {0, pi}^L phase patterns
    for L in (1, 2, 5, 8):
        h = 0.7
        best = -np.inf
        for bits in itertools.product((0.0, np.pi), repeat=L):
            code = PskCode(L=L, gamma=np.ones(L), phi=np.array(bits))
            best = max(best, eoa_closed_form(
                WaveformSpec(T=1.0, h=h, code=code)).rho)
        code = max_coupling_code(L)
        rho = eoa_closed_form(WaveformSpec(T=1.0, h=h, code=code)).rho
        assert rho == pytest.approx(best, rel=1e-12)
        assert rho == pytest.approx(4.0 * np.pi ** 2 * h * L, rel=1e-9)


def test_max_coupling_code_phases_alternate():
    code = max_coupling_code(6)
    np.testing.assert_allclose(code.phi, [np.pi, 0.0] * 3, atol=1e-15)
    assert code.m_psk == 2


def test_bandwidth_ignores_code_phases():
    ref = None
    for seed in range(100):
        spec = _spec(L=8, h=0.6, seed=seed)
        beta2 = eoa_closed_form(spec).beta2
        if ref is None:
            ref = beta2
        assert beta2 == pytest.approx(ref, rel=1e-12)


def test_rho_norm_invariant_to_h_and_T():
    code = random_psk_code(5, 32, 3)
    ref = eoa_closed_form(WaveformSpec(T=1.0, h=0.5, code=code)).rho_norm
    for T, h in [(2.0, 0.5), (1.0, 3.0), (0.25, 7.0)]:
        val = eoa_closed_form(WaveformSpec(T=T, h=h, code=code)).rho_norm
        assert val == pytest.approx(ref, rel=1e-12)


def test_rho_norm_bounded_by_maximum():
    for L in (2, 8, 24):
        bound = rho_norm_max(L)
        for seed in range(200):
            spec = _spec(L=L, h=0.9, seed=seed)
            assert abs(eoa_closed_form(spec).rho_norm) <= bound + 1e-12


def test_centroid_is_zero():
    # stored f0 and the time-averaged instantaneous frequency both vanish
    spec = _spec(L=6, h=1.1, seed=4)
    assert eoa_closed_form(spec).f0 == 0.0
    t = -spec.T / 2 + (np.arange(4096) + 0.5) * spec.T / 4096
    assert abs(np.mean(freq_mod_at(spec, t))) < 1e-9


def test_parameter_dict_round_trip():
    params = eoa_closed_form(_spec(seed=5))
    d = params.as_dict()
    assert d["rho_norm"] == params.rho_norm
    assert set(d) == {"beta2", "tau2", "rho", "rho_norm", "f0"}


def test_ellipse_points_satisfy_quadratic_form():
    params = eoa_closed_form(_spec(L=4, h=0.8, seed=6))
    xi = 0.03
    pts = ellipse_contour(params, xi, n_points=128)
    assert pts.shape == (128, 2)
    q = (params.beta2 * pts[:, 0] ** 2
         - 2.0 * params.rho * pts[:, 0] * pts[:, 1]
         + params.tau2 * pts[:, 1] ** 2)
    np.testing.assert_allclose(q, xi, rtol=1e-9)


def test_ellipse_axes_without_coupling():
    params = EoaParameters(beta2=16.0, tau2=4.0, rho=0.0, rho_norm=0.0)
    pts = ellipse_contour(params, 1.0, n_points=512)
    assert np.max(np.abs(pts[:, 0])) == pytest.approx(1.0 / 4.0, rel=1e-6)
    assert np.max(np.abs(pts[:, 1])) == pytest.approx(1.0 / 2.0, rel=1e-6)
    assert ellipse_tilt(params) == pytest.approx(0.0, abs=1e-15)


def test_ellipse_tilt_grows_with_coupling():
    tilts = []
    for rn in (0.0, 0.2673, 0.7797):
        rho = rn * np.sqrt(16.0 * 4.0)
        params = EoaParameters(beta2=16.0, tau2=4.0, rho=rho, rho_norm=rn)
        tilts.append(abs(ellipse_tilt(params)))
    assert tilts[0] < tilts[1] < tilts[2]


def test_degenerate_ellipse_rejected():
    params = EoaParameters(beta2=16.0, tau2=4.0, rho=8.0, rho_norm=1.0)
    with pytest.raises(DegenerateEllipse):
        ellipse_contour(params, 1.0)
    with pytest.raises(ValueError):
        ellipse_contour(eoa_closed_form(_spec()), -1.0)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(L=st.integers(1, 24), T=st.floats(0.25, 4.0), tbp=st.floats(50.0, 400.0),
       phi=st.lists(st.floats(-np.pi, np.pi), min_size=24, max_size=24))
def test_ellipse_follows_af_level_set_property(L, T, tbp, phi):
    # The contour at xi = 0.02 should trace a level set of |chi|^2 in the
    # (tau, nu) plane of af_surface.  Its mirror in nu has the opposite
    # coupling sign.  Over 450 random codes with |rho_norm| >= 0.1 and
    # TBP >= 50 the spread of |chi|^2 along the contour was at most 0.29
    # times the spread along the mirror.
    code = PskCode(L=L, gamma=np.ones(L), phi=np.array(phi[:L]))
    spec = WaveformSpec(T=T, h=h_for_tbp(T, tbp / T, L), code=code)
    params = eoa_closed_form(spec)
    assume(abs(params.rho_norm) >= 0.1)
    pts = ellipse_contour(params, 0.02, n_points=16)

    def spread(tau, nu):
        chi = af_surface(spec, tau, nu).chi
        v = np.abs(np.diag(chi)) ** 2
        return np.max(v) - np.min(v)

    assert spread(pts[:, 0], pts[:, 1]) < 0.5 * spread(pts[:, 0], -pts[:, 1])

import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ceofdm.closed_form import ambiguity, lag_weights
from ceofdm.eoa import (DegenerateEllipse, ellipse_contour, ellipse_tilt,
                        eoa_closed_form, h_for_tbp, max_coupling_code,
                        rho_norm_max)
from ceofdm.gbf import compute_coefficients
from ceofdm.oracle import eoa_numeric
from ceofdm.waveform import (PskCode, WaveformSpec, freq_mod_at,
                             random_psk_code, write_json)


def _spec(L=2, h=0.5, T=1.0, seed=1):
    return WaveformSpec(T=T, h=h, code=random_psk_code(L, 32, seed))


def test_h_from_time_bandwidth_product():
    assert h_for_tbp(200.0, 24) == pytest.approx(0.1856, abs=1e-4)
    assert h_for_tbp(200.0, 2) == pytest.approx(5.81, abs=1e-2)


def test_h_from_tbp_reproduces_bandwidth():
    # the returned h makes beta2 equal the swept-LFM value pi^2 df^2 / 3
    for L, T, df in [(4, 1.0, 50.0), (24, 2.0, 100.0)]:
        h = h_for_tbp(T * df, L)
        spec = WaveformSpec(T=T, h=h, code=random_psk_code(L, 32, 0))
        beta2 = eoa_closed_form(spec)["beta2"]
        assert beta2 == pytest.approx(np.pi ** 2 * df ** 2 / 3.0, rel=1e-12)


def test_single_carrier_bandwidth_value():
    code = PskCode(phi=np.array([0.7]))
    params = eoa_closed_form(WaveformSpec(T=1.0, h=1.0, code=code))
    assert params["beta2"] == pytest.approx(8.0 * np.pi ** 4, rel=1e-14)
    assert params["tau2"] == pytest.approx(np.pi ** 2 / 3.0, rel=1e-14)


# the largest relative gap between the coefficient-engine and closed-form
# beta2 seen over 300 random specs with h <= 1 and L <= 24 was 3.8e-15
_BETA2_REL = 1e-14


def _beta2_from_coefficients(spec):
    # (2 pi / T)^2 (sum m^2 w_m - (sum m w_m)^2), the spectral variance of
    # the line spectrum w_m = |c_m|^2 that the ACF's lag weights hold
    w, _ = lag_weights(compute_coefficients(spec))
    M = len(w) // 2
    m = np.arange(-M, M + 1, dtype=float)
    return ((2.0 * np.pi / spec.T) ** 2
            * (np.sum(m * m * w) - np.sum(m * w) ** 2))


def test_bandwidth_from_coefficients_matches_closed_form():
    # random codes, half of them with amplitudes other than 1, whose beta2
    # weighs tone l by l^2 gamma_l^2
    rng = np.random.default_rng(23)
    for i in range(40):
        L = int(rng.integers(1, 25))
        gamma = rng.uniform(0.0, 2.0, L) if i % 2 else None
        code = PskCode(phi=rng.uniform(-np.pi, np.pi, L), gamma=gamma)
        spec = WaveformSpec(T=float(rng.uniform(0.3, 3.0)),
                            h=float(rng.uniform(0.0, 1.0)), code=code)
        assert _beta2_from_coefficients(spec) == pytest.approx(
            eoa_closed_form(spec)["beta2"], rel=_BETA2_REL, abs=0.0)
    # h = 0 at L = 1: one line at m = 0, and both are exactly 0
    spec = WaveformSpec(T=1.7, h=0.0, code=PskCode(phi=[0.3]))
    assert _beta2_from_coefficients(spec) == 0.0
    assert eoa_closed_form(spec)["beta2"] == 0.0


@pytest.mark.parametrize("L", [4, 24])
def test_bandwidth_is_fixed_by_h_and_L(L):
    # the paper's claim: every PSK code of L tones at one h has the same
    # RMS bandwidth, here through the coefficient engine
    h = h_for_tbp(200.0, L)
    beta2 = eoa_closed_form(WaveformSpec(
        T=1.0, h=h, code=random_psk_code(L, 8, 0)))["beta2"]
    for seed in range(8):
        spec = WaveformSpec(T=1.0, h=h, code=random_psk_code(L, 8, seed))
        assert _beta2_from_coefficients(spec) == pytest.approx(
            beta2, rel=_BETA2_REL, abs=0.0)


def test_closed_forms_match_quadrature():
    fs = 16384.0
    # a PSK code, then amplitudes other than 1: beta2 weighs tone l by
    # l^2 gamma_l^2
    specs = [_spec(L=3, h=0.9, seed=2)]
    for gamma, phi, h in [([2.0, 1.0], [0.0, 0.0], 1.0),
                          ([0.5, 0.0, 1.7], [0.1, 2.0, -0.4], 0.6),
                          ([0.2, 1.3, 0.9, 2.4], [3.0, -1.2, 0.5, 1.1], 0.3)]:
        code = PskCode(phi=phi, gamma=gamma)
        specs.append(WaveformSpec(T=1.3, h=h, code=code))
    for spec in specs:
        params = eoa_closed_form(spec)
        numeric = eoa_numeric(spec, fs)
        assert params["beta2"] == pytest.approx(numeric["beta2"], rel=1e-9)
        assert params["rho"] == pytest.approx(numeric["rho"], abs=1e-8)


def test_unit_code_bandwidth_keeps_its_polynomial_bits():
    # unit amplitudes give (4 pi^4 h^2 / 3 T^2) (2 L^3 + 3 L^2 + L) exactly
    for L in (1, 2, 3, 8, 24, 100):
        for T, h in [(1.0, 5.81), (2.5, 0.1856), (0.3, 1e-3)]:
            spec = WaveformSpec(T=T, h=h, code=random_psk_code(L, 32, L))
            ref = (4.0 * np.pi ** 4 * h ** 2 / (3.0 * T ** 2)) * float(
                2 * L ** 3 + 3 * L ** 2 + L)
            assert eoa_closed_form(spec)["beta2"] == ref


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
            code = PskCode(phi=np.array(bits))
            best = max(best, eoa_closed_form(
                WaveformSpec(T=1.0, h=h, code=code))["rho"])
        code = max_coupling_code(L)
        rho = eoa_closed_form(WaveformSpec(T=1.0, h=h, code=code))["rho"]
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
        beta2 = eoa_closed_form(spec)["beta2"]
        if ref is None:
            ref = beta2
        assert beta2 == pytest.approx(ref, rel=1e-12)


def test_rho_norm_invariant_to_h_and_T():
    code = random_psk_code(5, 32, 3)
    ref = eoa_closed_form(WaveformSpec(T=1.0, h=0.5, code=code))["rho_norm"]
    for T, h in [(2.0, 0.5), (1.0, 3.0), (0.25, 7.0)]:
        val = eoa_closed_form(WaveformSpec(T=T, h=h, code=code))["rho_norm"]
        assert val == pytest.approx(ref, rel=1e-12)


def test_rho_norm_bounded_by_maximum():
    for L in (2, 8, 24):
        bound = rho_norm_max(L)
        for seed in range(200):
            spec = _spec(L=L, h=0.9, seed=seed)
            assert abs(eoa_closed_form(spec)["rho_norm"]) <= bound + 1e-12


def test_centroid_is_zero():
    # stored f0 and the time-averaged instantaneous frequency both vanish
    spec = _spec(L=6, h=1.1, seed=4)
    assert eoa_closed_form(spec)["f0"] == 0.0
    t = -spec.T / 2 + (np.arange(4096) + 0.5) * spec.T / 4096
    assert abs(np.mean(freq_mod_at(spec, t))) < 1e-9


def test_parameter_dict_round_trip(tmp_path):
    # the dict is what eoa.json holds, and it survives the JSON writer
    params = eoa_closed_form(_spec(seed=5))
    assert set(params) == {"beta2", "tau2", "rho", "rho_norm", "f0"}
    assert set(eoa_numeric(_spec(seed=5), 8192.0)) < set(params)
    write_json(tmp_path / "eoa.json", params)
    assert json.loads((tmp_path / "eoa.json").read_text()) == params


def test_ellipse_points_satisfy_quadratic_form():
    params = eoa_closed_form(_spec(L=4, h=0.8, seed=6))
    xi = 0.03
    pts = ellipse_contour(params, xi, n_points=128)
    assert pts.shape == (128, 2)
    q = (params["beta2"] * pts[:, 0] ** 2
         - 2.0 * params["rho"] * pts[:, 0] * pts[:, 1]
         + params["tau2"] * pts[:, 1] ** 2)
    np.testing.assert_allclose(q, xi, rtol=1e-9)


@pytest.mark.parametrize("T", [1e-6, 1e-3, 1.0, 1e2, 1e4])
def test_ellipse_points_satisfy_quadratic_form_at_any_duration(T):
    # beta2 / tau2 spans 28 decades over these T.  Completing the square
    # kept every point within 7e-16 of xi.  A rotation by ellipse_tilt's
    # angle with the eigenvalues (beta2 + tau2) / 2 +- hypot(beta2 - tau2,
    # 2 rho) / 2 found the smaller one 0 at T <= 1e-3 and was 2e-4 off at
    # T = 1e4 (7e-11 with the smaller one as D over the larger).  The
    # polygon's area is the ellipse's, pi xi / sqrt(D).
    rng = np.random.default_rng(5)
    for _ in range(10):
        L = int(rng.integers(1, 25))
        spec = WaveformSpec(T=T, h=h_for_tbp(rng.uniform(50.0, 2000.0), L),
                            code=PskCode(phi=rng.uniform(-np.pi, np.pi, L)))
        p = eoa_closed_form(spec)
        tau, nu = ellipse_contour(p, 0.02, n_points=4096).T
        q = (p["beta2"] * tau ** 2 - 2.0 * p["rho"] * tau * nu
             + p["tau2"] * nu ** 2)
        np.testing.assert_allclose(q, 0.02, rtol=4e-15)
        area = 0.5 * abs(np.sum(tau * np.roll(nu, -1) - np.roll(tau, -1) * nu))
        det = p["beta2"] * p["tau2"] - p["rho"] ** 2
        assert area == pytest.approx(np.pi * 0.02 / np.sqrt(det), rel=1e-6)


def test_ellipse_axes_without_coupling():
    params = dict(beta2=16.0, tau2=4.0, rho=0.0, rho_norm=0.0)
    pts = ellipse_contour(params, 1.0, n_points=512)
    assert np.max(np.abs(pts[:, 0])) == pytest.approx(1.0 / 4.0, rel=1e-6)
    assert np.max(np.abs(pts[:, 1])) == pytest.approx(1.0 / 2.0, rel=1e-6)
    assert ellipse_tilt(params) == pytest.approx(0.0, abs=1e-15)


def test_ellipse_tilt_grows_with_coupling():
    tilts = []
    for rn in (0.0, 0.2673, 0.7797):
        rho = rn * np.sqrt(16.0 * 4.0)
        params = dict(beta2=16.0, tau2=4.0, rho=rho, rho_norm=rn)
        tilts.append(abs(ellipse_tilt(params)))
    assert tilts[0] < tilts[1] < tilts[2]


def test_degenerate_ellipse_rejected():
    params = dict(beta2=16.0, tau2=4.0, rho=8.0, rho_norm=1.0)
    with pytest.raises(DegenerateEllipse):
        ellipse_contour(params, 1.0)
    with pytest.raises(ValueError):
        ellipse_contour(eoa_closed_form(_spec()), -1.0)
    # h = 0: beta2 = rho = 0, so the form's smaller eigenvalue is 0
    params = eoa_closed_form(WaveformSpec(T=1.7, h=0.0,
                                          code=PskCode(phi=[0.3])))
    assert params["rho_norm"] == 0.0
    with pytest.raises(DegenerateEllipse):
        ellipse_contour(params, 0.02)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(L=st.integers(1, 24), T=st.floats(0.25, 4.0), tbp=st.floats(50.0, 400.0),
       phi=st.lists(st.floats(-np.pi, np.pi), min_size=24, max_size=24))
def test_ellipse_follows_af_level_set_property(L, T, tbp, phi):
    # The contour at xi = 0.02 should trace a level set of |chi|^2 in the
    # (tau, nu) plane.  Its mirror in nu has the opposite
    # coupling sign.  Over 450 random codes with |rho_norm| >= 0.1 and
    # TBP >= 50 the spread of |chi|^2 along the contour was at most 0.29
    # times the spread along the mirror.
    code = PskCode(phi=np.array(phi[:L]))
    spec = WaveformSpec(T=T, h=h_for_tbp(tbp, L), code=code)
    params = eoa_closed_form(spec)
    assume(abs(params["rho_norm"]) >= 0.1)
    pts = ellipse_contour(params, 0.02, n_points=16)
    c = compute_coefficients(spec)

    def spread(tau, nu):
        v = np.abs([ambiguity(c, spec.T, t, n)
                    for t, n in zip(tau, nu)]) ** 2
        return np.max(v) - np.min(v)

    assert spread(pts[:, 0], pts[:, 1]) < 0.5 * spread(pts[:, 0], -pts[:, 1])

import numpy as np
import pytest

from ceofdm.cli import write_csv
from ceofdm.closed_form import acf_uniform
from ceofdm.gbf import compute_coefficients
from ceofdm.oracle import af_numeric_grid
from ceofdm.sidelobes import (DB_FLOOR, isl, mainlobe_null, metric_surface,
                              pslr, report_from_acf)
from ceofdm.waveform import (PskCode, WaveformSpec, random_psk_code,
                             wrap_phase)


def _spec(h=5.8116, seed=5):
    return WaveformSpec(T=1.0, h=h, code=random_psk_code(2, 32, seed))


def _acf(spec, n_tau):
    return acf_uniform(compute_coefficients(spec), spec.T, n_tau)


def test_null_of_squared_cosine():
    # |R|^2 = cos^2(pi tau / w) has its first null exactly at w / 2
    w = 0.4
    tau = np.linspace(0.0, 1.0, 201)
    y = np.cos(np.pi * tau / w) ** 2
    dt, found = mainlobe_null(tau, y)
    assert found
    assert dt == pytest.approx(w / 2, abs=1e-4)


def test_null_refinement_beats_grid_spacing():
    # true null at an irrational fraction of the grid step
    w = 2.0 / np.sqrt(5.0)
    tau = np.linspace(0.0, 1.0, 101)
    y = np.cos(np.pi * tau / w) ** 2
    dt, found = mainlobe_null(tau, y)
    assert found
    assert abs(dt - w / 2) < 0.2 * (tau[1] - tau[0])


def test_monotone_acf_has_no_null():
    tau = np.linspace(0.0, 2.0, 100)
    y = (1.0 - tau / 2.0) ** 2  # unmodulated-pulse triangle, squared
    dt, found = mainlobe_null(tau, y)
    assert not found
    assert dt == 2.0


def test_mainlobe_null_needs_three_points():
    with pytest.raises(ValueError):
        mainlobe_null(np.array([0.0, 1.0]), np.array([1.0, 0.0]))


def test_pslr_of_synthetic_plateau():
    tau = np.linspace(0.0, 1.0, 1001)
    y = np.where(tau < 0.1, (1.0 - tau / 0.1) ** 2, 0.01)
    dt, found = mainlobe_null(tau, y)
    assert found
    assert pslr(tau, y, dt) == pytest.approx(-20.0, abs=1e-9)


def test_isl_of_synthetic_plateau():
    # sidelobe area 0.9 * 0.01 vs mainlobe area 0.1 / 3
    tau = np.linspace(0.0, 1.0, 10001)
    y = np.where(tau < 0.1, (1.0 - tau / 0.1) ** 2, 0.01)
    ref = 10.0 * np.log10((0.9 * 0.01) / (0.1 / 3.0))
    assert isl(tau, y, 0.1) == pytest.approx(ref, abs=1e-2)


def test_degenerate_report_is_flagged():
    code = PskCode(phi=np.zeros(2))
    spec = WaveformSpec(T=1.0, h=0.0, code=code)
    for n_tau in (3, 16, 256, 4096):
        rep = report_from_acf(*_acf(spec, n_tau))
        assert not rep["null_found"]
        assert rep["delta_tau"] == spec.T
        # nothing beyond the fallback boundary, whatever the grid
        assert rep["pslr_db"] == DB_FLOOR
        assert rep["isl_db"] == DB_FLOOR


def test_report_from_complex_and_magnitude_input_agree():
    # a real input is R itself, not |R|^2: both give the metrics of |R|^2
    spec = _spec()
    tau, R = _acf(spec, 512)
    assert report_from_acf(tau, np.abs(R)) == report_from_acf(tau, R)


def test_metrics_invariant_under_phase_negation():
    spec = _spec(seed=7)
    neg = WaveformSpec(T=spec.T, h=spec.h,
                       code=PskCode(phi=wrap_phase(-spec.code.phi),
                                    gamma=spec.code.gamma))
    a = report_from_acf(*_acf(spec, 1024))
    b = report_from_acf(*_acf(neg, 1024))
    assert abs(a["pslr_db"] - b["pslr_db"]) < 1e-9
    assert abs(a["isl_db"] - b["isl_db"]) < 1e-9


def test_metrics_converge_with_grid():
    spec = _spec(seed=5)
    coarse = report_from_acf(*_acf(spec, 2048))
    fine = report_from_acf(*_acf(spec, 8192))
    assert abs(coarse["pslr_db"] - fine["pslr_db"]) < 0.01
    assert abs(coarse["isl_db"] - fine["isl_db"]) < 0.01


def test_metrics_match_quadrature_acf():
    # same metrics when the ACF comes from the numeric integral instead
    spec = _spec(seed=5)
    tau, R = _acf(spec, 512)
    ref = af_numeric_grid(spec, tau, np.zeros(1), 8192.0)[:, 0]
    a = report_from_acf(tau, R)
    b = report_from_acf(tau, ref)
    assert abs(a["pslr_db"] - b["pslr_db"]) < 0.01
    assert abs(a["isl_db"] - b["isl_db"]) < 0.01


def test_metric_surface_symmetry_and_export(tmp_path):
    # phase negation maps grid index k to (n - k) mod n on every axis
    for L, n, n_tau in ((2, 8, 1024), (3, 4, 256)):
        phis, isl_db, pslr_db = metric_surface(5.8116, n, n_tau=n_tau, L=L)
        assert isl_db.shape == pslr_db.shape == (n,) * L
        assert len(phis) == n and phis[0] == pytest.approx(-np.pi)
        neg = np.ix_(*[(n - np.arange(n)) % n] * L)
        np.testing.assert_allclose(isl_db[neg], isl_db, rtol=0, atol=1e-9)
        np.testing.assert_allclose(pslr_db[neg], pslr_db, rtol=0, atol=1e-9)
    path = tmp_path / "scan.csv"
    write_csv(path, "phi1,phi2,phi3,isl_db,pslr_db",
              [*np.meshgrid(phis, phis, phis, indexing="ij"), isl_db,
               pslr_db])
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert len(data) == n ** L
    np.testing.assert_allclose(data["isl_db"].reshape((n,) * L), isl_db,
                               atol=1e-16)


def _nested_l2_surface(h, grid_n, n_tau):
    # the two-loop L = 2 scan that the one C-order loop replaced
    phis = -np.pi + 2.0 * np.pi * np.arange(grid_n) / grid_n
    isl_db = np.empty((grid_n, grid_n))
    pslr_db = np.empty((grid_n, grid_n))
    for i, p1 in enumerate(phis):
        for j, p2 in enumerate(phis):
            code = PskCode(phi=np.array([p1, p2]))
            c = compute_coefficients(WaveformSpec(T=1.0, h=h, code=code))
            rep = report_from_acf(*acf_uniform(c, 1.0, n_tau))
            isl_db[i, j], pslr_db[i, j] = rep["isl_db"], rep["pslr_db"]
    return phis, isl_db, pslr_db


@pytest.mark.parametrize("h", [5.79, 0.5])
def test_metric_surface_matches_nested_l2_scan_bit_for_bit(h):
    new = metric_surface(h, 5)
    for a, b in zip(new, _nested_l2_surface(h, 5, 4096)):
        assert a.tobytes() == b.tobytes()


def test_metric_surface_returns_phases_and_metric_arrays():
    # entry [k_1, ..., k_L] is the code phis[[k_1, ..., k_L]] at T = 1
    for L, n in ((2, 2), (2, 3), (1, 4), (3, 3)):
        phis, isl_db, pslr_db = metric_surface(5.8116, n, n_tau=256, L=L)
        assert phis.shape == (n,)
        assert np.array_equal(phis, -np.pi + 2.0 * np.pi * np.arange(n) / n)
        assert isl_db.shape == pslr_db.shape == (n,) * L
        for idx in np.ndindex(isl_db.shape):
            code = PskCode(phi=phis[list(idx)])
            rep = report_from_acf(*_acf(
                WaveformSpec(T=1.0, h=5.8116, code=code), 256))
            assert (isl_db[idx], pslr_db[idx]) == (rep["isl_db"],
                                                   rep["pslr_db"])


def test_metric_surface_rejects_tiny_grid():
    with pytest.raises(ValueError):
        metric_surface(1.0, 1)

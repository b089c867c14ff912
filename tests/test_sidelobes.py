import numpy as np
import pytest

from ceofdm.cli import write_csv
from ceofdm.closed_form import acf_uniform
from ceofdm.oracle import af_numeric_grid
from ceofdm.sidelobes import (DB_FLOOR, isl, mainlobe_null, metric_surface,
                              pslr, report_from_acf, sidelobe_report)
from ceofdm.waveform import (PskCode, WaveformSpec, random_psk_code,
                             wrap_phase)


def _spec(h=5.8116, seed=5):
    return WaveformSpec(T=1.0, h=h, code=random_psk_code(2, 32, seed))


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
    code = PskCode(L=2, gamma=np.ones(2), phi=np.zeros(2))
    spec = WaveformSpec(T=1.0, h=0.0, code=code)
    rep = sidelobe_report(spec, n_tau=256)
    assert not rep.null_found
    assert rep.delta_tau == spec.T
    assert rep.pslr_db == DB_FLOOR  # nothing beyond the fallback boundary


def test_report_from_complex_and_magnitude_input_agree():
    # a real input is R itself, not |R|^2: both give the metrics of |R|^2
    spec = _spec()
    tau, R = acf_uniform(spec, n_tau=512)
    assert report_from_acf(tau, np.abs(R)) == report_from_acf(tau, R)


def test_metrics_invariant_under_phase_negation():
    spec = _spec(seed=7)
    neg = WaveformSpec(T=spec.T, h=spec.h,
                       code=PskCode(L=2, gamma=spec.code.gamma,
                                    phi=wrap_phase(-spec.code.phi)))
    a = sidelobe_report(spec, n_tau=1024)
    b = sidelobe_report(neg, n_tau=1024)
    assert abs(a.pslr_db - b.pslr_db) < 1e-9
    assert abs(a.isl_db - b.isl_db) < 1e-9


def test_metrics_converge_with_grid():
    spec = _spec(seed=5)
    coarse = sidelobe_report(spec, n_tau=2048)
    fine = sidelobe_report(spec, n_tau=8192)
    assert abs(coarse.pslr_db - fine.pslr_db) < 0.01
    assert abs(coarse.isl_db - fine.isl_db) < 0.01


def test_metrics_match_quadrature_acf():
    # same metrics when the ACF comes from the numeric integral instead
    spec = _spec(seed=5)
    tau, R = acf_uniform(spec, n_tau=512)
    ref = af_numeric_grid(spec, tau, np.zeros(1), 8192.0)[:, 0]
    a = report_from_acf(tau, R)
    b = report_from_acf(tau, ref)
    assert abs(a.pslr_db - b.pslr_db) < 0.01
    assert abs(a.isl_db - b.isl_db) < 0.01


def test_metric_surface_symmetry_and_export(tmp_path):
    n = 8
    surf = metric_surface(1.0, 5.8116, n, n_tau=1024)
    assert surf.isl_db.shape == (n, n)
    assert len(surf.phi1) == n and surf.phi1[0] == pytest.approx(-np.pi)
    # phase negation maps grid index k to (n - k) mod n
    for i in range(n):
        for j in range(n):
            ii, jj = (n - i) % n, (n - j) % n
            assert surf.isl_db[i, j] == pytest.approx(surf.isl_db[ii, jj],
                                                      abs=1e-9)
            assert surf.pslr_db[i, j] == pytest.approx(surf.pslr_db[ii, jj],
                                                       abs=1e-9)
    path = tmp_path / "scan.csv"
    write_csv(path, "phi1,phi2,isl_db,pslr_db",
              [*np.meshgrid(surf.phi1, surf.phi2, indexing="ij"),
               surf.isl_db, surf.pslr_db])
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert len(data) == n * n
    np.testing.assert_allclose(data["isl_db"].reshape(n, n), surf.isl_db,
                               atol=1e-16)


def test_metric_surface_rejects_tiny_grid():
    with pytest.raises(ValueError):
        metric_surface(1.0, 1.0, 1)

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from ceofdm import closed_form, sidelobes
from ceofdm.cli import write_csv
from ceofdm.closed_form import acf_uniform
from ceofdm.eoa import h_for_tbp
from ceofdm.gbf import compute_coefficients
from ceofdm.oracle import acf_numeric
from ceofdm.sidelobes import DB_FLOOR, metric_surface, report_from_acf
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
    rep = report_from_acf(tau, np.cos(np.pi * tau / w))
    assert rep["null_found"]
    assert rep["delta_tau"] == pytest.approx(w / 2, abs=1e-4)


def test_null_refinement_beats_grid_spacing():
    # true null at an irrational fraction of the grid step
    w = 2.0 / np.sqrt(5.0)
    tau = np.linspace(0.0, 1.0, 101)
    rep = report_from_acf(tau, np.cos(np.pi * tau / w))
    assert rep["null_found"]
    assert abs(rep["delta_tau"] - w / 2) < 0.2 * (tau[1] - tau[0])


def test_null_lies_at_positive_delay():
    # on a grid through tau = 0 the minimum at -w / 2 is not the null
    w = 0.4
    tau = np.linspace(-1.0, 1.0, 401)
    rep = report_from_acf(tau, np.cos(np.pi * tau / w))
    assert rep["delta_tau"] == pytest.approx(w / 2, abs=1e-4)


def test_monotone_acf_has_no_null():
    tau = np.linspace(0.0, 2.0, 100)
    # unmodulated-pulse triangle: it vanishes only at the last delay
    rep = report_from_acf(tau, 1.0 - tau / 2.0)
    assert not rep["null_found"]
    assert rep["delta_tau"] == 2.0
    assert rep["pslr_db"] == rep["isl_db"] == DB_FLOOR


def test_mainlobe_null_needs_three_points():
    with pytest.raises(ValueError):
        report_from_acf(np.array([0.0, 1.0]), np.array([1.0, 0.0]))


def _plateau(tau):
    # R falls linearly to 0 at tau = 0.1, then holds at 0.1 (-20 dB)
    return np.where(tau < 0.1, 1.0 - tau / 0.1, 0.1)


def test_pslr_of_synthetic_plateau():
    tau = np.linspace(0.0, 1.0, 1001)
    rep = report_from_acf(tau, _plateau(tau))
    assert rep["null_found"]
    assert rep["pslr_db"] == pytest.approx(-20.0, abs=1e-9)


def test_isl_of_synthetic_plateau():
    # sidelobe area 0.9 * 0.01 vs mainlobe area 0.1 / 3
    tau = np.linspace(0.0, 1.0, 10001)
    rep = report_from_acf(tau, _plateau(tau))
    # the parabola through the corner puts the split within 2 steps of it
    assert rep["delta_tau"] == pytest.approx(0.1, abs=2 * tau[1])
    ref = 10.0 * np.log10((0.9 * 0.01) / (0.1 / 3.0))
    assert rep["isl_db"] == pytest.approx(ref, abs=1e-2)


def test_tied_minima_report_the_first():
    # two equal flat bottoms, each of two equal samples (every value here is
    # exact in binary): the first node of the first bottom is the minimum,
    # and the parabola through it moves delta_tau half a step, to the middle
    # of the bottom
    tau = np.linspace(0.0, 1.0, 9)
    R = np.array([1.0, 0.75, 0.25, 0.25, 0.75, 0.75, 0.25, 0.25, 0.5])
    rep = report_from_acf(tau, R)
    assert rep["null_found"]
    assert rep["delta_tau"] == 0.3125
    assert rep["pslr_db"] == 10.0 * np.log10(0.75 ** 2)


def test_null_at_last_interior_node():
    # a bottom tied with the last sample: the null lies halfway into the
    # last step, the split node is the last interior one, and the sidelobe
    # area is the one trapezoid of the last step
    tau = np.linspace(0.0, 1.0, 9)
    R = np.array([1.0, 0.875, 0.75, 0.625, 0.5, 0.375, 0.25, 0.125, 0.125])
    y = R ** 2
    rep = report_from_acf(tau, R)
    assert rep["null_found"]
    assert rep["delta_tau"] == 0.9375
    assert rep["pslr_db"] == 10.0 * np.log10(0.125 ** 2)
    side = 0.125 * y[-1]
    main = simpson(y[:-1], x=tau[:-1])
    assert rep["isl_db"] == pytest.approx(10.0 * np.log10(side / main),
                                          rel=0, abs=1e-13)


def _old_report(tau_grid, acf_values):
    # the report as mainlobe_null, pslr and isl computed it, one function
    # each, before report_from_acf took them over, with scipy's Simpson rule
    # on the delay nodes
    def mainlobe_null(tau_grid, acf_abs2):
        tau = np.asarray(tau_grid, dtype=float)
        y = np.asarray(acf_abs2, dtype=float)
        if len(tau) < 3:
            raise ValueError("need at least 3 grid points")
        interior = np.flatnonzero((y[1:-1] < y[:-2]) & (y[1:-1] <= y[2:])) + 1
        interior = interior[tau[interior] > 0]
        if len(interior) == 0:
            return float(tau[-1]), False
        i = int(interior[0])
        denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
        if denom > 0:
            shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
            shift = float(np.clip(shift, -0.5, 0.5))
        else:
            shift = 0.0
        step = tau[i + 1] - tau[i]
        return float(tau[i] + shift * step), True

    def pslr(tau_grid, acf_abs2, delta_tau):
        tau = np.asarray(tau_grid, dtype=float)
        y = np.asarray(acf_abs2, dtype=float)
        mask = tau >= delta_tau
        if not np.any(mask):
            return DB_FLOOR
        peak = float(np.max(y[mask]))
        return 10.0 * np.log10(max(peak, 10.0 ** (DB_FLOOR / 10.0)))

    def isl(tau_grid, acf_abs2, delta_tau):
        tau = np.asarray(tau_grid, dtype=float)
        y = np.asarray(acf_abs2, dtype=float)
        if delta_tau >= tau[-1]:
            return DB_FLOOR
        split = int(np.argmin(np.abs(tau - delta_tau)))
        split = min(max(split, 1), len(tau) - 2)
        main = float(simpson(y[:split + 1], x=tau[:split + 1]))
        side = float(simpson(y[split:], x=tau[split:]))
        floor = 10.0 ** (DB_FLOOR / 10.0)
        return 10.0 * np.log10(max(side, floor * main) / main)

    y = np.abs(np.asarray(acf_values)) ** 2
    dt, found = mainlobe_null(tau_grid, y)
    return {"delta_tau": dt, "pslr_db": pslr(tau_grid, y, dt),
            "isl_db": isl(tau_grid, y, dt), "null_found": found}


@pytest.mark.parametrize("n_tau", [3, 4, 16, 1024, 4096])
def test_report_matches_the_three_helper_path_exactly(n_tau):
    # random codes with L <= 8 and h <= 6, the edges h = 0 (no null) and
    # L = 1, and each ACF as complex R and as its real part.  Every key is
    # exact but isl_db, which the two Simpson rules round differently.
    rng = np.random.default_rng(n_tau)
    cases = [(1, 0.0), (1, 3.0), (4, 0.0)]
    cases += [(int(rng.integers(1, 9)), float(rng.uniform(0.0, 6.0)))
              for _ in range(12)]
    for k, (L, h) in enumerate(cases):
        spec = WaveformSpec(T=1.0, h=h, code=random_psk_code(L, 8, k))
        tau, R = _acf(spec, n_tau)
        for acf in (R, R.real):
            new = report_from_acf(tau, acf)
            old = {**_old_report(tau, acf), "n_tau": len(tau) - 1,
                   "tau_max": float(tau[-1])}
            assert new["isl_db"] == pytest.approx(old["isl_db"], rel=0,
                                                  abs=1e-13)
            assert {**new, "isl_db": 0.0} == {**old, "isl_db": 0.0}
            assert list(map(type, new.values())) == list(
                map(type, old.values()))
            if h == 0.0:
                assert not new["null_found"]


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


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(L=st.integers(1, 32), tbp=st.floats(200.0, 5000.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_default_grid_metrics_match_a_fine_grid_property(L, tbp, seed):
    # Over 700 random codes of these ranges, the default grid stayed within
    # 0.243 dB (PSLR) and 0.039 dB (ISL) of a 2^20-step grid.  One code
    # had a first dip so shallow that only the finer grid resolved it, and
    # its null moved to the next dip; the bound holds where both grids find
    # the same null.
    spec = WaveformSpec(T=1.0, h=h_for_tbp(tbp, L),
                        code=random_psk_code(L, 32, seed))
    c = compute_coefficients(spec)
    rep = report_from_acf(*acf_uniform(c, 1.0))
    fine = report_from_acf(*acf_uniform(c, 1.0, 1 << 20))
    assume(abs(rep["delta_tau"] - fine["delta_tau"]) <= 1.0 / rep["n_tau"])
    assert abs(rep["pslr_db"] - fine["pslr_db"]) < 0.3
    assert abs(rep["isl_db"] - fine["isl_db"]) < 0.05


def test_metrics_match_quadrature_acf():
    # same metrics when the ACF comes from the numeric integral instead
    spec = _spec(seed=5)
    tau, R = _acf(spec, 512)
    ref = acf_numeric(spec, 512, 8192.0)
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


# Over 1200 random scans with L <= 3, grid_n <= 16, h <= 6 and n_tau of 64
# or more, metric_surface lay at most 3.7e-13 dB off the per-code loop; the
# 64 x 64 scan of criterion-10 lay 5.3e-14 dB off.
SURFACE_TOL = 1e-12


def _per_code_surface(h, grid_n, n_tau=None, L=2):
    # the C-order loop that ran the coefficient engine on every code before
    # metric_surface ran it once per time-shift orbit
    phis = -np.pi + 2.0 * np.pi * np.arange(grid_n) / grid_n
    isl_db = np.empty((grid_n,) * L)
    pslr_db = np.empty((grid_n,) * L)
    for idx in np.ndindex(isl_db.shape):
        code = PskCode(phi=phis[list(idx)])
        c = compute_coefficients(WaveformSpec(T=1.0, h=h, code=code))
        rep = report_from_acf(*acf_uniform(c, 1.0, n_tau))
        isl_db[idx], pslr_db[idx] = rep["isl_db"], rep["pslr_db"]
    return phis, isl_db, pslr_db


def _assert_matches_per_code(h, grid_n, n_tau=None, L=2):
    # the orbits' representatives, k_1 = 0, run the engine on their own
    # codes and keep their bits; every other code ramps its
    # representative's coefficients
    phis, isl_db, pslr_db = metric_surface(h, grid_n, n_tau, L=L)
    ref_phis, *ref = _per_code_surface(h, grid_n, n_tau, L)
    assert phis.tobytes() == ref_phis.tobytes()
    for a, b in zip((isl_db, pslr_db), ref):
        assert a.shape == b.shape == (grid_n,) * L
        assert a[0].tobytes() == b[0].tobytes()
        np.testing.assert_allclose(a, b, rtol=0, atol=SURFACE_TOL)
    return phis, isl_db, pslr_db


@pytest.mark.parametrize("h", [5.79, 0.5])
def test_metric_surface_matches_the_per_code_scan(h):
    _assert_matches_per_code(h, 5)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(L=st.integers(1, 3), n=st.integers(2, 16), h=st.floats(0.0, 6.0),
       n_tau=st.sampled_from([None, 64, 256, 4096]))
def test_metric_surface_matches_the_per_code_scan_property(L, n, h, n_tau):
    _assert_matches_per_code(h, min(n, {1: 16, 2: 8, 3: 4}[L]), n_tau, L)


def test_metric_surface_returns_phases_and_metric_arrays():
    # entry [k_1, ..., k_L] is the code phis[[k_1, ..., k_L]] at T = 1
    for L, n in ((2, 2), (2, 3), (1, 4), (3, 3)):
        phis, _, _ = _assert_matches_per_code(5.8116, n, 256, L)
        assert phis.shape == (n,)
        assert np.array_equal(phis, -np.pi + 2.0 * np.pi * np.arange(n) / n)


def test_metric_surface_default_grid_follows_each_code():
    # at h = 20 every two-tone code has M > 511, past the 4096-step floor
    phis = metric_surface(20.0, 2)[0]
    for idx in np.ndindex((2, 2)):
        code = PskCode(phi=phis[list(idx)])
        c = compute_coefficients(WaveformSpec(T=1.0, h=20.0, code=code))
        assert len(c) // 2 > 511
        assert report_from_acf(*acf_uniform(c, 1.0))["n_tau"] > 4096
    _assert_matches_per_code(20.0, 2)


def test_metric_surface_runs_the_engine_once_per_orbit(monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec.code.phi)
        return compute_coefficients(spec)

    monkeypatch.setattr(sidelobes, "compute_coefficients", counted)
    for L, n in ((1, 5), (2, 4), (3, 3)):
        calls.clear()
        phis = metric_surface(1.3, n, 64, L=L)[0]
        # one representative per orbit, k_1 = 0, in C order
        assert len(calls) == n ** (L - 1)
        for phi, rep in zip(calls, np.ndindex((1,) + (n,) * (L - 1))):
            assert np.array_equal(phi, PskCode(phi=phis[list(rep)]).phi)


def test_bench_sized_scan_builds_one_acf_kernel(monkeypatch):
    # every code of the 8 x 8 scan at h = 5.7979 has the same order M, so
    # the nu = 0 lag kernel is built once for its 64 ACFs
    built = []
    kernel_fft = closed_form._kernel_fft

    def counted(M, nuT, size):
        built.append(M)
        return kernel_fft(M, nuT, size)

    monkeypatch.setattr(closed_form, "_kernel_fft", counted)
    closed_form._acf_kernel.cache_clear()
    metric_surface(5.7979, 8)
    assert len(built) == 1


def test_metric_surface_rejects_tiny_grid():
    with pytest.raises(ValueError):
        metric_surface(1.0, 1)

"""End-to-end acceptance gate.

One test per shipping criterion, each printing a single tagged pass/fail
line with the measured numbers so a run log doubles as a report.  Known
expected failure: the windowed ambiguity-volume check (criterion 8) asks a
thumbtack waveform to concentrate its volume inside a Doppler window forty
times narrower than its occupied band; the measured volume (about 0.19) is
the physically correct value, so that test stays red rather than being
weakened.  See the ACF/AF unit tests for the wide-window validation of the
same integrator.
"""

import itertools

import mpmath
import numpy as np
from scipy.integrate import simpson

from ceofdm.closed_form import acf_uniform, af_surface
from ceofdm.eoa import (eoa_closed_form, h_for_tbp, max_coupling_code,
                        rho_norm_max)
from ceofdm.gbf import compute_coefficients
from ceofdm.oracle import af_numeric_grid, eoa_numeric
from ceofdm.sidelobes import metric_surface, report_from_acf
from ceofdm.waveform import (PskCode, WaveformSpec, oversample_floor,
                             phase_at, random_psk_code, wrap_phase)


def _report(tag: str, ok: bool, detail: str):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def _snapped_fs(spec: WaveformSpec, floor_n: float = 16384.0) -> float:
    n = max(2.0 * oversample_floor(spec) * spec.T, floor_n)
    return float(2 ** int(np.ceil(np.log2(n)))) / spec.T


def test_criterion_01_modulation_index_from_time_bandwidth_product():
    h24 = h_for_tbp(200.0, 24)
    h2 = h_for_tbp(200.0, 2)
    ok = abs(h24 - 0.1856) <= 1e-4 and abs(h2 - 5.81) <= 0.01
    _report("criterion-01", ok,
            f"h(T=1, df=200, L=24) = {h24:.6f} (want 0.1856 +- 1e-4), "
            f"h(T=1, df=200, L=2) = {h2:.4f} (want 5.81 +- 0.01)")


def test_criterion_02_coupling_maxima():
    r1, r24 = rho_norm_max(1), rho_norm_max(24)
    ok = abs(r1 - 0.7797) <= 5e-4 and abs(r24 - 0.2673) <= 5e-4
    _report("criterion-02", ok,
            f"rho_norm_max(1) = {r1:.5f} (want 0.7797 +- 5e-4), "
            f"rho_norm_max(24) = {r24:.5f} (want 0.2673 +- 5e-4)")


def test_criterion_03_closed_form_af_matches_quadrature():
    # code phases are not pinned by the requirement, so use the documented
    # seeded generator; seed 7, M_PSK = 32 for each carrier count
    worst = 0.0
    fs = 8192.0
    tau = np.linspace(-0.9, 0.9, 17)
    nu = np.linspace(-10.0, 10.0, 17)
    for L, h in [(1, 0.5), (2, 5.81), (24, 0.1856)]:
        spec = WaveformSpec(T=1.0, h=h, code=random_psk_code(L, 32, 7))
        closed = af_surface(compute_coefficients(spec), spec.T, tau, nu)
        numeric = af_numeric_grid(spec, tau, nu, fs)
        worst = max(worst, float(np.max(np.abs(closed - numeric))))
    ok = worst < 1e-6
    _report("criterion-03", ok,
            f"max |chi_closed - chi_numeric| = {worst:.3e} over 17x17 grids "
            f"for (L, h) in (1, 0.5), (2, 5.81), (24, 0.1856) (want < 1e-6)")


def _random_eoa_spec(seed: int) -> WaveformSpec:
    rng = np.random.default_rng(seed)
    L = int(rng.integers(1, 25))
    h = float(rng.uniform(0.1, 2.0))
    T = float(rng.uniform(0.5, 2.0))
    return WaveformSpec(T=T, h=h, code=random_psk_code(L, 32, seed))


def test_criterion_04_eoa_closed_forms_match_quadrature():
    worst = {"beta2": 0.0, "tau2": 0.0, "rho": 0.0}
    for seed in range(20):
        spec = _random_eoa_spec(seed)
        fs = _snapped_fs(spec)
        closed = eoa_closed_form(spec)
        numeric = eoa_numeric(spec, fs)
        for k in worst:
            worst[k] = max(worst[k],
                           abs(closed[k] - numeric[k]) / abs(closed[k]))
    ok = all(v < 1e-6 for v in worst.values())
    _report("criterion-04", ok,
            "worst relative error over 20 random specs: "
            f"beta2 {worst['beta2']:.2e}, tau2 {worst['tau2']:.2e}, "
            f"rho {worst['rho']:.2e} (want each < 1e-6)")


def test_criterion_05_coefficient_engine():
    residual_worst = 0.0
    for L, h in [(1, 0.5), (2, 5.81), (24, 0.1856)]:
        spec = WaveformSpec(T=1.0, h=h, code=random_psk_code(L, 32, 7))
        c = compute_coefficients(spec)
        residual_worst = max(residual_worst,
                             abs(float(1.0 - np.sum(np.abs(c) ** 2))))

    code = PskCode(phi=np.array([-np.pi / 4]))
    spec1 = WaveformSpec(T=1.0, h=0.5, code=code)
    c1 = compute_coefficients(spec1)
    M1 = len(c1) // 2
    bessel_worst = max(
        abs(c1[M1 + m] - (1j ** m) * np.exp(-1j * m * np.pi / 4)
            * float(mpmath.besselj(m, np.pi)))
        for m in range(-M1, M1 + 1))

    spec2 = WaveformSpec(T=1.0, h=5.81, code=random_psk_code(2, 32, 7))
    c2 = compute_coefficients(spec2)
    M2 = len(c2) // 2
    t = np.linspace(-0.5, 0.5, 4096)
    resynth = c2 @ np.exp(2j * np.pi * np.outer(np.arange(-M2, M2 + 1), t))
    resynth_worst = float(np.max(np.abs(
        resynth - np.exp(1j * phase_at(spec2, t)))))

    ok = (residual_worst < 1e-12 and bessel_worst < 1e-10
          and resynth_worst < 1e-11)
    _report("criterion-05", ok,
            f"|Parseval residual| <= {residual_worst:.2e} (want < 1e-12); "
            f"single-carrier vs Bessel {bessel_worst:.2e} (want < 1e-10); "
            f"resynthesis on 4096 points {resynth_worst:.2e} (want < 1e-11)")


def test_criterion_06_alternating_code_maximizes_coupling():
    h, T = 0.8, 1.0
    ok = True
    worst_rel = 0.0
    for L in range(1, 13):
        best = -np.inf
        for bits in itertools.product((0.0, np.pi), repeat=L):
            code = PskCode(phi=np.array(bits))
            best = max(best, eoa_closed_form(
                WaveformSpec(T=T, h=h, code=code))["rho"])
        rho_alt = eoa_closed_form(
            WaveformSpec(T=T, h=h, code=max_coupling_code(L)))["rho"]
        ok = ok and rho_alt >= best - 1e-12 * abs(best)
        worst_rel = max(worst_rel, abs(rho_alt - 4 * np.pi ** 2 * h * L)
                        / (4 * np.pi ** 2 * h * L))
    ok = ok and worst_rel < 1e-9
    _report("criterion-06", ok,
            "alternating code attains the exhaustive binary-phase maximum "
            f"for L = 1..12; |rho - 4 pi^2 h L| rel <= {worst_rel:.2e} "
            f"(want < 1e-9)")


def test_criterion_07_property_suite():
    # bandwidth ignores code phases
    beta2 = [eoa_closed_form(WaveformSpec(
        T=1.0, h=0.6, code=random_psk_code(8, 32, s)))["beta2"]
        for s in range(100)]
    beta2_dev = (max(beta2) - min(beta2)) / beta2[0]

    # normalized coupling ignores h and T
    code = random_psk_code(5, 32, 3)
    rhos = [eoa_closed_form(WaveformSpec(T=T, h=h, code=code))["rho_norm"]
            for T, h in [(1.0, 0.5), (2.0, 0.5), (1.0, 3.0), (0.25, 7.0)]]
    rho_dev = (max(rhos) - min(rhos)) / abs(rhos[0])

    # coupling bound over 1000 random codes per carrier count
    bound_ok = True
    for L in (2, 8, 24):
        bound = rho_norm_max(L)
        for s in range(1000):
            p = eoa_closed_form(WaveformSpec(
                T=1.0, h=0.9, code=random_psk_code(L, 32, s)))
            bound_ok = bound_ok and abs(p["rho_norm"]) <= bound + 1e-12

    # sidelobe metrics invariant under phase negation
    spec = WaveformSpec(T=1.0, h=5.81, code=random_psk_code(2, 32, 5))
    neg = WaveformSpec(T=1.0, h=5.81,
                       code=PskCode(phi=wrap_phase(-spec.code.phi),
                                    gamma=spec.code.gamma))
    a = report_from_acf(*acf_uniform(compute_coefficients(spec), 1.0, 2048))
    b = report_from_acf(*acf_uniform(compute_coefficients(neg), 1.0, 2048))
    metric_dev = max(abs(a["pslr_db"] - b["pslr_db"]),
                     abs(a["isl_db"] - b["isl_db"]))

    # ambiguity point symmetry and unit ACF origin
    spec = WaveformSpec(T=1.0, h=1.1, code=random_psk_code(3, 32, 6))
    tau = np.linspace(-0.8, 0.8, 5)
    nu = np.linspace(-6.0, 6.0, 5)
    chi = af_surface(compute_coefficients(spec), spec.T, tau, nu)
    sym_dev = float(np.max(np.abs(chi - np.conj(chi[::-1, ::-1]))))
    origin_dev = max(abs(acf_uniform(compute_coefficients(WaveformSpec(
        T=1.0, h=0.8, code=random_psk_code(4, 32, s))), 1.0, n_tau=64)[1][0]
        - 1.0) for s in range(5))

    ok = (beta2_dev < 1e-12 and rho_dev < 1e-12 and bound_ok
          and metric_dev < 1e-9 and sym_dev < 1e-12 and origin_dev < 1e-12)
    _report("criterion-07", ok,
            f"beta2 phase-independence dev {beta2_dev:.1e}; rho_norm h/T dev "
            f"{rho_dev:.1e}; |rho_norm| bound over 3000 codes "
            f"{'held' if bound_ok else 'VIOLATED'}; negation metric dev "
            f"{metric_dev:.1e} dB; AF point-symmetry dev {sym_dev:.1e}; "
            f"ACF origin dev {origin_dev:.1e}")


def test_criterion_08_windowed_af_volume():
    # volume of |chi|^2 over tau in [-T, T], nu in [-20/T, 20/T] for the
    # L = 24 thumbtack design; the +-20/T window is a small slice of the
    # roughly +-200 Hz pedestal, so the measured value sits near 0.19 and
    # this check documents the shortfall rather than hiding it
    spec = WaveformSpec(T=1.0, h=0.1856, code=random_psk_code(24, 32, 0))
    tau = np.linspace(0.0, spec.T, 257)
    nu = np.linspace(-20.0, 20.0, 801)
    chi = af_surface(compute_coefficients(spec), spec.T, tau, nu)
    v = simpson(np.abs(chi) ** 2, x=nu, axis=1)
    volume = 2.0 * simpson(v, x=tau)  # nu-profile is even in tau
    ok = abs(volume - 1.0) <= 0.05
    _report("criterion-08", ok,
            f"AF volume over [-T, T] x [-20/T, 20/T] = {volume:.4f} "
            f"(want 1 +- 0.05); the unit volume spreads over the full "
            f"occupied band, so a 40/T-wide window cannot capture it")


def test_criterion_09_seeded_band_contains_single_draw_statistics():
    # the reference single-draw code phases are not recorded anywhere, so
    # equality is not checkable; require instead that seeds 0..99 of the
    # documented generator bracket each reported statistic
    ref = {"pslr": -15.21, "isl": -0.17, "rho_norm": 0.0848}
    pslr, isl, rho_norm = [], [], []
    for seed in range(100):
        spec = WaveformSpec(T=1.0, h=0.1856,
                            code=random_psk_code(24, 32, seed))
        rep = report_from_acf(*acf_uniform(compute_coefficients(spec),
                                           spec.T, n_tau=4096))
        pslr.append(rep["pslr_db"])
        isl.append(rep["isl_db"])
        rho_norm.append(eoa_closed_form(spec)["rho_norm"])
    bands = {"pslr": (min(pslr), max(pslr)),
             "isl": (min(isl), max(isl)),
             "rho_norm": (min(rho_norm), max(rho_norm))}
    ok = all(bands[k][0] <= ref[k] <= bands[k][1] for k in ref)
    _report("criterion-09", ok,
            "min-max bands over 100 seeded draws (L=24, h=0.1856, 32-PSK): "
            f"PSLR [{bands['pslr'][0]:.2f}, {bands['pslr'][1]:.2f}] dB covers "
            f"{ref['pslr']}; ISL [{bands['isl'][0]:.2f}, "
            f"{bands['isl'][1]:.2f}] dB covers {ref['isl']}; rho_norm "
            f"[{bands['rho_norm'][0]:.4f}, {bands['rho_norm'][1]:.4f}] covers "
            f"{ref['rho_norm']}")


def test_criterion_10_phase_scan_surface():
    n = 64
    _, isl_db, pslr_db = metric_surface(5.81, n, n_tau=4096)
    sym_dev = 0.0
    for i in range(n):
        for j in range(n):
            ii, jj = (n - i) % n, (n - j) % n
            sym_dev = max(sym_dev,
                          abs(isl_db[i, j] - isl_db[ii, jj]),
                          abs(pslr_db[i, j] - pslr_db[ii, jj]))
    spread = float(isl_db.max() - isl_db.min())
    ok = sym_dev < 1e-9 and spread > 1.0
    _report("criterion-10", ok,
            f"64x64 scan at L=2, h=5.81 completed; phase-negation symmetry "
            f"dev {sym_dev:.2e} dB (want < 1e-9); ISL spread {spread:.2f} dB "
            f"(want > 1)")

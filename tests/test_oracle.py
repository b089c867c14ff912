import ast
from pathlib import Path

import numpy as np
import pytest

from ceofdm import oracle
from ceofdm.closed_form import ambiguity, spectrum
from ceofdm.gbf import compute_coefficients
from ceofdm.eoa import eoa_closed_form
from ceofdm.oracle import (af_numeric, af_numeric_grid, eoa_numeric,
                           oracle_fs, spectrum_numeric)
from ceofdm.waveform import (OutOfSupport, PskCode, WaveformSpec,
                             oversample_floor, phase_at, random_psk_code)


def _spec(L=2, h=0.5, T=1.0, seed=1):
    return WaveformSpec(T=T, h=h, code=random_psk_code(L, 32, seed))


def test_config_validation():
    spec = _spec()
    for fs in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            eoa_numeric(spec, fs)
        with pytest.raises(ValueError):
            af_numeric(spec, 0.1, 0.0, fs)
        with pytest.raises(ValueError):
            spectrum_numeric(spec, fs, [0.0])
    for spec in (_spec(), _spec(L=1, h=0.0, T=0.3), _spec(L=24, h=0.1856),
                 _spec(L=2, h=5.81, T=2.0)):
        n = 2.0 ** round(np.log2(oracle_fs(spec) * spec.T))
        assert oracle_fs(spec) == n / spec.T
        assert n >= 8192 and n >= 2.0 * oversample_floor(spec) * spec.T


def test_af_origin_is_unity():
    for seed in range(3):
        spec = _spec(L=5, h=0.7, seed=seed)
        assert abs(af_numeric(spec, 0.0, 0.0, 4096.0) - 1.0) < 1e-10


def test_af_zero_overlap_and_support():
    spec = _spec()
    fs = 1024.0
    assert af_numeric(spec, spec.T, 2.0, fs) == 0
    assert af_numeric(spec, -spec.T, 0.0, fs) == 0
    with pytest.raises(OutOfSupport):
        af_numeric(spec, 1.1 * spec.T, 0.0, fs)


def test_af_grid_matches_pointwise():
    spec = _spec(L=3, h=0.4, seed=2)
    fs = 2048.0
    taus = np.array([-0.3, 0.0, 0.55])
    nus = np.array([-2.0, 1.0])
    grid = af_numeric_grid(spec, taus, nus, fs)
    for i, t in enumerate(taus):
        for j, n in enumerate(nus):
            assert grid[i, j] == af_numeric(spec, t, n, fs)


def _af_direct(spec, taus, nus, fs):
    # the quadrature with two phase evaluations per delay, on t -/+ tau/2
    out = np.zeros((len(taus), len(nus)), dtype=complex)
    for i, tau in enumerate(taus):
        half = (spec.T - abs(tau)) / 2.0
        if half <= 0.0:
            continue
        t, _ = oracle._nodes(-half, half, fs)
        u = np.exp(1j * (phase_at(spec, t - tau / 2.0)
                         - phase_at(spec, t + tau / 2.0))) / spec.T
        for j, nu in enumerate(nus):
            out[i, j] = oracle._integrate(u * np.exp(2j * np.pi * nu * t), t)
    return out


@pytest.mark.parametrize("spec", [
    _spec(L=2, h=0.0),
    _spec(L=1, h=0.5),
    WaveformSpec(T=1.0, h=0.1856, code=random_psk_code(24, 32, 0)),
], ids=["h0", "L1", "L24"])
def test_af_grid_lattice_matches_direct_evaluation(spec):
    # dyadic grids (64, 128) take the phase lattice, non-dyadic ones (97,
    # 1000) mostly fall back; both must equal the direct quadrature bitwise,
    # for negative delays, at tau = -T and T, and off zero Doppler
    fs = oracle_fs(spec)
    nus = np.array([0.0, 2.5])
    for n, step in ((64, 2), (128, 4), (97, 2), (1000, 25)):
        taus = np.arange(-n, n + 1, step) * (spec.T / n)
        assert taus[0] == -spec.T and taus[-1] == spec.T
        assert np.array_equal(af_numeric_grid(spec, taus, nus, fs),
                              _af_direct(spec, taus, nus, fs))


def test_af_grid_evaluates_phase_once_on_dyadic_grid(monkeypatch):
    spec = WaveformSpec(T=1.0, h=0.1856, code=random_psk_code(24, 32, 0))
    calls = []

    def counted(*args):
        calls.append(1)
        return phase_at(*args)

    monkeypatch.setattr(oracle, "phase_at", counted)
    # acf_uniform's grid at n_tau 128 and its mirror: both lattice slices
    taus = np.arange(-128, 129) * (spec.T / 128)
    af_numeric_grid(spec, taus, np.zeros(1), oracle_fs(spec))
    assert len(calls) == 1


def test_af_converges_to_closed_form():
    spec = _spec(L=2, h=0.9, seed=4)
    co = compute_coefficients(spec)
    pts = [(0.35, 3.0), (-0.2, -5.0), (0.61, 1.7)]

    def worst(fs):
        return max(abs(ambiguity(spec, t, n, coeffs=co)
                       - af_numeric(spec, t, n, fs)) for t, n in pts)

    coarse, fine = worst(2048.0), worst(16384.0)
    assert fine < 1e-11
    assert fine < coarse / 100.0  # quadrature error, not a plateau


def test_bandwidth_vanishes_without_modulation():
    code = PskCode(L=2, gamma=np.ones(2), phi=np.zeros(2))
    spec = WaveformSpec(T=1.0, h=0.0, code=code)
    assert abs(eoa_numeric(spec, 512.0)["beta2"]) < 1e-12


def test_bandwidth_single_carrier_value():
    # L = 1, h = 1, T = 1, unit amplitude: beta^2 = 8 pi^4
    code = PskCode(L=1, gamma=np.ones(1), phi=np.array([0.3]))
    spec = WaveformSpec(T=1.0, h=1.0, code=code)
    val = eoa_numeric(spec, 8.0 * oversample_floor(spec))["beta2"]
    assert val == pytest.approx(8.0 * np.pi ** 4, rel=1e-12)


def test_bandwidth_rule_agreement_at_low_rate():
    # the integrand is a full-period trig polynomial, so Simpson is exact
    # once the grid resolves it; 2x the floor is already enough
    spec = _spec(L=6, h=0.8, seed=5)
    simp = eoa_numeric(spec, 2.0 * oversample_floor(spec))["beta2"]
    assert simp == pytest.approx(eoa_closed_form(spec).beta2, rel=1e-10)


def test_rdcf_phase_cases():
    fs = 16384.0
    # equal-phase pair cancels term by term
    code = PskCode(L=2, gamma=np.ones(2), phi=np.zeros(2))
    rho = eoa_numeric(WaveformSpec(T=1.0, h=0.7, code=code), fs)["rho"]
    assert abs(rho) < 1e-9
    # single carrier at phase pi gives +4 pi^2 h
    code = PskCode(L=1, gamma=np.ones(1), phi=np.array([np.pi]))
    val = eoa_numeric(WaveformSpec(T=1.0, h=1.0, code=code), fs)["rho"]
    assert val == pytest.approx(4.0 * np.pi ** 2, rel=1e-9)
    # alternating pi/0 code stacks all L carriers coherently
    L, h = 6, 0.7
    phi = np.where(np.arange(1, L + 1) % 2 == 1, np.pi, 0.0)
    code = PskCode(L=L, gamma=np.ones(L), phi=phi)
    val = eoa_numeric(WaveformSpec(T=1.0, h=h, code=code), fs)["rho"]
    assert val == pytest.approx(4.0 * np.pi ** 2 * h * L, rel=1e-9)


def test_pulselength_depends_only_on_duration():
    for T in (1.0, 2.0):
        spec = _spec(L=3, h=1.3, T=T, seed=6)
        val = eoa_numeric(spec, 8192.0)["tau2"]
        assert val == pytest.approx(np.pi ** 2 * T ** 2 / 3.0, rel=1e-9)


def test_spectrum_numeric_matches_closed_form():
    spec = _spec(L=2, h=5.8116, seed=3)
    f = np.linspace(-30.3, 30.3, 101)  # deliberately off the 1/T grid
    sn = spectrum_numeric(spec, 8192.0, f)
    sc = spectrum(spec, f)
    assert np.max(np.abs(sn - sc.values)) < 1e-4


def test_spectrum_numeric_converges_with_rate():
    spec = _spec(L=2, h=5.8116, seed=3)
    f = np.linspace(-30.3, 30.3, 41)
    sc = spectrum(spec, f).values

    def worst(fs):
        return np.max(np.abs(spectrum_numeric(spec, fs, f) - sc))

    assert worst(32768.0) < worst(2048.0) / 10.0


def test_oracle_imports_only_waveform():
    # the oracle is a check on the closed form only while it shares no code
    # with it: its one package import is the waveform definition
    tree = ast.parse(Path(oracle.__file__).read_text())
    imports = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert imports == {"waveform"}

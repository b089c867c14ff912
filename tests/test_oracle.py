import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from ceofdm import oracle
from ceofdm.closed_form import af_surface, ambiguity, spectrum
from ceofdm.gbf import compute_coefficients
from ceofdm.eoa import eoa_closed_form
from ceofdm.eoa import h_for_tbp
from ceofdm.oracle import (acf_numeric, af_numeric_grid, eoa_numeric,
                           oracle_fs, spectrum_numeric)
from ceofdm.waveform import (OutOfSupport, PskCode, Undersampled,
                             WaveformSpec, _fft_len, oversample_floor,
                             phase_at, random_psk_code, sample, simpson)


def _spec(L=2, h=0.5, T=1.0, seed=1):
    return WaveformSpec(T=T, h=h, code=random_psk_code(L, 32, seed))


def test_config_validation():
    # every oracle refuses exactly the node rates that sample refuses
    spec = WaveformSpec(T=1.0, h=0.5, code=random_psk_code(3, 8, 1))
    floor = oversample_floor(spec)
    calls = (lambda fs: sample(spec, fs),
             lambda fs: eoa_numeric(spec, fs),
             lambda fs: af_numeric_grid(spec, [0.3], [2.0], fs),
             lambda fs: acf_numeric(spec, 4, fs),
             lambda fs: spectrum_numeric(spec, fs, [0.0]))
    for fs in (0.0, -1.0, np.inf, np.nan, 1e-3, floor / 4,
               floor * (1.0 - 1e-11)):
        for call in calls:
            with pytest.raises(Undersampled):
                call(fs)
    for call in calls:
        call(floor * (1.0 - 1e-13))


def _random_specs(rng, count, Ls=(1, 2, 3, 8, 24, 64, 256)):
    # T = 1.3 and 1.9 are fixed: at 1.9, oracle_fs(spec) * T is an ulp off
    # its lattice size
    for k in range(count):
        L = int(rng.choice(Ls))
        tbp = rng.choice([0.0, 20.0, 200.0, 2000.0])
        T = [1.3, 1.9, float(rng.uniform(0.05, 20.0))][k % 3]
        h = 0.0 if tbp == 0.0 else h_for_tbp(tbp, L)
        yield WaveformSpec(T=T, h=h, code=random_psk_code(L, 32, k))


def test_oracle_fs_takes_its_lattice_size_from_fft_len():
    # 2 ** ceil(log2(n)) is the reference; at L = 256 and h = 0 the floor
    # term 2 oversample_floor(spec) T is 32 L = 8192, the 8192 bound itself
    rng = np.random.default_rng(38)
    specs = list(_random_specs(rng, 30)) + [
        WaveformSpec(T=T, h=0.0, code=random_psk_code(256, 32, 0))
        for T in (1.0, 1.3, 1.9)] + [
        _spec(), _spec(L=1, h=0.0, T=0.3), _spec(L=24, h=0.1856),
        _spec(L=2, h=5.81, T=2.0)]
    for spec in specs:
        n = max(2.0 * oversample_floor(spec) * spec.T, 8192.0)
        size = _fft_len(math.ceil(n))
        assert oracle_fs(spec) == size / spec.T
        assert oracle_fs(spec) == 2.0 ** math.ceil(math.log2(n)) / spec.T
        assert n <= size < 2 * n
        assert oracle_fs(spec) * spec.T == pytest.approx(size, rel=1e-15)


def test_af_oracle_zero_doppler_column_is_the_overlap_integral():
    # every Doppler takes the one path u exp(j 2 pi nu t); at nu = 0 and -0
    # that is u, so the column is the plain overlap integral simpson(u, d)
    # bit for bit, |tau| = T included
    rng = np.random.default_rng(380)
    for spec in _random_specs(rng, 10, Ls=(1, 2, 3, 8, 24)):
        T = spec.T
        fs = oversample_floor(spec) * rng.uniform(1.0, 3.0)
        taus = np.concatenate([[-T, T, 0.0], rng.uniform(-T, T, 6)])
        grid = af_numeric_grid(spec, taus, [0.0, -0.0, 1.5 / T], fs)
        for i, tau in enumerate(taus):
            ref = 0j
            half = (T - abs(tau)) / 2.0
            if half > 0.0:
                t, d = oracle._nodes(-half, half, fs)
                u = np.exp(1j * (phase_at(spec, t - tau / 2.0)
                                 - phase_at(spec, t + tau / 2.0))) / T
                ref = simpson(u, d)
            assert grid[i, :2].tobytes() == np.array([ref, ref]).tobytes()


def test_af_origin_is_unity():
    for seed in range(3):
        spec = _spec(L=5, h=0.7, seed=seed)
        assert abs(af_numeric_grid(spec, [0.0], [0.0], 4096.0)[0, 0]
                   - 1.0) < 1e-10


def test_af_zero_overlap_and_support():
    spec = _spec()
    fs = 1024.0
    assert af_numeric_grid(spec, [spec.T], [2.0], fs)[0, 0] == 0
    assert af_numeric_grid(spec, [-spec.T], [0.0], fs)[0, 0] == 0
    for tau in (1.1 * spec.T, np.nan):
        with pytest.raises(OutOfSupport):
            af_numeric_grid(spec, [tau], [0.0], fs)
    # a non-finite Doppler is refused before the quadrature can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu in (np.nan, np.inf, -np.inf):
            with pytest.raises(OutOfSupport, match=r"\|nu\| = \w+ is not fin"):
                af_numeric_grid(spec, [0.0, 0.5 * spec.T], [0.0, nu], fs)
        # and so is a finite one beyond OutOfSupport.CYCLES / T, before its
        # product with the nodes can overflow
        for spec in (spec, _spec(T=10.0)):
            for nu in (1e19, 1e308, -1e308):
                with pytest.raises(OutOfSupport, match=r"\|nu\| = .* exceed"):
                    af_numeric_grid(spec, [0.0, 0.5 * spec.T], [0.0, nu], fs)


def test_af_grid_matches_pointwise():
    spec = _spec(L=3, h=0.4, seed=2)
    fs = 2048.0
    taus = np.array([-0.3, 0.0, 0.55])
    nus = np.array([-2.0, 1.0])
    grid = af_numeric_grid(spec, taus, nus, fs)
    for i, t in enumerate(taus):
        for j, n in enumerate(nus):
            assert grid[i, j] == af_numeric_grid(spec, [t], [n], fs)[0, 0]


# T = 1.9 puts oracle_fs(spec) * T an ulp off 8192
_ACF_SPECS = [
    _spec(L=2, h=0.0),
    _spec(L=1, h=0.5),
    WaveformSpec(T=1.0, h=h_for_tbp(200, 24), code=random_psk_code(24, 32, 0)),
    _spec(L=3, h=0.5, T=1.9, seed=2),
]
_ACF_IDS = ["h0", "L1", "L24", "T-ulp"]


def _lattice(spec, n_tau, fs):
    # acf_numeric's node count: round(fs T) rounded up to a multiple of 2 n_tau
    step = 2 * n_tau
    return -(-round(fs * spec.T) // step) * step


@pytest.mark.parametrize("spec", _ACF_SPECS, ids=_ACF_IDS)
def test_acf_numeric_matches_direct_quadrature(spec):
    # n_tau 4, 16 and 128 divide the 8192 intervals of oracle_fs; 3 and 97
    # move the lattice to 8196 and 8342 intervals
    fs = oracle_fs(spec)
    assert (fs * spec.T != 8192.0) == (spec.T == 1.9)
    for n in (3, 4, 16, 97, 128):
        N = _lattice(spec, n, fs)
        tau = np.arange(n + 1) * (spec.T / n)
        ref = af_numeric_grid(spec, tau, [0.0], N / spec.T)[:, 0]
        assert np.max(np.abs(acf_numeric(spec, n, fs) - ref)) <= 1e-13


def test_acf_numeric_evaluates_phase_once(monkeypatch):
    spec = _ACF_SPECS[2]
    calls = []

    def counted(*args):
        calls.append(1)
        return phase_at(*args)

    monkeypatch.setattr(oracle, "phase_at", counted)
    acf_numeric(spec, 128, oracle_fs(spec))
    assert len(calls) == 1


def test_acf_numeric_takes_the_node_count_of_its_own_lattice(monkeypatch):
    # acf_numeric's nodes come from _nodes; their count is the one its own
    # ceiling division gave, kept here as the reference
    def old_count(spec, n_tau, fs):
        return max(-(-int(round(fs * spec.T)) // (2 * n_tau)), 1) * (2 * n_tau)

    seen = []

    def spy(spec, t):
        seen.append(len(t) - 1)
        return phase_at(spec, t)

    monkeypatch.setattr(oracle, "phase_at", spy)
    for spec in _ACF_SPECS:
        floor = oversample_floor(spec)
        for fs in (floor, 1.37 * floor, 3.0 * floor + 0.5, oracle_fs(spec)):
            for n_tau in (1, 2, 3, 128):
                acf_numeric(spec, n_tau, fs)
                assert seen.pop() == old_count(spec, n_tau, fs)


@pytest.mark.parametrize("spec", _ACF_SPECS, ids=_ACF_IDS)
def test_acf_numeric_is_one_at_zero_and_zero_at_T(spec):
    for n in (3, 4, 97, 4096):
        R = acf_numeric(spec, n, oracle_fs(spec))
        assert len(R) == n + 1
        assert abs(R[0] - 1.0) <= 1e-15 and R[-1] == 0.0


def test_af_converges_to_closed_form():
    spec = _spec(L=2, h=0.9, seed=4)
    c = compute_coefficients(spec)
    pts = [(0.35, 3.0), (-0.2, -5.0), (0.61, 1.7)]

    def worst(fs):
        return max(abs(ambiguity(c, spec.T, t, n)
                       - af_numeric_grid(spec, [t], [n], fs)[0, 0])
                   for t, n in pts)

    coarse, fine = worst(2048.0), worst(16384.0)
    assert fine < 1e-11
    assert fine < coarse / 100.0  # quadrature error, not a plateau


def test_bandwidth_vanishes_without_modulation():
    code = PskCode(phi=np.zeros(2))
    spec = WaveformSpec(T=1.0, h=0.0, code=code)
    assert abs(eoa_numeric(spec, 512.0)["beta2"]) < 1e-12


def test_bandwidth_single_carrier_value():
    # L = 1, h = 1, T = 1, unit amplitude: beta^2 = 8 pi^4
    code = PskCode(phi=np.array([0.3]))
    spec = WaveformSpec(T=1.0, h=1.0, code=code)
    val = eoa_numeric(spec, 8.0 * oversample_floor(spec))["beta2"]
    assert val == pytest.approx(8.0 * np.pi ** 4, rel=1e-12)


def test_bandwidth_rule_agreement_at_low_rate():
    # the integrand is a full-period trig polynomial, so Simpson is exact
    # once the grid resolves it; 2x the floor is already enough
    spec = _spec(L=6, h=0.8, seed=5)
    simp = eoa_numeric(spec, 2.0 * oversample_floor(spec))["beta2"]
    assert simp == pytest.approx(eoa_closed_form(spec)["beta2"], rel=1e-10)


def test_rdcf_phase_cases():
    fs = 16384.0
    # equal-phase pair cancels term by term
    code = PskCode(phi=np.zeros(2))
    rho = eoa_numeric(WaveformSpec(T=1.0, h=0.7, code=code), fs)["rho"]
    assert abs(rho) < 1e-9
    # single carrier at phase pi gives +4 pi^2 h
    code = PskCode(phi=np.array([np.pi]))
    val = eoa_numeric(WaveformSpec(T=1.0, h=1.0, code=code), fs)["rho"]
    assert val == pytest.approx(4.0 * np.pi ** 2, rel=1e-9)
    # alternating pi/0 code stacks all L carriers coherently
    L, h = 6, 0.7
    phi = np.where(np.arange(1, L + 1) % 2 == 1, np.pi, 0.0)
    code = PskCode(phi=phi)
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
    sc = spectrum(compute_coefficients(spec), spec.T, f)
    assert np.max(np.abs(sn - sc)) < 1e-4


def test_spectrum_numeric_converges_with_rate():
    spec = _spec(L=2, h=5.8116, seed=3)
    f = np.linspace(-30.3, 30.3, 41)
    sc = spectrum(compute_coefficients(spec), spec.T, f)

    def worst(fs):
        return np.max(np.abs(spectrum_numeric(spec, fs, f) - sc))

    assert worst(32768.0) < worst(2048.0) / 10.0


# 1e308 Hz is finite, but T f overflows at T = 10
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
@pytest.mark.parametrize("route", ["closed_form", "oracle"])
def test_spectrum_refuses_non_finite_frequencies(route, bad):
    spec = _spec(T=10.0)
    f = [0.0, bad, 1.5]
    why = "exceeds" if np.isfinite(bad) else "is not finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfSupport, match=rf"\|f\| = \S+ {why}"):
            if route == "closed_form":
                spectrum(compute_coefficients(spec), spec.T, f)
            else:
                spectrum_numeric(spec, 4096.0, f)


@pytest.mark.parametrize("T", [1.0, 10.0])
def test_every_kernel_and_oracle_runs_at_the_doppler_support_edge(T):
    # at nu T = f T = +-2^52 the kernels' rint and integer index still hold
    spec = _spec(T=T)
    c = compute_coefficients(spec)
    fs = oracle_fs(spec)
    edge = OutOfSupport.CYCLES / T
    x = [-edge, 0.0, edge]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for out in (af_surface(c, T, [-0.5 * T, 0.0, 0.5 * T], x),
                    [ambiguity(c, T, 0.25 * T, v) for v in x],
                    spectrum(c, T, x), spectrum_numeric(spec, fs, x),
                    af_numeric_grid(spec, [-0.5 * T, 0.25 * T], x, fs)):
            assert np.all(np.isfinite(out))
        for kernel in (lambda x: af_surface(c, T, [0.0], x),
                       lambda x: spectrum(c, T, x),
                       lambda x: spectrum_numeric(spec, fs, x),
                       lambda x: af_numeric_grid(spec, [0.0], x, fs)):
            with pytest.raises(OutOfSupport):
                kernel([2.0 * edge])


def test_oracle_imports_only_waveform():
    # the oracle is a check on the closed form only while it shares no code
    # with it: its one package import is the waveform definition
    tree = ast.parse(Path(oracle.__file__).read_text())
    imports = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert imports == {"waveform"}

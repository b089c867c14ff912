import dataclasses
import inspect
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ceofdm import waveform
from ceofdm.closed_form import acf_uniform
from ceofdm.eoa import (eoa_closed_form, ellipse_contour, h_for_tbp,
                        max_coupling_code, rho_norm_max)
from ceofdm.gbf import compute_coefficients
from ceofdm.oracle import acf_numeric, oracle_fs
from ceofdm.sidelobes import metric_surface
from ceofdm.waveform import (ComplexSymbolVector, NonRealCoefficients,
                             OutOfSupport, PskCode, Undersampled,
                             WaveformSpec, ZeroDcViolation, code_from_symbols,
                             freq_mod_at, load_spec, midpoints,
                             oversample_floor, phase_at, psk_alphabet,
                             random_psk_code, sample, save_spec, simpson,
                             spec_digest, wrap_phase)


def _spec(L=2, h=0.5, T=1.0, seed=1, m_psk=32):
    return WaveformSpec(T=T, h=h, code=random_psk_code(L, m_psk, seed))


def test_wrap_phase_range():
    x = np.array([0.0, np.pi, -np.pi, 3 * np.pi, -3 * np.pi, 2 * np.pi])
    w = wrap_phase(x)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    np.testing.assert_allclose(np.exp(1j * w), np.exp(1j * x), atol=1e-12)
    # the branch cut itself lands on +pi
    assert wrap_phase(-np.pi) == pytest.approx(np.pi)
    assert wrap_phase(np.pi) == pytest.approx(np.pi)


def test_wrap_phase_is_idempotent_bit_for_bit():
    # why a caller need not wrap phases before PskCode, which wraps them.
    # Inputs: in-range, moderate and extreme magnitudes, the branch cut and
    # its neighbours, and every point of the scan grid -pi + 2 pi k / N
    rng = np.random.default_rng(11)
    n = 100_000
    grid = [-np.pi + 2.0 * np.pi * np.arange(N) / N for N in range(2, 129)]
    edges = [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi,
             np.nextafter(np.pi, 4.0), np.nextafter(-np.pi, -4.0), 5e-324,
             1.7e308, -1.7e308]
    x = np.concatenate([
        rng.uniform(-np.pi, np.pi, n), rng.uniform(-1e3, 1e3, n),
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n),
        edges, *grid])
    w = wrap_phase(x)
    assert np.array_equal(wrap_phase(w), w)
    assert np.array_equal(PskCode(phi=x).phi, PskCode(phi=w).phi)


def test_symbol_mapping_worked_example():
    # c_1 = e^{j pi/4}, c_{-1} = e^{-j pi/4}: unit amplitude, phase -pi/4
    c = np.array([np.exp(-1j * np.pi / 4), 0.0, np.exp(1j * np.pi / 4)])
    code = code_from_symbols(ComplexSymbolVector(c))
    assert code.L == 1
    assert code.gamma[0] == pytest.approx(1.0, abs=1e-15)
    assert code.phi[0] == pytest.approx(-np.pi / 4, abs=1e-15)


def test_conjugate_symmetric_psk_symbols_give_unit_amplitudes():
    rng = np.random.default_rng(7)
    for _ in range(20):
        L = int(rng.integers(1, 9))
        phases = psk_alphabet(32)[rng.integers(0, 32, size=L)]
        c = np.zeros(2 * L + 1, dtype=complex)
        c[L + 1:] = np.exp(1j * phases)
        c[:L] = np.conj(c[L + 1:])[::-1]
        code = code_from_symbols(ComplexSymbolVector(c))
        np.testing.assert_allclose(code.gamma, 1.0, atol=1e-12)
        np.testing.assert_allclose(code.phi, wrap_phase(-phases), atol=1e-12)


def test_nonzero_dc_rejected():
    with pytest.raises(ZeroDcViolation):
        ComplexSymbolVector(np.array([1.0, 0.5, 1.0]))


def test_non_conjugate_symmetric_symbols_rejected():
    c = np.array([0.3 + 0.1j, 0.0, 1.0 + 0.0j])
    with pytest.raises(NonRealCoefficients):
        code_from_symbols(ComplexSymbolVector(c))


def test_symbol_vector_shape_validation():
    with pytest.raises(ValueError):
        ComplexSymbolVector(np.array([0.0, 1.0]))  # even length
    with pytest.raises(ValueError):
        ComplexSymbolVector(np.array([0.0]))  # too short
    v = ComplexSymbolVector(np.array([1j, 0.0, -1j]))
    assert v.L == 1 and v.c[v.L + 1] == -1j and v.c[v.L - 1] == 1j


def test_psk_code_is_its_phases_amplitudes_and_alphabet():
    # L is the length of phi, not a field, and gamma defaults to ones
    assert [f.name for f in dataclasses.fields(PskCode)] == [
        "phi", "gamma", "m_psk"]
    code = PskCode(phi=[0.1, 0.2])
    assert code.L == 2 and code.m_psk is None
    assert code.gamma.dtype == float and not code.gamma.flags.writeable
    np.testing.assert_array_equal(code.gamma, np.ones(2))
    assert spec_digest(WaveformSpec(T=1.0, h=0.5, code=code)) == spec_digest(
        WaveformSpec(T=1.0, h=0.5, code=PskCode(phi=[0.1, 0.2],
                                                gamma=np.ones(2))))
    with pytest.raises(AttributeError):
        code.L = 3
    for phi in ([], 0.3, [[0.1, 0.2]]):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            PskCode(phi=phi)
    with pytest.raises(ValueError, match="shape of phi"):
        PskCode(phi=[0.1, 0.2], gamma=[[1.0, 1.0]])


def test_records_compare_and_hash_by_identity():
    # the records hold arrays, so a generated == would raise on two distinct
    # records and a generated hash() on any; they compare and hash as
    # objects, and spec_digest is their content identity
    code = PskCode(phi=[0.1, 0.2])
    spec = WaveformSpec(T=1.0, h=0.5, code=code)
    symbols = ComplexSymbolVector(np.array([1j, -1j, 0.0, 1j, -1j]))
    twin_spec = WaveformSpec(T=1.0, h=0.5, code=PskCode(phi=[0.1, 0.2]))
    for a, b in ((code, PskCode(phi=[0.1, 0.2])), (spec, twin_spec),
                 (symbols, ComplexSymbolVector(symbols.c))):
        assert a == a and not a == b and a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2 and {a: 1, b: 2}[a] == 1
    assert spec_digest(spec) == spec_digest(twin_spec)
    assert [f.name for f in dataclasses.fields(PskCode)] == [
        "phi", "gamma", "m_psk"]
    for record, name in ((code, "phi"), (spec, "T"), (symbols, "c")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)

def test_psk_code_validation():
    with pytest.raises(ValueError):
        PskCode(phi=np.zeros(2), gamma=np.ones(3))
    with pytest.raises(ValueError):
        PskCode(phi=np.zeros(1), gamma=np.array([-0.5]))
    with pytest.raises(ValueError):
        PskCode(phi=np.zeros(1), gamma=np.array([0.7]), m_psk=4)
    with pytest.raises(ValueError):
        PskCode(phi=np.array([np.nan]))
    with pytest.raises(ValueError):
        WaveformSpec(T=0.0, h=1.0, code=random_psk_code(1, 4, 0))
    with pytest.raises(ValueError):
        WaveformSpec(T=1.0, h=-0.1, code=random_psk_code(1, 4, 0))


def test_psk_code_rejects_infinite_phase_without_warning():
    # np.mod warns on inf, so finiteness is checked before phases are wrapped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="phi and gamma must be finite"):
            PskCode(phi=[0.0, np.inf])


def test_psk_alphabet_and_seeded_codes():
    alpha = psk_alphabet(4)
    np.testing.assert_allclose(sorted(alpha), [-np.pi / 2, 0, np.pi / 2, np.pi])
    a = random_psk_code(24, 32, 7)
    b = random_psk_code(24, 32, 7)
    np.testing.assert_array_equal(a.phi, b.phi)
    assert a.m_psk == 32
    # every drawn phase is a member of the alphabet
    diffs = np.abs(wrap_phase(a.phi[:, None] - psk_alphabet(32)[None, :]))
    assert np.all(diffs.min(axis=1) < 1e-12)
    # bit for bit the wrapped multiples 2 pi k / 32 of the drawn indices k
    k = np.random.default_rng(7).integers(0, 32, size=24)
    np.testing.assert_array_equal(a.phi, wrap_phase(2.0 * np.pi * k / 32))


@pytest.mark.parametrize("call, name", [
    (lambda: psk_alphabet(2.5), "m_psk"),
    (lambda: random_psk_code(3, 2.5, 0), "m_psk"),
    (lambda: PskCode(phi=[0.1], m_psk=2.5), "m_psk"),
    (lambda: PskCode(phi=[0.1], m_psk=4.0), "m_psk"),
    (lambda: max_coupling_code(2.5), "L"),
    (lambda: rho_norm_max(2.5), "L"),
    (lambda: h_for_tbp(100.0, 2.5), "L"),
    (lambda: h_for_tbp(np.nan, 2), "tbp"),
    (lambda: h_for_tbp(np.inf, 2), "tbp"),
    (lambda: metric_surface(1.0, 2.5), "grid_n"),
    (lambda: random_psk_code(2.5, 4, 0), "L"),
    (lambda: random_psk_code(0, 4, 0), "L"),
    (lambda: metric_surface(1.0, 2, L=2.0), "L"),
    (lambda: metric_surface(1.0, 2, L=0), "L"),
    (lambda: acf_numeric(_spec(), 2.5, oracle_fs(_spec())), "n_tau"),
    (lambda: ellipse_contour(eoa_closed_form(_spec()), 0.02, 2.5),
     "n_points"),
    (lambda: ellipse_contour(eoa_closed_form(_spec()), np.nan), "xi"),
    (lambda: ellipse_contour(eoa_closed_form(_spec()), np.inf), "xi"),
    # a bool is not a count, even where the floor is 1
    (lambda: random_psk_code(True, 4, 0), "L"),
    (lambda: metric_surface(1.0, 2, L=True), "L"),
    (lambda: rho_norm_max(True), "L"),
    (lambda: max_coupling_code(True), "L"),
    (lambda: h_for_tbp(100.0, True), "L"),
    (lambda: acf_numeric(_spec(), True, oracle_fs(_spec())), "n_tau"),
    (lambda: ellipse_contour(eoa_closed_form(_spec()), 0.02, True),
     "n_points"),
    (lambda: acf_uniform(compute_coefficients(_spec()), 1.0, True), "n_tau"),
    # a float n_tau, too, is refused by the count rule, not by np.bincount
    (lambda: acf_uniform(compute_coefficients(_spec()), 1.0, 2.5), "n_tau"),
    (lambda: acf_uniform(compute_coefficients(_spec()), 1.0, np.float64(3.0)),
     "n_tau"),
], ids=["psk_alphabet", "random_psk_code", "PskCode", "PskCode-float",
        "max_coupling_code", "rho_norm_max", "h_for_tbp-L", "h_for_tbp-nan",
        "h_for_tbp-inf", "metric_surface", "random_psk_code-L",
        "random_psk_code-L0", "metric_surface-L", "metric_surface-L0",
        "acf_numeric", "ellipse_contour", "ellipse_contour-nan",
        "ellipse_contour-inf", "random_psk_code-True", "metric_surface-True",
        "rho_norm_max-True", "max_coupling_code-True", "h_for_tbp-True",
        "acf_numeric-True", "ellipse_contour-True", "acf_uniform-True",
        "acf_uniform", "acf_uniform-np.float64"])
def test_counts_must_be_integers(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()


def test_fft_len_is_the_power_of_two_at_or_above():
    n = np.arange(1, 2 ** 16 + 1)
    got = np.array([waveform._fft_len(int(k)) for k in n])
    assert np.all(got & (got - 1) == 0)
    assert np.all((got >= n) & (got < 2 * n))


def test_fft_len_gives_every_size_the_sites_wrote_out():
    # the expressions gbf, closed_form and oracle.acf_numeric each wrote
    # before they took their FFT lengths from _fft_len
    fft_len = waveform._fft_len
    rng = np.random.default_rng(11)
    for M, N, n_in, n_out in rng.integers(1, 1 << 21, size=(2000, 4)):
        M, N, n_in, n_out = int(M), int(N), int(n_in), int(n_out)
        # gbf.compute_coefficients' starting size
        assert (fft_len(4 * (2 * M + 1))
                == 1 << (4 * (2 * M + 1) - 1).bit_length())
        # closed_form._chi_causal and closed_form.lag_weights
        assert fft_len(4 * M + 1) == 1 << (4 * M).bit_length()
        # closed_form.acf_uniform's default grid
        assert (max(4096, 2 * fft_len(4 * M + 1))
                == max(4096, 2 << (4 * M).bit_length()))
        # closed_form.chirp_z
        assert (fft_len(n_in + n_out - 1)
                == 1 << (n_in + n_out - 2).bit_length())
        # oracle.acf_numeric
        assert fft_len(2 * N) == 1 << (2 * N - 1).bit_length()


def test_numpy_integer_counts_are_accepted(tmp_path):
    four = np.int64(4)
    np.testing.assert_array_equal(psk_alphabet(four), psk_alphabet(4))
    code = random_psk_code(3, four, 0)
    np.testing.assert_array_equal(code.phi, random_psk_code(3, 4, 0).phi)
    # stored as a Python int, so the spec file can hold it
    assert type(code.m_psk) is int and code.m_psk == 4
    save_spec(WaveformSpec(T=1.0, h=0.5, code=code), tmp_path / "s.json")
    assert load_spec(tmp_path / "s.json").code.m_psk == 4
    np.testing.assert_array_equal(max_coupling_code(np.int64(5)).phi,
                                  max_coupling_code(5).phi)
    assert rho_norm_max(np.int64(24)) == rho_norm_max(24)
    assert h_for_tbp(200.0, np.int64(24)) == h_for_tbp(200.0, 24)
    for a, b in zip(metric_surface(1.0, np.int64(2), L=np.int64(1)),
                    metric_surface(1.0, 2, L=1)):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(random_psk_code(np.int64(3), 4, 0).phi,
                                  code.phi)
    spec = _spec()
    np.testing.assert_array_equal(
        acf_numeric(spec, np.int64(16), oracle_fs(spec)),
        acf_numeric(spec, 16, oracle_fs(spec)))
    c = compute_coefficients(spec)
    for a, b in zip(acf_uniform(c, 1.0, np.int64(16)),
                    acf_uniform(c, 1.0, 16)):
        np.testing.assert_array_equal(a, b)
    params = eoa_closed_form(spec)
    np.testing.assert_array_equal(ellipse_contour(params, 0.02, np.int64(16)),
                                  ellipse_contour(params, 0.02, 16))


def test_phase_matches_conjugate_exponential_series():
    # phi(t) = 2 pi h sum_l Re(c_l e^{-j 2 pi l t / T}) for the code built
    # from conjugate-symmetric symbols c
    rng = np.random.default_rng(3)
    for _ in range(10):
        L = int(rng.integers(1, 7))
        cpos = np.exp(1j * rng.uniform(-np.pi, np.pi, L))
        c = np.zeros(2 * L + 1, dtype=complex)
        c[L + 1:] = cpos
        c[:L] = np.conj(cpos)[::-1]
        spec = WaveformSpec(T=2.0, h=0.8,
                            code=code_from_symbols(ComplexSymbolVector(c)))
        t = np.linspace(-1.0, 1.0, 257)
        ell = np.arange(1, L + 1)
        ref = 2 * np.pi * 0.8 * np.real(
            cpos[None, :] * np.exp(-2j * np.pi * ell[None, :] * t[:, None] / 2.0)
        ).sum(axis=1)
        np.testing.assert_allclose(phase_at(spec, t), ref, atol=1e-10)


def test_phase_time_reversal_under_phase_negation():
    spec = _spec(L=5, h=0.9, seed=11)
    neg = WaveformSpec(T=spec.T, h=spec.h,
                       code=PskCode(phi=wrap_phase(-spec.code.phi),
                                    gamma=spec.code.gamma))
    t = np.linspace(-0.5, 0.5, 129)
    np.testing.assert_allclose(phase_at(neg, t), phase_at(spec, -t),
                               atol=1e-12)


def test_freq_mod_is_phase_derivative():
    spec = _spec(L=3, h=1.2, seed=5)
    t = np.linspace(-0.45, 0.45, 201)
    dt = 1e-6
    num = (phase_at(spec, t + dt) - phase_at(spec, t - dt)) / (2 * dt)
    np.testing.assert_allclose(freq_mod_at(spec, t) * 2 * np.pi, num,
                               atol=1e-4)


def test_harmonic_sum_of_a_point_does_not_depend_on_the_others():
    # the terms are added in order of l, as numpy's axis-0 sum of the
    # (L, n) table of terms adds them for n >= 2; a table of one point was
    # summed pairwise instead, which moved its last bits
    x = np.linspace(-np.pi, np.pi, 1001)
    for L in (1, 2, 24, 400):
        code = random_psk_code(L, 32, L)
        ell = np.arange(1, L + 1, dtype=float)
        for derivative, w, fn in ((False, code.gamma, np.cos),
                                  (True, ell * code.gamma, np.sin)):
            got = waveform._harmonic_sum(code, x, derivative)
            table = w[:, None] * fn(np.outer(ell, x) + code.phi[:, None])
            assert got.tobytes() == np.sum(table, axis=0).tobytes()
            alone = [waveform._harmonic_sum(code, x[i:i + 1], derivative)
                     for i in range(0, len(x), 50)]
            assert np.concatenate(alone).tobytes() == got[::50].tobytes()


def test_harmonic_sum_memory_does_not_grow_with_L():
    # the temporaries are the size of t (128 KB); a table of all L terms
    # of 2^14 points is 52 MB
    spec = _spec(L=400, h=0.01, seed=0)
    t = np.linspace(-0.5, 0.5, 1 << 14)
    tracemalloc.start()
    try:
        phase_at(spec, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_support_enforced():
    spec = _spec()
    with pytest.raises(OutOfSupport):
        phase_at(spec, 0.5000001)
    with pytest.raises(OutOfSupport):
        freq_mod_at(spec, np.array([0.0, -0.51]))
    for evaluate in (phase_at, freq_mod_at):  # NaN is no time on the pulse
        with pytest.raises(OutOfSupport):
            evaluate(spec, np.nan)
        with pytest.raises(OutOfSupport):
            evaluate(spec, np.array([0.0, np.nan]))
    assert np.isfinite(phase_at(spec, 0.5))  # boundary included


def test_grid_rule_is_the_only_grid_conversion():
    # every time, delay, Doppler and frequency grid is converted and checked
    # by OutOfSupport.check, and no function converts one on its own
    pattern = "np.atleast_1d(np.asarray("
    hits = {path.name: path.read_text().count(pattern)
            for path in Path(waveform.__file__).parent.glob("*.py")}
    assert sum(hits.values()) == 1 and hits["waveform.py"] == 1
    assert pattern in inspect.getsource(OutOfSupport.check)


def test_scalar_and_array_evaluation_agree():
    spec = _spec()
    assert phase_at(spec, 0.1) == phase_at(spec, np.array([0.1]))[0]
    assert isinstance(phase_at(spec, 0.1), float)


def test_constant_modulation_index_zero():
    code = PskCode(phi=np.zeros(4))
    spec = WaveformSpec(T=2.0, h=0.0, code=code)
    _, s = sample(spec, 64.0)
    np.testing.assert_allclose(s, 1.0 / np.sqrt(2.0), atol=1e-15)


def test_samples_unit_energy_and_envelope():
    spec = _spec(L=8, h=0.3, seed=2)
    fs = 4096.0  # integer fs * T so the Riemann energy is exact
    _, s = sample(spec, fs)
    np.testing.assert_allclose(np.abs(s), 1.0, atol=1e-12)
    assert np.sum(np.abs(s) ** 2) / fs == pytest.approx(1.0, abs=1e-12)


def test_sample_times_midpoint_registration():
    spec = _spec(T=2.0)
    t, s = sample(spec, 64.0)
    assert len(t) == len(s) == 128
    assert t[0] == pytest.approx(-1.0 + 0.5 / 64.0)
    assert t[-1] == pytest.approx(1.0 - 0.5 / 64.0)


def test_undersampling_rejected():
    spec = _spec(L=8, h=2.0)
    floor = oversample_floor(spec)
    for fs in (0.5 * floor, np.inf, np.nan):
        with pytest.raises(Undersampled):
            sample(spec, fs)
    sample(spec, 1.01 * floor)  # at or above the floor is accepted


@pytest.mark.parametrize("T, n", [(1.0, 4096), (2.5, 4096), (1.0, 1600),
                                  (2.5, 458)])
def test_midpoints_is_the_midpoint_rule(T, n):
    # the oversampling floor's grid, and compare-lfm's at --tbp 200 and at
    # --tbp 57.3 --T 2.5
    t, d = midpoints(T, n)
    np.testing.assert_array_equal(t, -T / 2 + (np.arange(n) + 0.5) * (T / n))
    assert d * n == T


def test_spec_json_round_trip(tmp_path):
    spec = _spec(L=6, h=0.7, T=3.0, seed=9)
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    back = load_spec(path)
    assert spec_digest(back) == spec_digest(spec)
    np.testing.assert_array_equal(back.code.phi, spec.code.phi)
    assert back.code.m_psk == spec.code.m_psk


def test_spec_json_gamma_defaults_to_ones(tmp_path):
    path = tmp_path / "spec.json"
    with open(path, "w") as fh:
        json.dump({"T": 1.0, "h": 0.5, "L": 2, "phi": [0.0, 1.0]}, fh)
    spec = load_spec(path)
    np.testing.assert_array_equal(spec.code.gamma, np.ones(2))
    assert spec.code.m_psk is None


def test_spec_json_takes_integers_as_numbers(tmp_path):
    # T, h, phi and gamma are JSON numbers, int or float; bool and string
    # are rejected (tests/test_cli.py)
    path = tmp_path / "spec.json"
    path.write_text('{"T": 1, "h": 2, "L": 2, "phi": [0, 1], "gamma": [1, 3]}')
    spec = load_spec(path)
    assert (spec.T, spec.h) == (1.0, 2.0) and type(spec.T) is float
    np.testing.assert_array_equal(spec.code.phi, [0.0, 1.0])
    np.testing.assert_array_equal(spec.code.gamma, [1.0, 3.0])


def test_digest_distinguishes_specs():
    a = _spec(seed=1)
    b = _spec(seed=2)
    assert spec_digest(a) != spec_digest(b)
    assert spec_digest(a) == spec_digest(_spec(seed=1))


@pytest.mark.parametrize("n", [*range(2, 61), 64, 97, 128, 1001, 4097])
def test_simpson_matches_scipy_on_a_uniform_step(n):
    # an odd count is scipy's dx= arithmetic; an even one rounds its
    # last-interval weights differently (largest measured 2.9e-16 sum|y| dx)
    from scipy.integrate import simpson as scipy_simpson
    rng = np.random.default_rng(n)
    for _ in range(100):
        dx = float(rng.uniform(1e-3, 2.0))
        for y in (rng.normal(size=n),
                  rng.normal(size=n) + 1j * rng.normal(size=n)):
            got, want = simpson(y, dx), scipy_simpson(y, dx=dx)
            if n % 2:
                assert got == want
            else:
                assert abs(got - want) <= 5e-16 * np.sum(np.abs(y)) * dx


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 60, 97, 128, 1001, 4097])
def test_simpson_is_exact_on_cubics_and_quadratics(n):
    # Simpson's rule integrates cubics exactly; the even-count correction
    # of the last interval is exact only up to quadratics.  The bound scales
    # with the rounding of the samples (largest measured 6.3e-16).
    P = np.polynomial.polynomial
    rng = np.random.default_rng(n)
    for _ in range(20):
        a, dx = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0) / n
        coef = rng.normal(size=4 if n % 2 else 3)
        x = a + dx * np.arange(n)
        anti = P.polyint(coef)
        exact = P.polyval(x[-1], anti) - P.polyval(a, anti)
        scale = np.sum(P.polyval(np.abs(x), np.abs(coef))) * dx
        assert abs(simpson(P.polyval(x, coef), dx) - exact) <= 1e-15 * scale


@pytest.mark.parametrize("L,h,n_tau", [(2, 5.8, 97), (2, 5.8, 128),
                                       (24, 0.1856, 128)])
def test_simpson_matches_scipy_on_every_isl_split(L, h, n_tau):
    # the sidelobe ISL integrates |R|^2 on both sides of a split node; every
    # split of an acf_uniform grid gives parts of each length and parity.
    # The bound is relative to sum |y| dx, about the integral itself for
    # |R|^2, as parts of complex R cancel (largest measured 3.8e-15).
    from scipy.integrate import simpson as scipy_simpson
    spec = _spec(L=L, h=h, seed=3)
    tau, R = acf_uniform(compute_coefficients(spec), spec.T, n_tau=n_tau)
    dx = tau[1] - tau[0]
    for y in (np.abs(R) ** 2, R):
        for split in range(1, n_tau):
            for part in (slice(None, split + 1), slice(split, None)):
                want = scipy_simpson(y[part], x=tau[part])
                assert abs(simpson(y[part], dx) - want) <= (
                    1e-14 * np.sum(np.abs(y[part])) * dx)

import json

import numpy as np
import pytest

from ceofdm.closed_form import acf_uniform
from ceofdm.waveform import (ComplexSymbolVector, NonRealCoefficients,
                             OutOfSupport, PskCode, Undersampled,
                             WaveformSpec, ZeroDcViolation, code_from_symbols,
                             freq_mod_at, load_spec, oversample_floor,
                             phase_at, psk_alphabet, random_psk_code, sample,
                             sample_times, save_spec, simpson, spec_digest,
                             wrap_phase)


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
    assert v.symbol(1) == -1j and v.symbol(-1) == 1j


def test_psk_code_validation():
    with pytest.raises(ValueError):
        PskCode(L=2, gamma=np.ones(3), phi=np.zeros(2))
    with pytest.raises(ValueError):
        PskCode(L=1, gamma=np.array([-0.5]), phi=np.zeros(1))
    with pytest.raises(ValueError):
        PskCode(L=1, gamma=np.array([0.7]), phi=np.zeros(1), m_psk=4)
    with pytest.raises(ValueError):
        PskCode(L=1, gamma=np.ones(1), phi=np.array([np.nan]))
    with pytest.raises(ValueError):
        WaveformSpec(T=0.0, h=1.0, code=random_psk_code(1, 4, 0))
    with pytest.raises(ValueError):
        WaveformSpec(T=1.0, h=-0.1, code=random_psk_code(1, 4, 0))


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
                       code=PskCode(L=spec.L, gamma=spec.code.gamma,
                                    phi=wrap_phase(-spec.code.phi)))
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


def test_support_enforced():
    spec = _spec()
    with pytest.raises(OutOfSupport):
        phase_at(spec, 0.5000001)
    with pytest.raises(OutOfSupport):
        freq_mod_at(spec, np.array([0.0, -0.51]))
    assert np.isfinite(phase_at(spec, 0.5))  # boundary included


def test_scalar_and_array_evaluation_agree():
    spec = _spec()
    assert phase_at(spec, 0.1) == phase_at(spec, np.array([0.1]))[0]
    assert isinstance(phase_at(spec, 0.1), float)


def test_constant_modulation_index_zero():
    code = PskCode(L=4, gamma=np.ones(4), phi=np.zeros(4))
    spec = WaveformSpec(T=2.0, h=0.0, code=code)
    s = sample(spec, 64.0)
    np.testing.assert_allclose(s, 1.0 / np.sqrt(2.0), atol=1e-15)


def test_samples_unit_energy_and_envelope():
    spec = _spec(L=8, h=0.3, seed=2)
    fs = 4096.0  # integer fs * T so the Riemann energy is exact
    s = sample(spec, fs)
    np.testing.assert_allclose(np.abs(s), 1.0, atol=1e-12)
    assert np.sum(np.abs(s) ** 2) / fs == pytest.approx(1.0, abs=1e-12)


def test_sample_times_midpoint_registration():
    spec = _spec(T=2.0)
    t = sample_times(spec, 64.0)
    assert len(t) == 128
    assert t[0] == pytest.approx(-1.0 + 0.5 / 64.0)
    assert t[-1] == pytest.approx(1.0 - 0.5 / 64.0)


def test_undersampling_rejected():
    spec = _spec(L=8, h=2.0)
    floor = oversample_floor(spec)
    with pytest.raises(Undersampled):
        sample(spec, 0.5 * floor)
    sample(spec, 1.01 * floor)  # at or above the floor is accepted


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


def test_digest_distinguishes_specs():
    a = _spec(seed=1)
    b = _spec(seed=2)
    assert spec_digest(a) != spec_digest(b)
    assert spec_digest(a) == spec_digest(_spec(seed=1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 64, 97, 128, 1001])
def test_simpson_matches_scipy_bit_for_bit(n):
    # Random spacings reach the rounding of the last-interval correction,
    # which differs in about one draw in 500 if that is done on scalars.
    from scipy.integrate import simpson as scipy_simpson
    rng = np.random.default_rng(n)
    grids = [np.linspace(-0.3, 1.7, n)]
    grids += [np.sort(rng.uniform(0.0, 2.0, n)) for _ in range(300)]
    for x in grids:
        for y in (rng.normal(size=n),
                  rng.normal(size=n) + 1j * rng.normal(size=n)):
            assert simpson(y, x) == scipy_simpson(y, x=x)


@pytest.mark.parametrize("L,h,n_tau", [(2, 5.8, 97), (2, 5.8, 128),
                                       (24, 0.1856, 128)])
def test_simpson_matches_scipy_on_every_isl_split(L, h, n_tau):
    # sidelobes.isl integrates |R|^2 on both sides of a split node; every
    # split of an acf_uniform grid gives parts of each length and parity
    from scipy.integrate import simpson as scipy_simpson
    tau, R = acf_uniform(_spec(L=L, h=h, seed=3), n_tau=n_tau)
    for y in (np.abs(R) ** 2, R):
        for split in range(1, n_tau):
            for part in (slice(None, split + 1), slice(split, None)):
                assert simpson(y[part], tau[part]) == scipy_simpson(
                    y[part], x=tau[part])

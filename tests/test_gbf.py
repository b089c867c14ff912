import mpmath
import numpy as np
import pytest

from ceofdm import gbf
from ceofdm.cli import write_csv
from ceofdm.closed_form import spectrum
from ceofdm.eoa import h_for_tbp
from ceofdm.gbf import TruncationFailure, compute_coefficients
from ceofdm.waveform import (PskCode, WaveformSpec, _harmonic_sum, phase_at,
                             random_psk_code, wrap_phase)


def _spec(L=2, h=0.5, T=1.0, seed=1):
    return WaveformSpec(T=T, h=h, code=random_psk_code(L, 32, seed))


def _residual(c):
    # the Parseval residual, the same expression the engine evaluates
    return float(1.0 - np.sum(np.abs(c) ** 2))


def test_constant_waveform_has_single_coefficient():
    spec = WaveformSpec(T=1.0, h=0.0,
                        code=PskCode(phi=np.zeros(3)))
    c = compute_coefficients(spec)
    M = len(c) // 2
    assert c[M] == pytest.approx(1.0, abs=1e-15)
    others = np.delete(c, M)
    np.testing.assert_allclose(others, 0.0, atol=1e-15)
    assert _residual(c) < 1e-12


def test_single_carrier_reduces_to_ordinary_bessel():
    # c_m = j^m e^{j m phi_1} J_m(2 pi h) for L = 1
    for h, phi1 in [(0.5, -np.pi / 4), (1.3, 1.0), (2.0, np.pi)]:
        code = PskCode(phi=np.array([phi1]))
        c = compute_coefficients(WaveformSpec(T=1.0, h=h, code=code))
        M = len(c) // 2
        with mpmath.workdps(30):
            for m in range(-M, M + 1):
                ref = (1j ** m) * np.exp(1j * m * phi1) * float(
                    mpmath.besselj(m, 2 * np.pi * h))
                assert abs(c[M + m] - ref) < 1e-10


def _coefficients_from_scratch(spec):
    # the schedule with every order sampling the phase factor in full
    M = gbf._initial_order(spec)
    while True:
        nfft = 1
        while nfft < 4 * (2 * M + 1):
            nfft *= 2
        theta = 2.0 * np.pi * np.arange(nfft) / nfft
        g = np.exp(1j * (2.0 * np.pi * spec.h
                         * _harmonic_sum(spec.code, theta)))
        c = (np.fft.fft(g) / nfft)[np.arange(-M, M + 1) % nfft]
        residual = float(1.0 - np.sum(np.abs(c) ** 2))
        if residual < gbf.TOL and max(abs(c[0]), abs(c[-1])) <= gbf.TOL:
            return M, c, residual
        M *= 2


@pytest.mark.parametrize("case", ["scan", "L24", "chunked"])
def test_doubled_order_reuses_samples_bit_for_bit(case, monkeypatch):
    # the scan's h range (157 -> 314), an L = 24 code at TBP 200 that
    # doubles 484 -> 968, and the scan's h with each call of _harmonic_sum
    # split in pieces of 2047 points, which leaves a one-point piece
    if case == "L24":
        specs = [WaveformSpec(T=1.0, h=h_for_tbp(200.0, 24),
                              code=random_psk_code(24, 32, 1))]
    else:
        specs = [WaveformSpec(T=1.0, h=h, code=PskCode(phi=phi))
                 for h in (5.78, 5.7975, 5.8149)
                 for phi in ([0.0, 0.0], [0.3, -1.2], [-np.pi, 2.5])]
    sizes = []

    def counted(code, x, *args):
        sizes.append(len(x))
        if case == "chunked":
            return np.concatenate([_harmonic_sum(code, x[i:i + 2047], *args)
                                   for i in range(0, len(x), 2047)])
        return _harmonic_sum(code, x, *args)

    # the reference calls waveform's _harmonic_sum, which stays uncounted
    monkeypatch.setattr(gbf, "_harmonic_sum", counted)
    for spec in specs:
        M, c, residual = _coefficients_from_scratch(spec)
        assert M == 2 * gbf._initial_order(spec)
        sizes.clear()
        got = compute_coefficients(spec)
        assert len(got) // 2 == M and _residual(got) == residual
        assert got.tobytes() == c.tobytes()
        # the rebuild evaluates only the odd samples of its grid
        assert sizes == [sizes[0], sizes[0]]


def test_fft_size_doubles_with_the_order():
    # the engine doubles M and its FFT size together, so the power of two
    # >= 4 (2M + 1) must double with M: 4 (2M + 1) is never a power of two
    def nfft(M):
        return 1 << (4 * (2 * M + 1) - 1).bit_length()

    assert all(nfft(2 * M) == 2 * nfft(M) for M in range(1, gbf.M_CAP + 1))


def test_parseval_residual_below_tol():
    for seed in range(5):
        spec = _spec(L=8, h=0.4, seed=seed)
        c = compute_coefficients(spec)
        # rounding can push the coefficient energy a hair past 1
        assert -1e-14 < _residual(c) < 1e-12
        assert len(c) % 2 == 1


def test_coefficients_deterministic():
    spec = _spec(L=4, h=1.1, seed=3)
    a = compute_coefficients(spec)
    b = compute_coefficients(spec)
    assert len(a) == len(b)
    np.testing.assert_array_equal(a, b)


def test_resynthesis_matches_phase_samples():
    spec = _spec(L=4, h=0.8, seed=2)
    c = compute_coefficients(spec)
    M = len(c) // 2
    t = np.linspace(-spec.T / 2, spec.T / 2, 4096)
    ref = np.exp(1j * phase_at(spec, t))
    m = np.arange(-M, M + 1)
    resynth = c @ np.exp(2j * np.pi * np.outer(m, t) / spec.T)
    err = np.abs(resynth - ref)
    assert err.max() < 1e-11


def test_phase_negation_flips_coefficient_index():
    # negating every code phase sends c_m to c_{-m} exactly
    spec = _spec(L=5, h=0.9, seed=8)
    neg = WaveformSpec(T=spec.T, h=spec.h,
                       code=PskCode(phi=wrap_phase(-spec.code.phi),
                                    gamma=spec.code.gamma))
    a = compute_coefficients(spec)
    b = compute_coefficients(neg)
    assert len(a) == len(b)
    np.testing.assert_allclose(b, a[::-1], atol=5e-15)


def test_time_shift_ramps_the_coefficients():
    # the code phi_l + l a has the coefficients exp(j m a) c_m; on the grid
    # phi = -pi + 2 pi k / N the shift a = 2 pi j / N maps grid codes onto
    # grid codes, which sidelobes.metric_surface uses.  The edges L = 1,
    # odd N and h = 0, then random codes with L <= 8 and N <= 64: over
    # 7200 random pairs with h <= 6 (one in ten at h = 0) the engine chose
    # the same M for both codes and the ramped coefficients lay within
    # 1.3e-14 of its own.
    rng = np.random.default_rng(37)
    cases = [(1, 2, 0.7), (1, 7, 2.5), (3, 5, 0.0), (8, 64, 0.3)]
    cases += [(int(rng.integers(1, 9)), int(rng.integers(2, 65)),
               float(rng.uniform(0.0, 6.0))) for _ in range(40)]
    for L, N, h in cases:
        phis = -np.pi + 2.0 * np.pi * np.arange(N) / N
        k, j = rng.integers(0, N, L), int(rng.integers(0, N))
        shifted = (k + j * np.arange(1, L + 1)) % N
        c = compute_coefficients(
            WaveformSpec(T=1.0, h=h, code=PskCode(phi=phis[k])))
        ref = compute_coefficients(
            WaveformSpec(T=1.0, h=h, code=PskCode(phi=phis[shifted])))
        assert len(ref) == len(c)
        m = np.arange(len(c)) - len(c) // 2
        ramp = np.exp(2j * np.pi * np.arange(N) / N)[m * j % N]
        np.testing.assert_allclose(c * ramp, ref, rtol=0, atol=1e-13)


def test_truncation_order_grows_with_h():
    assert len(compute_coefficients(_spec(L=2, h=0.1))) < len(
        compute_coefficients(_spec(L=2, h=5.0)))


def test_truncation_cap_enforced():
    code = PskCode(phi=np.zeros(100))
    spec = WaveformSpec(T=1.0, h=25.0, code=code)
    with pytest.raises(TruncationFailure,
                       match=r"truncation order \d+ exceeds cap 1048576"):
        compute_coefficients(spec)


def test_coefficient_accessor_bounds():
    c = compute_coefficients(_spec())
    M = len(c) // 2
    m = np.arange(-M, M + 1)
    # c holds c_{-M}..c_M in m order, so c_0 sits at position M
    assert m[M] == 0 and len(m) == len(c)
    # an even length has no c_0 to centre on, and the kernels reject it
    with pytest.raises(ValueError):
        spectrum(np.zeros(4, dtype=complex), 1.0, [0.0])


def test_coefficients_are_one_read_only_array_independent_of_T():
    # the kernels' one input: c_{-M}..c_M depends on h and the code alone
    code = random_psk_code(3, 32, 6)
    a = compute_coefficients(WaveformSpec(T=1.0, h=0.7, code=code))
    b = compute_coefficients(WaveformSpec(T=2.5, h=0.7, code=code))
    for c in (a, b):
        assert isinstance(c, np.ndarray) and c.dtype == complex
        assert c.ndim == 1 and len(c) % 2 == 1
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0] = 0.0
    assert a.tobytes() == b.tobytes()


def test_coefficient_csv_round_trip(tmp_path):
    c = compute_coefficients(_spec(L=3, h=0.6, seed=4))
    M = len(c) // 2
    path = tmp_path / "coeffs.csv"
    write_csv(path, "m,re,im,abs2", [np.arange(-M, M + 1), c])
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert len(data) == 2 * M + 1
    np.testing.assert_allclose(data["re"] + 1j * data["im"], c, atol=1e-16)
    np.testing.assert_allclose(data["abs2"], np.abs(c) ** 2, atol=1e-16)

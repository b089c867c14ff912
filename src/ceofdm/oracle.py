"""Brute-force numeric cross-checks for the closed-form results.

Everything here works from the waveform definition alone: the phase series
and its derivative are evaluated analytically on quadrature grids and the
defining integrals are approximated by the composite Simpson rule (a
midpoint sum over waveform.sample for the Fourier integral).  Nothing is
shared with the coefficient-series route, so agreement between the two is a
genuine check.
Every function takes the node rate fs and refuses, by Undersampled.check,
a rate below the floor waveform.sample keeps; the CLI uses oracle_fs.

Grid registration: the nodes over a window of width W are spaced W / N with
N = round(fs W), so the window is covered exactly.  Integrands that are
full-period trigonometric polynomials (the squared frequency deviation) are
then integrated to machine precision; odd moments carrying a bare t factor
converge as O(1/fs^4).  Simpson is waveform.simpson, the uniform-step rule
that the ISL metric also uses.
"""

from __future__ import annotations

import math

import numpy as np

from .waveform import (TWO_PI, OutOfSupport, Undersampled, WaveformSpec,
                       _count, _fft_len, freq_mod_at, oversample_floor,
                       phase_at, sample, simpson)

# _dft works on blocks of at most this many (frequency, node) pairs.
_DFT_CHUNK = 1 << 20


def oracle_fs(spec: WaveformSpec) -> float:
    """Quadrature rate: fs T is the _fft_len of 8192 or of twice the
    oversampling floor times T, if larger, so grids stay clean across reruns."""
    n = max(2.0 * oversample_floor(spec) * spec.T, 8192.0)
    return _fft_len(math.ceil(n)) / spec.T


def _nodes(a: float, b: float, fs: float, step: int = 2):
    """(t, d): the n + 1 Simpson nodes over [a, b], spaced d, with
    n = round(fs (b - a)), at least 4, rounded up to a multiple of step."""
    width = b - a
    n = -(-max(int(round(fs * width)), 4) // step) * step
    return np.linspace(a, b, n + 1), width / n


def _dft(s: np.ndarray, t: np.ndarray, d: float, f) -> np.ndarray:
    """d sum_n s_n exp(-j 2 pi f t_n) at each frequency f: the Fourier
    integral of samples s on midpoint nodes t with spacing d, summed
    directly (the tests' reference for compare-lfm's chirp-z spectrum)."""
    out = np.empty(len(f), dtype=complex)
    step = max(1, _DFT_CHUNK // max(len(t), 1))
    for i in range(0, len(f), step):
        blk = f[i:i + step]
        out[i:i + step] = (np.exp(-2j * np.pi * blk[:, None] * t[None, :])
                           @ s) * d
    return out


def af_numeric_grid(spec: WaveformSpec, taus, nus, fs: float) -> np.ndarray:
    """chi on the outer product of taus and nus; one quadrature grid per tau.

    Each entry is int s(t - tau/2) conj(s(t + tau/2)) exp(j 2 pi nu t) dt
    over the overlap window, with the phase evaluated analytically at the
    nodes; it is exactly 0 at |tau| = T, and |tau| > T raises OutOfSupport.
    """
    T = spec.T
    taus = OutOfSupport.check(taus, T, "tau")
    nus = OutOfSupport.check(nus, OutOfSupport.CYCLES / T, "nu")
    fs = Undersampled.check(spec, fs)
    out = np.zeros((len(taus), len(nus)), dtype=complex)
    for i, tau in enumerate(taus):
        half = (T - abs(tau)) / 2.0
        if half <= 0.0:
            continue
        t, d = _nodes(-half, half, fs)
        u = np.exp(1j * (phase_at(spec, t - tau / 2.0)
                         - phase_at(spec, t + tau / 2.0))) / T
        for j, nu in enumerate(nus):
            out[i, j] = simpson(u * np.exp(2j * np.pi * nu * t), d)
    return out


def acf_numeric(spec: WaveformSpec, n_tau: int, fs: float) -> np.ndarray:
    """R(j T / n_tau), j = 0..n_tau: one phase evaluation, one FFT correlation.

    The nodes are _nodes' t_n = -T/2 + n T / N, n = 0..N, with N rounded up
    to a multiple of 2 n_tau, so a delay is 2k lattice steps and its
    shifted nodes t -/+ tau/2 are a prefix and a suffix of the lattice.
    With x_n = exp(j phi(t_n)) and a_n = 2 (n even) or 4 (n odd), its
    Simpson sum is (1 / 3N) [sum_n a_n x_n conj(x_{n+2k}) - x_0 conj(x_{2k})
    - x_{N-2k} conj(x_N)]: af_numeric_grid at fs = N / T, to rounding.  R(T)
    is exactly 0, so the lags read stay below N: 2N points hold them.
    """
    n_tau = _count(n_tau, 1, "n_tau")
    t, _ = _nodes(-spec.T / 2.0, spec.T / 2.0, Undersampled.check(spec, fs),
                  2 * n_tau)
    N = len(t) - 1
    x = np.exp(1j * phase_at(spec, t))
    size = _fft_len(2 * N)
    ax = np.where(np.arange(N + 1) % 2, 4.0, 2.0) * x
    xa = np.conj(np.fft.fft(ax, size))
    xa *= np.fft.fft(x, size)  # in place: one spectrum fewer held at once
    lag = np.arange(n_tau) * (N // n_tau)
    return np.append((np.conj(np.fft.ifft(xa)[lag]) - x[0] * np.conj(x[lag])
                      - x[N - lag] * np.conj(x[N])) / (3 * N), 0.0)


def eoa_numeric(spec: WaveformSpec, fs: float) -> dict:
    """beta2, tau2 and rho on one Simpson grid, keyed as eoa_closed_form's
    dict.

    beta2 = (1/T) int phi'(t)^2 dt - | (1/T) int j phi'(t) dt |^2 (rad Hz)^2
    comes from the phase derivative on the full support, NOT from the second
    moment of |S(f)|^2, which the rect window's sinc tails make diverge.
    tau2 = 4 pi^2 int t^2 |s(t)|^2 dt (rad s)^2.  The coupling
    rho = -2 pi Im int t s(t) conj(s'(t)) dt reduces, with s' = j phi' s on
    the support and |s|^2 = 1/T, to (2 pi / T) int t phi'(t) dt.
    """
    T = spec.T
    t, d = _nodes(-T / 2.0, T / 2.0, Undersampled.check(spec, fs))
    pd = TWO_PI * freq_mod_at(spec, t)
    first = simpson(pd ** 2, d) / T
    second = simpson(pd, d) / T
    return {"beta2": float(first - second ** 2),
            "tau2": float(4.0 * np.pi ** 2 * simpson(t ** 2 / T, d)),
            "rho": float((TWO_PI / T) * simpson(t * pd, d))}


def spectrum_numeric(spec: WaveformSpec, fs: float, f_grid) -> np.ndarray:
    """S(f) by quadrature of the Fourier integral at each frequency of f_grid.

    Equivalent to an unboundedly zero-padded DFT of the sampled waveform:
    the transform of sample(spec, fs), which raises Undersampled below the
    floor, is evaluated directly at the requested frequencies.
    """
    f = OutOfSupport.check(f_grid, OutOfSupport.CYCLES / spec.T, "f")
    t, s = sample(spec, fs)
    return _dft(s, t, spec.T / len(t), f)

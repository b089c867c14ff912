"""Fourier coefficients of the periodic phase factor.

exp(j phi(t)) is T-periodic, so s(t) = rect(t/T)/sqrt(T) * sum_m c_m
exp(j 2 pi m t / T) with

    c_m = (1/2pi) int_0^{2pi} exp(j 2 pi h sum_l gamma_l cos(l theta + phi_l))
          exp(-j m theta) d theta.

For L = 1 these reduce to c_m = j^m exp(j m phi_1) J_m(2 pi h gamma_1) with
J_m the ordinary Bessel function (Jacobi-Anger); for L > 1 they are
generalized multi-tone analogues.  They depend on h and the code, not on T,
and with T they are the closed-form kernels' one input.  The engine computes
them by FFT of the uniformly sampled phase factor, which aliases coefficients
at |m| > N_fft - M; the FFT size, waveform._fft_len(4 (2M + 1)), puts the
aliased tail below the truncation residual being measured.

Truncation order schedule: start at M0 = ceil(e pi h L (L+1) / 2) + 8 (a
safety factor of e/2 over the peak harmonic extent 2 pi h L(L+1)/2 of the
phase derivative), then double until the Parseval residual 1 - sum |c_m|^2
drops below TOL, failing at M > 2^20.  M and the FFT size double together
(4 (2M + 1) is never a power of two), so a rebuild evaluates only the odd
samples: the even ones are bitwise the previous grid's (2 pi 2i / 2n rounds
as 2 pi i / n), interleaved with the new ones.
"""

from __future__ import annotations

import math

import numpy as np

from .waveform import WaveformSpec, _fft_len, _harmonic_sum

M_CAP = 1 << 20
TOL = 1e-12


class TruncationFailure(RuntimeError):
    """Coefficient truncation could not meet tolerance within the M cap."""


def _initial_order(spec: WaveformSpec) -> int:
    L = spec.L
    return math.ceil(math.e * math.pi * spec.h * L * (L + 1) / 2.0) + 8


def compute_coefficients(spec: WaveformSpec) -> np.ndarray:
    """The read-only array c_{-M}..c_M at the smallest scheduled order M
    meeting TOL; M = len(c) // 2.

    TOL bounds two things at the returned order: the Parseval residual
    1 - sum_{|m|<=M} |c_m|^2, and the magnitude of the outermost
    coefficients c_{+-M}.  The energy residual alone saturates at
    the rounding floor of a 2M-term sum (~1e-15) while edge coefficients of
    ~1e-8 can still spoil pointwise resynthesis, so both are required; with
    the super-exponential decay beyond the initial order this keeps the
    resynthesized phase factor within about 10 * TOL everywhere.  Output is
    deterministic: fixed FFT sizes, fixed schedule.
    """
    M = _initial_order(spec)
    nfft = _fft_len(4 * (2 * M + 1))
    g = None
    while True:
        if M > M_CAP:
            raise TruncationFailure(
                f"truncation order {M} exceeds cap {M_CAP} before reaching tol {TOL}")
        odd = g is not None
        theta = 2.0 * np.pi * np.arange(int(odd), nfft, 1 + odd) / nfft
        new = np.exp(1j * (2.0 * np.pi * spec.h * _harmonic_sum(spec.code, theta)))
        g = np.stack([g, new], axis=1).ravel() if odd else new
        G = np.fft.fft(g)
        c = np.concatenate((G[-M:], G[:M + 1])) / nfft
        residual = 1.0 - np.sum(np.abs(c) ** 2)
        if residual < TOL and max(abs(c[0]), abs(c[-1])) <= TOL:
            c.setflags(write=False)
            return c
        M *= 2
        nfft *= 2

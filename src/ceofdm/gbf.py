"""Fourier coefficients of the periodic phase factor.

exp(j phi(t)) is T-periodic, so s(t) = rect(t/T)/sqrt(T) * sum_m c_m
exp(j 2 pi m t / T) with

    c_m = (1/2pi) int_0^{2pi} exp(j 2 pi h sum_l gamma_l cos(l theta + phi_l))
          exp(-j m theta) d theta.

For L = 1 these reduce to c_m = j^m exp(j m phi_1) J_m(2 pi h gamma_1) with
J_m the ordinary Bessel function (Jacobi-Anger); for L > 1 they are
generalized multi-tone analogues.  The engine computes them by FFT of the
uniformly sampled phase factor, which aliases coefficients at |m| > N_fft - M;
the FFT size is padded to at least 4 (2M + 1) so the aliased tail sits below
the truncation residual being measured.

Truncation order schedule: start at M0 = ceil(e pi h L (L+1) / 2) + 8 (a
safety factor of e/2 over the peak harmonic extent 2 pi h L(L+1)/2 of the
phase derivative), then double until the Parseval residual 1 - sum |c_m|^2
drops below TOL, failing at M > 2^20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .waveform import WaveformSpec, _harmonic_sum

M_CAP = 1 << 20
TOL = 1e-12


class TruncationFailure(RuntimeError):
    """Coefficient truncation could not meet tolerance within the M cap."""


@dataclass(frozen=True)
class GbfCoefficients:
    """Truncated coefficient block c_{-M}..c_M with its Parseval residual."""

    M: int
    c: np.ndarray
    residual: float

    def __post_init__(self):
        c = np.array(self.c, dtype=complex)
        if c.shape != (2 * self.M + 1,):
            raise ValueError("coefficient array must have length 2M + 1")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def m_index(self) -> np.ndarray:
        return np.arange(-self.M, self.M + 1)

    def coefficient(self, m: int) -> complex:
        if abs(m) > self.M:
            raise IndexError(f"m = {m} outside -{self.M}..{self.M}")
        return complex(self.c[self.M + m])


def _initial_order(spec: WaveformSpec) -> int:
    L = spec.L
    return math.ceil(math.e * math.pi * spec.h * L * (L + 1) / 2.0) + 8


def _coefficients_at_order(spec: WaveformSpec, M: int) -> tuple[np.ndarray, float]:
    nfft = 1
    while nfft < 4 * (2 * M + 1):
        nfft *= 2
    theta = 2.0 * np.pi * np.arange(nfft) / nfft
    g = np.exp(1j * (2.0 * np.pi * spec.h * _harmonic_sum(spec.code, theta)))
    G = np.fft.fft(g) / nfft
    m = np.arange(-M, M + 1)
    c = G[m % nfft]
    residual = float(1.0 - np.sum(np.abs(c) ** 2))
    return c, residual


def compute_coefficients(spec: WaveformSpec) -> GbfCoefficients:
    """Compute the coefficient block at the smallest scheduled order meeting TOL.

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
    while True:
        if M > M_CAP:
            raise TruncationFailure(
                f"truncation order {M} exceeds cap {M_CAP} before reaching tol {TOL}")
        c, residual = _coefficients_at_order(spec, M)
        edge = max(abs(c[0]), abs(c[-1]))
        if residual < TOL and edge <= TOL:
            return GbfCoefficients(M=M, c=c, residual=residual)
        M *= 2


def resynthesize(coeffs: GbfCoefficients, T: float, t) -> np.ndarray:
    """Evaluate sum_m c_m exp(j 2 pi m t / T) on the given times."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros(len(t), dtype=complex)
    m = coeffs.m_index
    # chunk over m to bound the (m, t) outer product
    step = max(1, (1 << 20) // max(len(t), 1))
    for i in range(0, len(m), step):
        blk = m[i:i + step]
        out += coeffs.c[i:i + step] @ np.exp(2j * np.pi * np.outer(blk, t) / T)
    return out


"""Closed-form spectrum, ambiguity function and autocorrelation.

With c_m the coefficients of the periodic phase factor (see gbf), the pulse is
s(t) = T^(-1/2) sum_m c_m exp(j 2 pi m t / T) on |t| <= T/2, so

    S(f) = sqrt(T) sum_m c_m sinc(T f - m),

where sinc x = sin(pi x) / (pi x).  With n = rint(T f) and r = T f - n, an
exact subtraction with |r| <= 1/2, every sine of the sum is one sine:
sin(pi (T f - m)) = (-1)^(n - m) sin(pi r), so

    S(f) = sqrt(T) (-1)^n sin(pi r) / pi  sum_m (-1)^m c_m / (T f - m).

That costs one sine per frequency and one reciprocal per (f, m) pair, and
the sine never sees an argument beyond pi / 2.  At r = 0 the prefactor and
the term m = n are 0 and 1/0; there sinc(n - m) is 1 at m = n and 0
elsewhere, so S = sqrt(T) c_n, or 0 when |n| > M.

Integrating each harmonic pair over the overlap of the two shifted pulses
gives, for 0 <= tau <= T and A = 1 - tau/T,

    chi(tau, nu) = A sum_{m,n} c_m conj(c_n) exp(-j pi (m + n) tau / T)
                   sinc(A x),   x = m - n + nu T,

with chi(-tau, -nu) = conj(chi(tau, nu)) and chi = 0 for |tau| >= T.  The
autocorrelation is R(tau) = chi(tau, 0).

The double sum is never evaluated pairwise.  Writing
A sinc(A x) = (exp(j pi A x) - exp(-j pi A x)) / (j 2 pi x) splits every term
with x != 0 into one exponential in tau carried by m and one carried by n:

    chi = exp(-j pi nu tau) sum_m u_m z_m - exp(j pi nu tau) sum_n v_n z_n
          + A sinc(A x0) exp(-j pi k0 tau / T) sum_n g_n z_n,

    z_m = exp(-j 2 pi m tau / T),
    u_m = c_m sum_n p_{m-n} conj(c_n),     p_k = exp(j pi x_k) / (j 2 pi x_k),
    v_n = conj(c_n) sum_m q_{m-n} c_m,     q_k = exp(-j pi x_k) / (j 2 pi x_k),
    g_n = c_{n+k0} conj(c_n),              x_k = k + nu T.

k0 is the lag nearest -nu T.  It is the one lag where x can vanish and the
two exponentials cancel, so it is left out of p and q and kept in the direct
sinc form; every other lag has |x_k| >= 1/2.  u and v are two convolutions
over the 4M + 1 lags, one FFT product each, so a Doppler costs O(M log M)
and every delay after that O(M).  Since q_k(nu) = -p_{-k}(-nu), both use
the same kernel.

At nu = 0, p_k = q_k = (-1)^k / (j 2 pi k), k0 = 0 and

    R(tau) = A sum_m |c_m|^2 z_m + sum_m (u_m - v_m) z_m.

On the grid tau_j = j T / N, z_m depends on m mod N alone, so after binning
the harmonics each sum is one length-N FFT.  The binning is exact for any N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gbf import GbfCoefficients, compute_coefficients
from .waveform import OutOfSupport, WaveformSpec

# af_surface works on blocks of _NU_BLOCK Dopplers, and spectrum and the
# delay sums on temporaries of at most _CHUNK elements, so memory stays
# bounded.
_NU_BLOCK = 64
_CHUNK = 1 << 20


@dataclass(frozen=True)
class SpectrumSamples:
    """Closed-form spectrum values S(f) on an explicit frequency grid."""

    f: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class AmbiguitySurface:
    """chi(tau, nu) on a delay/Doppler grid, row-major over tau."""

    tau: np.ndarray
    nu: np.ndarray
    chi: np.ndarray


def _resolve_coeffs(spec, coeffs):
    return compute_coefficients(spec) if coeffs is None else coeffs


def spectrum(spec: WaveformSpec, f_grid,
             coeffs: GbfCoefficients | None = None) -> SpectrumSamples:
    """Evaluate S(f) on f_grid (Hz)."""
    coeffs = _resolve_coeffs(spec, coeffs)
    f = np.atleast_1d(np.asarray(f_grid, dtype=float))
    m, M = coeffs.m_index, coeffs.M
    x = spec.T * f
    n = np.rint(x)
    r = x - n
    on = r == 0.0
    # (-1)^m c_m, split so that both sums are real matrix-vector products
    alt = np.where(m % 2, -coeffs.c, coeffs.c)
    scale = (np.sqrt(spec.T) / np.pi * np.where(n % 2, -1.0, 1.0)
             * np.sin(np.pi * r))
    # rows with r = 0 are set below; 0.5 keeps their reciprocals finite
    x = np.where(on, 0.5, x)
    vals = np.empty(len(f), dtype=complex)
    step = max(1, _CHUNK // len(m))
    for i in range(0, len(f), step):
        inv = np.subtract.outer(x[i:i + step], m)
        np.divide(1.0, inv, out=inv)
        vals.real[i:i + step] = scale[i:i + step] * (inv @ alt.real)
        vals.imag[i:i + step] = scale[i:i + step] * (inv @ alt.imag)
    n = n[on]
    c_n = coeffs.c[np.clip(n, -M, M).astype(int) + M]
    vals[on] = np.where(np.abs(n) <= M, np.sqrt(spec.T) * c_n, 0.0)
    return SpectrumSamples(f=f, values=vals)


def _lag_conv(d: np.ndarray, M: int, nuT: np.ndarray) -> np.ndarray:
    """sum_n p_{m-n} d_n for m = -M..M, one row per Doppler nu T.

    p_k = exp(j pi x) / (j 2 pi x), x = k + nu T, over k = -2M..2M with the
    lag nearest -nu T left out.  A circular length of at least 4M + 1 keeps
    the wrapped tail of the full convolution off the slice returned.
    """
    k = np.arange(-2 * M, 2 * M + 1)
    x = k + nuT[:, None]
    near = k == -np.rint(nuT)[:, None]
    x[near] = 1.0
    p = np.exp(1j * np.pi * x) / (2j * np.pi * x)
    p[near] = 0.0
    n = 1 << (4 * M).bit_length()
    full = np.fft.ifft(np.fft.fft(p, n) * np.fft.fft(d, n))
    return full[:, 2 * M:4 * M + 1]


def _harmonic_weights(c: np.ndarray, M: int, nuT: np.ndarray):
    """u, v, g and k0 of the module docstring, one row per Doppler nu T."""
    k0 = -np.rint(nuT)
    u = c * _lag_conv(np.conj(c), M, nuT)
    v = -np.conj(c) * _lag_conv(c, M, -nuT)
    src = np.arange(2 * M + 1) + k0.astype(int)[:, None]
    inside = (src >= 0) & (src <= 2 * M)
    g = np.where(inside, c[np.clip(src, 0, 2 * M)], 0.0) * np.conj(c)
    return u, v, g, k0


def _chi_causal(c: np.ndarray, M: int, s: np.ndarray,
                nuT: np.ndarray) -> np.ndarray:
    """chi at delays s = tau / T in [0, 1] and Dopplers nu T.

    Each delay sum is a pairwise sum over the harmonics of one row, so an
    entry does not depend on the rest of the grid: a single point equals the
    same point inside any surface, bit for bit.
    """
    u, v, g, k0 = _harmonic_weights(c, M, nuT)
    W = np.stack([u, v, g], axis=1).reshape(3 * len(nuT), 2 * M + 1)
    m = np.arange(-M, M + 1)
    S = np.empty((len(s), len(W)), dtype=complex)
    step = max(1, _CHUNK // W.size)
    for i in range(0, len(s), step):
        z = np.exp(-2j * np.pi * np.outer(s[i:i + step], m))
        S[i:i + step] = np.sum(z[:, None, :] * W, axis=2)
    S = S.reshape(len(s), len(nuT), 3)
    A = (1.0 - s)[:, None]
    chi = (np.exp(-1j * np.pi * np.outer(s, nuT)) * S[:, :, 0]
           - np.exp(1j * np.pi * np.outer(s, nuT)) * S[:, :, 1]
           + A * np.sinc(A * (k0 + nuT)) * np.exp(-1j * np.pi * np.outer(s, k0))
           * S[:, :, 2])
    chi[s >= 1.0] = 0.0
    return chi


def ambiguity(spec: WaveformSpec, tau: float, nu: float,
              coeffs: GbfCoefficients | None = None) -> complex:
    """chi(tau, nu) at a single delay/Doppler point.

    Raises OutOfSupport for |tau| > T; chi(+-T, nu) = 0 exactly.
    """
    surf = af_surface(spec, [tau], [nu], coeffs)
    return complex(surf.chi[0, 0])


def af_surface(spec: WaveformSpec, tau_grid, nu_grid,
               coeffs: GbfCoefficients | None = None) -> AmbiguitySurface:
    """chi on the outer product of tau_grid and nu_grid.

    Negative delays come from chi(tau, nu) = conj(chi(-tau, -nu)).  Every
    entry is computed with a fixed reduction order of its own, so the result
    is reproducible bit for bit across runs and across grid shapes.
    """
    coeffs = _resolve_coeffs(spec, coeffs)
    taus = np.atleast_1d(np.asarray(tau_grid, dtype=float))
    nus = np.atleast_1d(np.asarray(nu_grid, dtype=float))
    if np.any(np.abs(taus) > spec.T * (1.0 + 1e-12)):
        raise OutOfSupport("tau grid extends beyond the pulse length")
    s = taus / spec.T
    neg = s < 0
    chi = np.empty((len(taus), len(nus)), dtype=complex)
    for j in range(0, len(nus), _NU_BLOCK):
        nuT = nus[j:j + _NU_BLOCK] * spec.T
        if np.any(~neg):
            chi[~neg, j:j + _NU_BLOCK] = _chi_causal(coeffs.c, coeffs.M,
                                                     s[~neg], nuT)
        if np.any(neg):
            chi[neg, j:j + _NU_BLOCK] = np.conj(
                _chi_causal(coeffs.c, coeffs.M, -s[neg], -nuT))
    return AmbiguitySurface(tau=taus, nu=nus, chi=chi)


def acf_uniform(spec: WaveformSpec, n_tau: int = 4096,
                coeffs: GbfCoefficients | None = None):
    """R(tau) on the uniform grid tau_j = j T / n_tau, j = 0..n_tau.

    The grid includes tau = T, where R vanishes identically, and n_tau < 1
    raises ValueError.  Each harmonic sum is binned by m mod n_tau and
    evaluated with one length-n_tau FFT.

    Returns:
        (tau, R): arrays of length n_tau + 1.
    """
    if n_tau < 1:
        raise ValueError(f"n_tau must be at least 1, got {n_tau}")
    coeffs = _resolve_coeffs(spec, coeffs)
    u, v, g, _ = _harmonic_weights(coeffs.c, coeffs.M, np.zeros(1))
    bins = coeffs.m_index % n_tau

    def dft(w):
        folded = (np.bincount(bins, w.real, n_tau)
                  + 1j * np.bincount(bins, w.imag, n_tau))
        return np.fft.fft(folded)

    A = 1.0 - np.arange(n_tau) / n_tau
    body = A * dft(g[0]) + dft(u[0] - v[0])
    tau = np.arange(n_tau + 1) * (spec.T / n_tau)
    return tau, np.concatenate([body, [0.0]])

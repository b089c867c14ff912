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

af_surface takes the FFTs of c and conj(c) once per call and, for each
block of Dopplers, the kernel FFTs P(nu) and P(-nu) once each.  The
tau >= 0 rows use P(nu) for u and P(-nu) for v; the tau < 0 rows, found as
conj chi(-tau, -nu), use them the other way round.  g depends on nu only
through k0, so each half sums g once per distinct k0 of the Doppler grid
(21 for 64 Dopplers in +-10/T), while the sinc and phase factors stay per
Doppler.  The phasors z are computed once per call, and every delay sum
forms its products in one reused buffer.  A Doppler block's kernels and
that buffer hold _BLOCK complex elements each, or one kernel row if that is
longer, so beyond z and the output the working set does not grow with the
grid.

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

# af_surface builds the kernels of as many Dopplers at a time as fit in
# _BLOCK complex elements and forms the delay-sum products in one buffer of
# that size; spectrum forms its reciprocals in one buffer of as many reals,
# 2 * _BLOCK.
_BLOCK = 1 << 14


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
    """Evaluate S(f) on f_grid (Hz).

    The reciprocals are formed in one reused buffer of 2 * _BLOCK reals, or
    one row if that is longer, and each value is a sum over its own row in
    a fixed order.  So a single frequency equals its entry in any grid, bit
    for bit, whatever the buffer size or the machine's thread settings.
    """
    coeffs = _resolve_coeffs(spec, coeffs)
    f = np.atleast_1d(np.asarray(f_grid, dtype=float))
    m, M = coeffs.m_index, coeffs.M
    x = spec.T * f
    n = np.rint(x)
    r = x - n
    on = r == 0.0
    # (-1)^m c_m, split into contiguous real vectors, which take einsum's
    # vectorized loop
    alt = np.where(m % 2, -coeffs.c, coeffs.c)
    re, im = np.ascontiguousarray(alt.real), np.ascontiguousarray(alt.imag)
    scale = (np.sqrt(spec.T) / np.pi * np.where(n % 2, -1.0, 1.0)
             * np.sin(np.pi * r))
    # rows with r = 0 are set below; 0.5 keeps their reciprocals finite
    x = np.where(on, 0.5, x)
    vals = np.empty(len(f), dtype=complex)
    buf = np.empty(max(2 * _BLOCK, len(m)))
    # einsum sums a row longer than its iterator's 8192-element buffer in
    # pieces whose order depends on the other rows, so those go one by one
    step = len(buf) // len(m) if len(m) <= 8192 else 1
    for i in range(0, len(f), step):
        rows = x[i:i + step]
        inv = buf[:len(rows) * len(m)].reshape(len(rows), len(m))
        np.subtract.outer(rows, m, out=inv)
        np.divide(1.0, inv, out=inv)
        # einsum without optimize sums each row on its own, never in BLAS
        row_scale = scale[i:i + step]
        vals.real[i:i + step] = row_scale * np.einsum("ij,j->i", inv, re)
        vals.imag[i:i + step] = row_scale * np.einsum("ij,j->i", inv, im)
    n = n[on]
    c_n = coeffs.c[np.clip(n, -M, M).astype(int) + M]
    vals[on] = np.where(np.abs(n) <= M, np.sqrt(spec.T) * c_n, 0.0)
    return SpectrumSamples(f=f, values=vals)


def _kernel_fft(M: int, nuT: np.ndarray, size: int) -> np.ndarray:
    """Length-size FFT of p_k over k = -2M..2M, one row per Doppler nu T.

    p_k = exp(j pi x) / (j 2 pi x), x = k + nu T, with the lag nearest
    -nu T left out.  A size of at least 4M + 1 keeps the wrapped tail of
    the full convolution off the slice _lag_conv returns.
    """
    k = np.arange(-2 * M, 2 * M + 1)
    x = k + nuT[:, None]
    near = k == -np.rint(nuT)[:, None]
    x[near] = 1.0
    p = np.exp(1j * np.pi * x)
    p /= 2j * np.pi * x
    p[near] = 0.0
    return np.fft.fft(p, size)


def _lag_conv(P: np.ndarray, D: np.ndarray, M: int) -> np.ndarray:
    """sum_n p_{m-n} d_n for m = -M..M, from the FFTs P of p and D of d."""
    return np.fft.ifft(P * D)[:, 2 * M:4 * M + 1]


def _sinc_rows(c: np.ndarray, M: int, k0: np.ndarray) -> np.ndarray:
    """g_n = c_{n+k0} conj(c_n) of the module docstring, one row per k0."""
    src = np.arange(2 * M + 1) + k0.astype(int)[:, None]
    inside = (src >= 0) & (src <= 2 * M)
    return np.where(inside, c[np.clip(src, 0, 2 * M)], 0.0) * np.conj(c)


def _delay_sums(z: np.ndarray, W: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """sum_m z[i, m] W[r, m] for every delay row i and weight row r.

    The products go through buf, which must hold one row, in pieces of
    whole rows.  Each entry is a pairwise sum over one contiguous row, so it
    does not depend on the rest of the grid: a single point equals the same
    point inside any surface, bit for bit.
    """
    S = np.empty((len(z), len(W)), dtype=complex)
    n_w = min(len(W), len(buf) // W.shape[1])
    n_s = max(1, len(buf) // (n_w * W.shape[1]))
    for r in range(0, len(W), n_w):
        w = W[r:r + n_w]
        for i in range(0, len(z), n_s):
            zi = z[i:i + n_s]
            prod = buf[:len(zi) * w.size].reshape(len(zi), *w.shape)
            np.multiply(zi[:, None, :], w, out=prod)
            S[i:i + n_s, r:r + n_w] = prod.sum(axis=2)
    return S


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
    c, M = coeffs.c, coeffs.M
    m = np.arange(-M, M + 1)
    size = 1 << (4 * M).bit_length()
    F = np.fft.fft(c, size)
    F_conj = np.fft.fft(np.conj(c), size)
    block = max(1, _BLOCK // size)
    buf = np.empty(max(_BLOCK, size), dtype=complex)
    nuT_all = nus * spec.T
    s = taus / spec.T
    # The tau >= 0 rows are chi(s, nu T) and the tau < 0 rows
    # conj chi(-s, -nu T); each half keeps its phasors z and its sinc-term
    # sums over the distinct k0 of the whole Doppler grid.
    halves = []
    for rows, sign in ((np.flatnonzero(s >= 0), 1.0),
                       (np.flatnonzero(s < 0), -1.0)):
        if len(rows):
            s_h = s[rows] if sign > 0 else -s[rows]
            z = np.exp(-2j * np.pi * np.outer(s_h, m))
            k0s = np.unique(-np.rint(sign * nuT_all))
            halves.append((rows, sign, s_h, z, k0s,
                           _delay_sums(z, _sinc_rows(c, M, k0s), buf)))
    chi = np.empty((len(taus), len(nus)), dtype=complex)
    for j in range(0, len(nus), block):
        nuT = nuT_all[j:j + block]
        P_pos, P_neg = _kernel_fft(M, nuT, size), _kernel_fft(M, -nuT, size)
        for rows, sign, s_h, z, k0s, g_sums in halves:
            # u takes the kernel of the half's own Doppler, v the other one
            P, Q = (P_pos, P_neg) if sign > 0 else (P_neg, P_pos)
            nuT_h = sign * nuT
            u = c * _lag_conv(P, F_conj, M)
            v = -np.conj(c) * _lag_conv(Q, F, M)
            S = _delay_sums(z, np.concatenate([u, v]), buf)
            S_u, S_v = S[:, :len(nuT)], S[:, len(nuT):]
            k0 = -np.rint(nuT_h)
            A = (1.0 - s_h)[:, None]
            part = (np.exp(-1j * np.pi * np.outer(s_h, nuT_h)) * S_u
                    - np.exp(1j * np.pi * np.outer(s_h, nuT_h)) * S_v
                    + A * np.sinc(A * (k0 + nuT_h))
                    * np.exp(-1j * np.pi * np.outer(s_h, k0))
                    * g_sums[:, np.searchsorted(k0s, k0)])
            part[s_h >= 1.0] = 0.0
            chi[rows, j:j + block] = part if sign > 0 else np.conj(part)
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
    c, M = coeffs.c, coeffs.M
    size = 1 << (4 * M).bit_length()
    # at nu = 0 the kernels p and q are one array
    P = _kernel_fft(M, np.zeros(1), size)
    u = c * _lag_conv(P, np.fft.fft(np.conj(c), size), M)[0]
    v = -np.conj(c) * _lag_conv(P, np.fft.fft(c, size), M)[0]
    g = _sinc_rows(c, M, np.zeros(1))[0]
    bins = coeffs.m_index % n_tau

    def dft(w):
        folded = (np.bincount(bins, w.real, n_tau)
                  + 1j * np.bincount(bins, w.imag, n_tau))
        return np.fft.fft(folded)

    A = 1.0 - np.arange(n_tau) / n_tau
    body = A * dft(g) + dft(u - v)
    tau = np.arange(n_tau + 1) * (spec.T / n_tau)
    return tau, np.concatenate([body, [0.0]])

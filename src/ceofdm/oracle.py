"""Brute-force numeric cross-checks for the closed-form results.

Everything here works from the waveform definition alone: the phase series
and its derivative are evaluated analytically on quadrature grids and the
defining integrals are approximated by the composite Simpson rule (a
midpoint sum for the Fourier integral).  Nothing is shared with the
coefficient-series route, so agreement between the two is a genuine check.
Every function takes the node rate fs; the CLI uses oracle_fs.

Grid registration: the nodes over a window of width W are spaced W / N with
N = round(fs W), so the window is covered exactly.  Integrands that are
full-period trigonometric polynomials (the squared frequency deviation) are
then integrated to machine precision; odd moments carrying a bare t factor
converge as O(1/fs^4).  The ambiguity integrand at delay tau needs the phase
at t -/+ tau/2 on the overlap window's nodes t.  When fs T is a power of two
(as under oracle_fs) and tau is an even multiple of 1/fs, those shifted
nodes are a prefix and a suffix of the lattice -T/2 + j/fs over the whole
support, so af_numeric_grid evaluates the phase once on that lattice and
slices it.  A delay takes the slices only when its shifted nodes are
bitwise equal to them; any other delay evaluates the phase at its own
nodes, so the lattice never changes a result.

Simpson is waveform.simpson, the arithmetic of scipy.integrate.simpson
(including its Cartwright rule for an even node count) kept in-package.
"""

from __future__ import annotations

import math

import numpy as np

from .waveform import (TWO_PI, OutOfSupport, WaveformSpec, freq_mod_at,
                       oversample_floor, phase_at, simpson)

# _dft works on blocks of at most this many (frequency, node) pairs.
_DFT_CHUNK = 1 << 20


def oracle_fs(spec: WaveformSpec) -> float:
    """Quadrature rate: fs T is the power of two at or above both 8192 and
    twice the oversampling floor times T, so grids stay clean across reruns."""
    n = max(2.0 * oversample_floor(spec) * spec.T, 8192.0)
    return float(2 ** math.ceil(math.log2(n))) / spec.T


def _nodes(a: float, b: float, fs: float, midpoint: bool = False):
    """(t, d): n midpoints of spacing d = (b - a) / n, n = round(fs (b - a)),
    or by default the n + 1 Simpson nodes over [a, b] with n rounded up even."""
    if not (np.isfinite(fs) and fs > 0):
        raise ValueError(f"fs must be positive, got {fs}")
    width = b - a
    n = max(int(round(fs * width)), 4)
    if midpoint:
        d = width / n
        return a + (np.arange(n) + 0.5) * d, d
    if n % 2:
        n += 1
    return np.linspace(a, b, n + 1), width / n


def _integrate(y: np.ndarray, t: np.ndarray):
    if np.iscomplexobj(y):
        return simpson(y.real, t) + 1j * simpson(y.imag, t)
    return simpson(y, t)


def _dft(s: np.ndarray, t: np.ndarray, d: float, f) -> np.ndarray:
    """d sum_n s_n exp(-j 2 pi f t_n) at each frequency f: the Fourier
    integral of samples s on midpoint nodes t with spacing d."""
    out = np.empty(len(f), dtype=complex)
    step = max(1, _DFT_CHUNK // max(len(t), 1))
    for i in range(0, len(f), step):
        blk = f[i:i + step]
        out[i:i + step] = (np.exp(-2j * np.pi * blk[:, None] * t[None, :])
                           @ s) * d
    return out


def af_numeric(spec: WaveformSpec, tau: float, nu: float,
               fs: float) -> complex:
    """Ambiguity chi(tau, nu) by direct quadrature.

    Parameters
    ----------
    spec : WaveformSpec
    tau, nu : float
        Delay (s) and Doppler (Hz).  |tau| <= T required.
    fs : float
        Quadrature sample rate (Hz).

    Returns
    -------
    complex
        int s(t - tau/2) conj(s(t + tau/2)) exp(j 2 pi nu t) dt over the
        overlap window; exactly 0 when the pulses do not overlap.

    Notes
    -----
    The shifted waveform values are evaluated analytically at the quadrature
    nodes; no sample interpolation is involved.
    """
    return af_numeric_grid(spec, [tau], [nu], fs)[0, 0]


def af_numeric_grid(spec: WaveformSpec, taus, nus, fs: float) -> np.ndarray:
    """chi on the outer product of taus and nus; one quadrature grid per tau.

    The phase is evaluated at most once on the lattice of Simpson nodes over
    the whole support, and each delay whose shifted nodes t - tau/2 and
    t + tau/2 are bitwise equal to a prefix and a suffix of that lattice
    (swapped for tau < 0) reads its phases from it.  Any other delay
    evaluates the phase at its own shifted nodes, so every entry equals the
    direct two-evaluation quadrature bit for bit.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    nus = np.atleast_1d(np.asarray(nus, dtype=float))
    T = spec.T
    if np.any(np.abs(taus) > T * (1.0 + 1e-12)):
        raise OutOfSupport("tau grid extends beyond the pulse length")
    lattice, _ = _nodes(-T / 2.0, T / 2.0, fs)
    lattice_phase = None
    out = np.zeros((len(taus), len(nus)), dtype=complex)
    for i, tau in enumerate(taus):
        half = (T - abs(tau)) / 2.0
        if half <= 0.0:
            continue
        t, _ = _nodes(-half, half, fs)
        lo, hi = t - tau / 2.0, t + tau / 2.0
        head, tail = slice(0, len(t)), slice(len(lattice) - len(t), None)
        a, b = (head, tail) if tau >= 0.0 else (tail, head)
        if np.array_equal(lo, lattice[a]) and np.array_equal(hi, lattice[b]):
            if lattice_phase is None:
                lattice_phase = phase_at(spec, lattice)
            dphi = lattice_phase[a] - lattice_phase[b]
        else:
            dphi = phase_at(spec, lo) - phase_at(spec, hi)
        u = np.exp(1j * dphi) / T
        for j, nu in enumerate(nus):
            y = u * np.exp(2j * np.pi * nu * t)
            out[i, j] = _integrate(y, t)
    return out


def eoa_numeric(spec: WaveformSpec, fs: float) -> dict:
    """beta2, tau2 and rho on one Simpson grid, keyed as EoaParameters.as_dict.

    beta2 = (1/T) int phi'(t)^2 dt - | (1/T) int j phi'(t) dt |^2 (rad Hz)^2
    comes from the phase derivative on the full support, NOT from the second
    moment of |S(f)|^2, which the rect window's sinc tails make diverge.
    tau2 = 4 pi^2 int t^2 |s(t)|^2 dt (rad s)^2.  The coupling
    rho = -2 pi Im int t s(t) conj(s'(t)) dt reduces, with s' = j phi' s on
    the support and |s|^2 = 1/T, to (2 pi / T) int t phi'(t) dt.
    """
    T = spec.T
    t, _ = _nodes(-T / 2.0, T / 2.0, fs)
    pd = TWO_PI * freq_mod_at(spec, t)
    first = _integrate(pd ** 2, t) / T
    second = _integrate(pd, t) / T
    return {"beta2": float(first - second ** 2),
            "tau2": float(4.0 * np.pi ** 2 * _integrate(t ** 2 / T, t)),
            "rho": float((TWO_PI / T) * _integrate(t * pd, t))}


def spectrum_numeric(spec: WaveformSpec, fs: float, f_grid) -> np.ndarray:
    """S(f) by quadrature of the Fourier integral at each frequency of f_grid.

    Equivalent to an unboundedly zero-padded DFT of the sampled waveform:
    the transform of the midpoint-sampled pulse is evaluated directly at the
    requested frequencies, so no spectral interpolation is needed.
    """
    T = spec.T
    f = np.atleast_1d(np.asarray(f_grid, dtype=float))
    t, d = _nodes(-T / 2.0, T / 2.0, fs, midpoint=True)
    s = np.exp(1j * phase_at(spec, t)) / np.sqrt(T)
    return _dft(s, t, d, f)

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
converge as O(1/fs^4).

Simpson is waveform.simpson, the arithmetic of scipy.integrate.simpson
(including its Cartwright rule for an even node count) kept in-package.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_form import SpectrumSamples
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
    """chi on the outer product of taus and nus; one quadrature grid per tau."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    nus = np.atleast_1d(np.asarray(nus, dtype=float))
    T = spec.T
    if np.any(np.abs(taus) > T * (1.0 + 1e-12)):
        raise OutOfSupport("tau grid extends beyond the pulse length")
    out = np.zeros((len(taus), len(nus)), dtype=complex)
    for i, tau in enumerate(taus):
        half = (T - abs(tau)) / 2.0
        if half <= 0.0:
            continue
        t, _ = _nodes(-half, half, fs)
        u = np.exp(1j * (phase_at(spec, t - tau / 2.0)
                         - phase_at(spec, t + tau / 2.0))) / T
        for j, nu in enumerate(nus):
            y = u * np.exp(2j * np.pi * nu * t)
            out[i, j] = _integrate(y, t)
    return out


def rms_bandwidth_numeric(spec: WaveformSpec, fs: float) -> float:
    """beta_rms^2 from the phase derivative.

    (1/T) int phi'(t)^2 dt - | (1/T) int j phi'(t) dt |^2 in (rad Hz)^2.
    The integrands are evaluated on the full support; a frequency-domain
    second moment of |S(f)|^2 is NOT used because the rect window's sinc
    tails make that integral diverge.
    """
    T = spec.T
    t, _ = _nodes(-T / 2.0, T / 2.0, fs)
    pd = TWO_PI * freq_mod_at(spec, t)
    first = _integrate(pd ** 2, t) / T
    second = _integrate(pd, t) / T
    return float(first - second ** 2)


def rdcf_numeric(spec: WaveformSpec, fs: float) -> float:
    """Range-Doppler coupling factor rho = -2 pi Im int t s(t) conj(s'(t)) dt.

    With s' = j phi' s on the support and |s|^2 = 1/T this reduces to
    (2 pi / T) int t phi'(t) dt, which is what the quadrature evaluates.
    """
    T = spec.T
    t, _ = _nodes(-T / 2.0, T / 2.0, fs)
    pd = TWO_PI * freq_mod_at(spec, t)
    return float((TWO_PI / T) * _integrate(t * pd, t))


def rms_pulselength_numeric(spec: WaveformSpec, fs: float) -> float:
    """tau_rms^2 = 4 pi^2 int t^2 |s(t)|^2 dt (rad s)^2."""
    T = spec.T
    t, _ = _nodes(-T / 2.0, T / 2.0, fs)
    return float(4.0 * np.pi ** 2 * _integrate(t ** 2 / T, t))


def spectrum_numeric(spec: WaveformSpec, fs: float,
                     f_grid) -> SpectrumSamples:
    """S(f) by quadrature of the Fourier integral on an arbitrary grid.

    Equivalent to an unboundedly zero-padded DFT of the sampled waveform:
    the transform of the midpoint-sampled pulse is evaluated directly at the
    requested frequencies, so no spectral interpolation is needed.
    """
    T = spec.T
    f = np.atleast_1d(np.asarray(f_grid, dtype=float))
    t, d = _nodes(-T / 2.0, T / 2.0, fs, midpoint=True)
    s = np.exp(1j * phase_at(spec, t)) / np.sqrt(T)
    return SpectrumSamples(f=f, values=_dft(s, t, d, f))

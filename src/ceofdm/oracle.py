"""Brute-force numeric cross-checks for the closed-form results.

Everything here works from the waveform definition alone: the phase series
and its derivative are evaluated analytically on quadrature grids and the
defining integrals are approximated by composite midpoint or Simpson rules.
Nothing is shared with the coefficient-series route, so agreement between
the two is a genuine check.

Grid registration: a rule over a window of width W snaps its node spacing to
W / N with N = round(fs W), so the window is covered exactly.  Integrands
that are full-period trigonometric polynomials (the squared frequency
deviation) are then integrated to machine precision by either rule; odd
moments carrying a bare t factor converge at the polynomial rate of the rule
(O(1/fs^2) midpoint, O(1/fs^4) Simpson), so Simpson is the default.

Simpson is waveform.simpson, the arithmetic of scipy.integrate.simpson
(including its Cartwright rule for an even node count) kept in-package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import SpectrumSamples
from .waveform import (TWO_PI, OutOfSupport, WaveformSpec, freq_mod_at,
                       oversample_floor, phase_at, simpson, spec_digest)

QUAD_RULES = ("midpoint", "simpson")

# _dft works on blocks of at most this many (frequency, node) pairs.
_DFT_CHUNK = 1 << 20


@dataclass(frozen=True)
class OracleConfig:
    """Quadrature setup: sample rate and rule."""

    fs: float
    quad_rule: str = "simpson"

    def __post_init__(self):
        if self.quad_rule not in QUAD_RULES:
            raise ValueError(f"quad_rule must be one of {QUAD_RULES}")
        if not (np.isfinite(self.fs) and self.fs > 0):
            raise ValueError(f"fs must be positive, got {self.fs}")


def config_for(spec: WaveformSpec, oversample: float = 8.0,
               quad_rule: str = "simpson") -> OracleConfig:
    """OracleConfig at `oversample` times the oversampling floor."""
    return OracleConfig(fs=oversample * oversample_floor(spec), quad_rule=quad_rule)


def _nodes(a: float, b: float, fs: float, rule: str):
    """Quadrature nodes over [a, b] with spacing snapped to the window."""
    width = b - a
    n = max(int(round(fs * width)), 4)
    if rule == "midpoint":
        d = width / n
        return a + (np.arange(n) + 0.5) * d, d
    if n % 2:
        n += 1
    return np.linspace(a, b, n + 1), width / n


def _integrate(y: np.ndarray, t: np.ndarray, d: float, rule: str):
    if rule == "midpoint":
        return np.sum(y) * d
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
               cfg: OracleConfig) -> complex:
    """Ambiguity chi(tau, nu) by direct quadrature.

    Parameters
    ----------
    spec : WaveformSpec
    tau, nu : float
        Delay (s) and Doppler (Hz).  |tau| <= T required.
    cfg : OracleConfig

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
    return af_numeric_grid(spec, [tau], [nu], cfg)[0, 0]


def af_numeric_grid(spec: WaveformSpec, taus, nus, cfg: OracleConfig) -> np.ndarray:
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
        t, d = _nodes(-half, half, cfg.fs, cfg.quad_rule)
        u = np.exp(1j * (phase_at(spec, t - tau / 2.0)
                         - phase_at(spec, t + tau / 2.0))) / T
        for j, nu in enumerate(nus):
            y = u * np.exp(2j * np.pi * nu * t)
            out[i, j] = _integrate(y, t, d, cfg.quad_rule)
    return out


def rms_bandwidth_numeric(spec: WaveformSpec, cfg: OracleConfig) -> float:
    """beta_rms^2 from the phase derivative.

    (1/T) int phi'(t)^2 dt - | (1/T) int j phi'(t) dt |^2 in (rad Hz)^2.
    The integrands are evaluated on the full support; a frequency-domain
    second moment of |S(f)|^2 is NOT used because the rect window's sinc
    tails make that integral diverge.
    """
    T = spec.T
    t, d = _nodes(-T / 2.0, T / 2.0, cfg.fs, cfg.quad_rule)
    pd = TWO_PI * freq_mod_at(spec, t)
    first = _integrate(pd ** 2, t, d, cfg.quad_rule) / T
    second = _integrate(pd, t, d, cfg.quad_rule) / T
    return float(first - second ** 2)


def rdcf_numeric(spec: WaveformSpec, cfg: OracleConfig) -> float:
    """Range-Doppler coupling factor rho = -2 pi Im int t s(t) conj(s'(t)) dt.

    With s' = j phi' s on the support and |s|^2 = 1/T this reduces to
    (2 pi / T) int t phi'(t) dt, which is what the quadrature evaluates.
    """
    T = spec.T
    t, d = _nodes(-T / 2.0, T / 2.0, cfg.fs, cfg.quad_rule)
    pd = TWO_PI * freq_mod_at(spec, t)
    return float((TWO_PI / T) * _integrate(t * pd, t, d, cfg.quad_rule))


def rms_pulselength_numeric(spec: WaveformSpec, cfg: OracleConfig) -> float:
    """tau_rms^2 = 4 pi^2 int t^2 |s(t)|^2 dt (rad s)^2."""
    T = spec.T
    t, d = _nodes(-T / 2.0, T / 2.0, cfg.fs, cfg.quad_rule)
    return float(4.0 * np.pi ** 2 * _integrate(t ** 2 / T, t, d, cfg.quad_rule))


def spectrum_numeric(spec: WaveformSpec, cfg: OracleConfig,
                     f_grid) -> SpectrumSamples:
    """S(f) by quadrature of the Fourier integral on an arbitrary grid.

    Equivalent to an unboundedly zero-padded DFT of the sampled waveform:
    the transform of the midpoint-sampled pulse is evaluated directly at the
    requested frequencies, so no spectral interpolation is needed.
    """
    T = spec.T
    f = np.atleast_1d(np.asarray(f_grid, dtype=float))
    t, d = _nodes(-T / 2.0, T / 2.0, cfg.fs, "midpoint")
    s = np.exp(1j * phase_at(spec, t)) / np.sqrt(T)
    return SpectrumSamples(f=f, values=_dft(s, t, d, f),
                           spec_hash=spec_digest(spec))

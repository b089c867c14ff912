"""Constant-envelope OFDM waveform definitions and time-domain evaluation.

A waveform is a unit-energy rectangular pulse of duration T whose phase is a
finite harmonic series controlled by a PSK code:

    s(t) = rect(t/T) / sqrt(T) * exp(j phi(t)),
    phi(t) = 2 pi h * sum_{l=1..L} gamma_l cos(2 pi l t / T + phi_l),

with modulation index h, subcarrier count L, per-subcarrier amplitudes
gamma_l (unity for PSK codes) and phases phi_l.  The instantaneous frequency
deviation is

    m(t) = phi'(t) / (2 pi) = -(2 pi h / T) * sum_l l gamma_l sin(2 pi l t / T + phi_l).

Phases are stored in the canonical range (-pi, pi].  A complex symbol vector
c_{-L}..c_L maps onto (gamma_l, phi_l) through

    alpha_l = (c_l + c_{-l}) / 2,   beta_l = j (c_l - c_{-l}) / 2,
    gamma_l = sqrt(alpha_l^2 + beta_l^2),   phi_l = atan2(beta_l, alpha_l),

which requires alpha_l and beta_l to be real (conjugate-symmetric symbols).
Under this sign convention the amplitude-phase series reproduces the
half-normalized complex series evaluated with the conjugate exponential,
phi(t) = 2 pi h * Re sum_{l=1..L} c_l exp(-j 2 pi l t / T); the tests pin
that equivalence on a dense grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# Time points handed to phase_at/freq_mod_at may overshoot the support edge
# by rounding when callers build grids; allow that much and no more.
_EDGE_SLACK = 1e-12

# the largest imaginary residue code_from_symbols accepts in alpha_l, beta_l
_SYMBOL_TOL = 1e-10
# points per block in _harmonic_sum
_HARMONIC_CHUNK = 1 << 16


class ZeroDcViolation(ValueError):
    """Symbol vector carries a nonzero DC (l = 0) entry."""


class NonRealCoefficients(ValueError):
    """Symbol vector is not conjugate-symmetric enough to give real
    amplitude-phase coefficients."""


class OutOfSupport(ValueError):
    """Requested time lies outside the pulse support [-T/2, T/2]."""


class Undersampled(ValueError):
    """Requested sample rate falls below the oversampling floor."""


def wrap_phase(phi):
    """Wrap angles to the canonical storage range (-pi, pi]."""
    phi = np.asarray(phi, dtype=float)
    out = np.mod(phi, TWO_PI)
    out = np.where(out > np.pi, out - TWO_PI, out)
    return out


def simpson(y, x):
    """Composite Simpson integral of the samples y over the 1-d nodes x.

    The arithmetic is that of scipy.integrate.simpson, so results agree bit
    for bit: Simpson's rule for unequal spacings over each pair of
    intervals and, for an even number of samples, Cartwright's correction
    for the last interval (the trapezoid for two samples).  x must be
    strictly increasing.
    """
    y = np.asarray(y)
    x = np.asarray(x, dtype=float)
    n = len(y)
    h = np.diff(x)
    if n == 2:
        return 0.5 * h[-1] * (y[-1] + y[-2])
    stop = n - 2 if n % 2 else n - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    ratio = h0 / h1
    result = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / ratio)
                                  + y[1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                                  + y[2:stop + 2:2] * (2.0 - ratio)))
    if n % 2:
        return result
    # Length-1 slices, not scalars: a float64 scalar cube can round
    # differently from an array cube.
    a, b = h[-2:-1], h[-1:]
    alpha = (2 * b ** 2 + 3 * a * b) / (6 * (b + a))
    beta = (b ** 2 + 3.0 * a * b) / (6 * a)
    eta = (1 * b ** 3) / (6 * a * (a + b))
    return (result + (alpha * y[-1] + beta * y[-2] - eta * y[-3]))[0]


@dataclass(frozen=True)
class PskCode:
    """Per-subcarrier amplitudes and phases driving the phase series.

    Attributes:
        L: number of subcarriers (>= 1).
        gamma: amplitudes, shape (L,), nonnegative.
        phi: phases, shape (L,), wrapped to (-pi, pi] on construction.
        m_psk: alphabet size when the code came from PSK symbols, else None.
            When set, all amplitudes must be unity.
    """

    L: int
    gamma: np.ndarray
    phi: np.ndarray
    m_psk: int | None = None

    def __post_init__(self):
        gamma = np.array(self.gamma, dtype=float)
        phi = wrap_phase(np.array(self.phi, dtype=float))
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if gamma.shape != (self.L,) or phi.shape != (self.L,):
            raise ValueError("gamma and phi must both have shape (L,)")
        if not (np.all(np.isfinite(gamma)) and np.all(np.isfinite(phi))):
            raise ValueError("gamma and phi must be finite")
        if np.any(gamma < 0):
            raise ValueError("gamma must be nonnegative")
        if self.m_psk is not None:
            if self.m_psk < 2:
                raise ValueError(f"m_psk must be >= 2, got {self.m_psk}")
            if np.max(np.abs(gamma - 1.0)) > 1e-12:
                raise ValueError("PSK codes require unit amplitudes")
        gamma.setflags(write=False)
        phi.setflags(write=False)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True)
class WaveformSpec:
    """Full waveform description: duration T, modulation index h, code."""

    T: float
    h: float
    code: PskCode

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError(f"T must be positive, got {self.T}")
        # h = 0 is the degenerate constant-envelope carrier and is allowed.
        if not (np.isfinite(self.h) and self.h >= 0):
            raise ValueError(f"h must be nonnegative, got {self.h}")

    @property
    def L(self) -> int:
        return self.code.L


@dataclass(frozen=True)
class ComplexSymbolVector:
    """Symbols c_l, l = -L..L, stored as one array of length 2L + 1."""

    c: np.ndarray

    def __post_init__(self):
        c = np.array(self.c, dtype=complex)
        if c.ndim != 1 or len(c) < 3 or len(c) % 2 == 0:
            raise ValueError("symbol vector must be 1-d with odd length >= 3")
        L = (len(c) - 1) // 2
        if c[L] != 0:
            raise ZeroDcViolation(f"c_0 must be zero, got {c[L]}")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def L(self) -> int:
        return (len(self.c) - 1) // 2

    def symbol(self, l: int) -> complex:
        """Return c_l for l in -L..L."""
        if abs(l) > self.L:
            raise IndexError(f"symbol index {l} outside -{self.L}..{self.L}")
        return complex(self.c[self.L + l])


def code_from_symbols(symbols: ComplexSymbolVector) -> PskCode:
    """Convert a conjugate-symmetric symbol vector into a PskCode.

    Args:
        symbols: symbol vector with c_0 = 0.

    Returns:
        PskCode with gamma_l = |alpha_l + j beta_l| and
        phi_l = atan2(beta_l, alpha_l).

    Raises:
        NonRealCoefficients: if any alpha_l or beta_l has imaginary part
            larger than _SYMBOL_TOL in magnitude.
    """
    L = symbols.L
    pos = symbols.c[L + 1:]
    neg = symbols.c[L - 1::-1]
    alpha = (pos + neg) / 2.0
    beta = 1j * (pos - neg) / 2.0
    residue = max(np.max(np.abs(alpha.imag)), np.max(np.abs(beta.imag)))
    if residue > _SYMBOL_TOL:
        raise NonRealCoefficients(
            f"imaginary residue {residue:.3e} exceeds {_SYMBOL_TOL:.3e}")
    gamma = np.hypot(alpha.real, beta.real)
    phi = np.arctan2(beta.real, alpha.real)
    return PskCode(L=L, gamma=gamma, phi=phi)


def psk_alphabet(m_psk: int) -> np.ndarray:
    """Phase alphabet {2 pi k / M : k = 0..M-1} wrapped to (-pi, pi]."""
    if m_psk < 2:
        raise ValueError(f"m_psk must be >= 2, got {m_psk}")
    return wrap_phase(TWO_PI * np.arange(m_psk) / m_psk)


def random_psk_code(L: int, m_psk: int, seed: int) -> PskCode:
    """Draw a random PSK code reproducibly.

    The generator is numpy's default PCG64 seeded with `seed`; the L alphabet
    indices are drawn with a single integers(0, m_psk, size=L) call, so a
    given (L, m_psk, seed) triple always yields the same code.
    """
    rng = np.random.default_rng(seed)
    k = rng.integers(0, m_psk, size=L)
    phi = wrap_phase(TWO_PI * k / m_psk)
    return PskCode(L=L, gamma=np.ones(L), phi=phi, m_psk=m_psk)


def _harmonic_sum(code: PskCode, x, derivative: bool = False) -> np.ndarray:
    """sum_l gamma_l cos(l x + phi_l), or, with derivative=True, minus its
    x-derivative sum_l l gamma_l sin(l x + phi_l); evaluated in
    bounded-memory chunks."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ell = np.arange(1, code.L + 1, dtype=float)
    w, fn = (ell * code.gamma, np.sin) if derivative else (code.gamma, np.cos)
    out = np.empty_like(x)
    for i in range(0, len(x), _HARMONIC_CHUNK):
        blk = x[i:i + _HARMONIC_CHUNK]
        out[i:i + _HARMONIC_CHUNK] = np.sum(
            w[:, None] * fn(np.outer(ell, blk) + code.phi[:, None]), axis=0)
    return out


def _check_support(spec: WaveformSpec, t: np.ndarray):
    half = spec.T / 2.0
    bound = half * (1.0 + _EDGE_SLACK) + _EDGE_SLACK
    if np.any(np.abs(t) > bound):
        worst = float(np.max(np.abs(t)))
        raise OutOfSupport(f"|t| = {worst} exceeds support half-width {half}")


def phase_at(spec: WaveformSpec, t):
    """Phase phi(t) in radians at times t inside the support.

    Accepts a scalar or array; raises OutOfSupport when any |t| > T/2.
    """
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    _check_support(spec, arr)
    out = TWO_PI * spec.h * _harmonic_sum(spec.code, TWO_PI * arr / spec.T)
    return float(out[0]) if np.ndim(t) == 0 else out


def freq_mod_at(spec: WaveformSpec, t):
    """Instantaneous frequency deviation m(t) = phi'(t)/(2 pi) in Hz."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    _check_support(spec, arr)
    out = -(TWO_PI * spec.h / spec.T) * _harmonic_sum(
        spec.code, TWO_PI * arr / spec.T, derivative=True)
    return float(out[0]) if np.ndim(t) == 0 else out


def oversample_floor(spec: WaveformSpec) -> float:
    """Minimum admissible sample rate for sample().

    Eight times the peak instantaneous frequency deviation found on a dense
    4096-point grid, but never below 16 L / T.
    """
    n = 4096
    t = -spec.T / 2.0 + (np.arange(n) + 0.5) * (spec.T / n)
    peak = float(np.max(np.abs(freq_mod_at(spec, t))))
    return max(8.0 * peak, 16.0 * spec.L / spec.T)


def sample_times(spec: WaveformSpec, fs: float) -> np.ndarray:
    """Midpoint-registered sample instants t_n = -T/2 + (n + 1/2)/fs."""
    n = int(round(fs * spec.T))
    if n < 1:
        raise ValueError(f"fs {fs} yields no samples over T {spec.T}")
    return -spec.T / 2.0 + (np.arange(n) + 0.5) / fs


def sample(spec: WaveformSpec, fs: float) -> np.ndarray:
    """Complex baseband samples s(t_n) at rate fs.

    N = round(fs T) samples at t_n = -T/2 + (n + 1/2)/fs.  Every sample has
    modulus 1/sqrt(T), so sum |s_n|^2 / fs = N / (fs T); that equals 1 to
    rounding only when fs T is integral, which callers should prefer.

    Raises:
        Undersampled: if fs is below oversample_floor(spec).
    """
    floor = oversample_floor(spec)
    if fs < floor * (1.0 - 1e-12):
        raise Undersampled(f"fs {fs} below oversampling floor {floor}")
    t = sample_times(spec, fs)
    return np.exp(1j * phase_at(spec, t)) / np.sqrt(spec.T)


def spec_digest(spec: WaveformSpec) -> str:
    """Stable 16-hex-digit identifier of a WaveformSpec's numeric content."""
    # imported here: hashlib loads libcrypto, which no command needs
    import hashlib

    parts = [f"T={spec.T:.17g}", f"h={spec.h:.17g}", f"L={spec.L}"]
    parts.append("gamma=" + ",".join(f"{g:.17g}" for g in spec.code.gamma))
    parts.append("phi=" + ",".join(f"{p:.17g}" for p in spec.code.phi))
    parts.append(f"m_psk={spec.code.m_psk}")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]


def spec_to_dict(spec: WaveformSpec) -> dict:
    d = {
        "T": spec.T,
        "h": spec.h,
        "L": spec.L,
        "phi": [float(p) for p in spec.code.phi],
        "gamma": [float(g) for g in spec.code.gamma],
    }
    if spec.code.m_psk is not None:
        d["m_psk"] = spec.code.m_psk
    return d


def spec_from_dict(d: dict) -> WaveformSpec:
    L = int(d["L"])
    phi = np.asarray(d["phi"], dtype=float)
    gamma = np.asarray(d.get("gamma", np.ones(L)), dtype=float)
    code = PskCode(L=L, gamma=gamma, phi=phi, m_psk=d.get("m_psk"))
    return WaveformSpec(T=float(d["T"]), h=float(d["h"]), code=code)


def write_json(path, obj) -> None:
    """Write obj as JSON, indented by 2 with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_spec(spec: WaveformSpec, path) -> None:
    write_json(path, spec_to_dict(spec))


def load_spec(path) -> WaveformSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))

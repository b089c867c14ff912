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

# Grids and rates that callers build may miss an edge by rounding:
# OutOfSupport.check allows that much over a half-width, Undersampled.check
# that much under the floor, and no more.
_EDGE_SLACK = 1e-12

# the largest imaginary residue code_from_symbols accepts in alpha_l, beta_l
_SYMBOL_TOL = 1e-10


class ZeroDcViolation(ValueError):
    """Symbol vector carries a nonzero DC (l = 0) entry."""


class NonRealCoefficients(ValueError):
    """Symbol vector is not conjugate-symmetric enough to give real
    amplitude-phase coefficients."""


class OutOfSupport(ValueError):
    """A time outside the pulse's [-T/2, T/2], a delay outside [-T, T], a
    Doppler or frequency beyond CYCLES / T, or a value that is not finite."""

    # beyond this, nu T or f T keeps no fraction for the kernels' rint to see
    CYCLES = 2.0 ** 52

    @classmethod
    def check(cls, x, half: float, name: str) -> np.ndarray:
        """x as a float array of at least 1 dimension, once every |x| is finite
        and <= half (1 + _EDGE_SLACK)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        worst = np.max(np.abs(x), initial=0.0)
        if not np.isfinite(worst):
            raise cls(f"|{name}| = {worst} is not finite")
        if not worst <= half * (1.0 + _EDGE_SLACK):
            raise cls(f"|{name}| = {worst} exceeds support half-width {half}")
        return x


class Undersampled(ValueError):
    """A sample or node rate below oversample_floor, or not finite."""

    @classmethod
    def check(cls, spec: WaveformSpec, fs: float) -> float:
        """fs, once it is finite and >= oversample_floor(spec)."""
        floor = oversample_floor(spec)
        if not floor * (1.0 - _EDGE_SLACK) <= fs < np.inf:
            raise cls(f"fs {fs} not finite or below floor {floor}")
        return fs


def _count(n, low: int, name: str) -> int:
    """n as an int, if it is a Python or numpy integer >= low, not a bool;
    else raise."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {n!r}")
    return int(n)


def _fft_len(n: int) -> int:
    """The smallest power of two >= n, the one FFT length rule."""
    return 1 << (n - 1).bit_length()


def wrap_phase(phi):
    """Wrap angles to the canonical storage range (-pi, pi]."""
    phi = np.asarray(phi, dtype=float)
    out = np.mod(phi, TWO_PI)
    out = np.where(out > np.pi, out - TWO_PI, out)
    return out


def simpson(y, dx):
    """Composite Simpson integral of the samples y on nodes a step dx apart.

    An odd number of samples takes the arithmetic of scipy.integrate.simpson
    with dx=, so the two agree bit for bit.  An even number adds Cartwright's
    correction for the last interval, dx/12 (5 y[-1] + 8 y[-2] - y[-3]); two
    samples take the trapezoid.
    """
    y = np.asarray(y)
    n = len(y)
    if n == 2:
        return 0.5 * dx * (y[0] + y[1])
    k = n if n % 2 else n - 1
    result = np.sum(y[0:k - 2:2] + 4.0 * y[1:k - 1:2] + y[2:k:2]) * (dx / 3.0)
    if n % 2:
        return result
    return result + dx / 12.0 * (5.0 * y[-1] + 8.0 * y[-2] - y[-3])


@dataclass(frozen=True, eq=False)
class PskCode:
    """Per-subcarrier phases and amplitudes driving the phase series.

    Attributes:
        phi: phases, a non-empty 1-d array, wrapped to (-pi, pi] on
            construction; its length is the subcarrier count L.
        gamma: amplitudes of phi's shape, nonnegative; None (the default)
            means unit amplitudes.
        m_psk: alphabet size when the code came from PSK symbols, else None.
            When set, all amplitudes must be unity.
    """

    phi: np.ndarray
    gamma: np.ndarray | None = None
    m_psk: int | None = None

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float)
        gamma = (np.ones(phi.shape) if self.gamma is None
                 else np.array(self.gamma, dtype=float))
        if phi.ndim != 1 or phi.size == 0:
            raise ValueError("phi must be a non-empty 1-d array")
        if gamma.shape != phi.shape:
            raise ValueError("gamma must have the shape of phi")
        # checked before wrapping: np.mod warns on an infinite phase
        if not (np.all(np.isfinite(gamma)) and np.all(np.isfinite(phi))):
            raise ValueError("phi and gamma must be finite")
        if np.any(gamma < 0):
            raise ValueError("gamma must be nonnegative")
        if self.m_psk is not None:
            object.__setattr__(self, "m_psk", _count(self.m_psk, 2, "m_psk"))
            if np.max(np.abs(gamma - 1.0)) > 1e-12:
                raise ValueError("gamma must be all 1 when m_psk is set")
        phi = wrap_phase(phi)
        gamma.setflags(write=False)
        phi.setflags(write=False)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "phi", phi)

    @property
    def L(self) -> int:
        return len(self.phi)


@dataclass(frozen=True, eq=False)
class WaveformSpec:
    """Full waveform description: duration T, modulation index h, code."""

    T: float
    h: float
    code: PskCode

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError(f"T must be finite and positive, got {self.T}")
        # h = 0 is the degenerate constant-envelope carrier and is allowed.
        if not (np.isfinite(self.h) and self.h >= 0):
            raise ValueError(f"h must be finite and nonnegative, got {self.h}")

    @property
    def L(self) -> int:
        return self.code.L


@dataclass(frozen=True, eq=False)
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
    return PskCode(phi=phi, gamma=gamma)


def psk_alphabet(m_psk: int) -> np.ndarray:
    """Phase alphabet {2 pi k / M : k = 0..M-1} wrapped to (-pi, pi]."""
    m_psk = _count(m_psk, 2, "m_psk")
    return wrap_phase(TWO_PI * np.arange(m_psk) / m_psk)


def random_psk_code(L: int, m_psk: int, seed: int) -> PskCode:
    """Draw a random PSK code reproducibly.

    The generator is numpy's default PCG64 seeded with `seed`; the L indices
    into psk_alphabet(m_psk) are drawn with a single integers(0, m_psk,
    size=L) call, so a given (L, m_psk, seed) triple always yields the same
    code.
    """
    rng = np.random.default_rng(seed)
    phi = psk_alphabet(m_psk)[rng.integers(0, m_psk, size=_count(L, 1, "L"))]
    return PskCode(phi=phi, m_psk=m_psk)


def _harmonic_sum(code: PskCode, x, derivative: bool = False) -> np.ndarray:
    """sum_l gamma_l cos(l x + phi_l), or, with derivative=True, minus its
    x-derivative sum_l l gamma_l sin(l x + phi_l).  One harmonic at a time,
    in order of l: the temporaries are the size of x, and a point's value
    does not depend on the other points of x, a float array."""
    ell = np.arange(1, code.L + 1, dtype=float)
    w, fn = (ell * code.gamma, np.sin) if derivative else (code.gamma, np.cos)
    out = w[0] * fn(ell[0] * x + code.phi[0])
    for l in range(1, code.L):
        out += w[l] * fn(ell[l] * x + code.phi[l])
    return out


def phase_at(spec: WaveformSpec, t):
    """Phase phi(t) in radians at times t inside the support.

    Accepts a scalar or array; raises OutOfSupport unless every |t| <= T/2.
    """
    arr = OutOfSupport.check(t, spec.T / 2.0, "t")
    out = TWO_PI * spec.h * _harmonic_sum(spec.code, TWO_PI * arr / spec.T)
    return float(out[0]) if np.ndim(t) == 0 else out


def freq_mod_at(spec: WaveformSpec, t):
    """Instantaneous frequency deviation m(t) = phi'(t)/(2 pi) in Hz."""
    arr = OutOfSupport.check(t, spec.T / 2.0, "t")
    out = -(TWO_PI * spec.h / spec.T) * _harmonic_sum(
        spec.code, TWO_PI * arr / spec.T, derivative=True)
    return float(out[0]) if np.ndim(t) == 0 else out


def midpoints(T: float, n: int) -> tuple[np.ndarray, float]:
    """(t, d): the n midpoints t_k = -T/2 + (k + 1/2) d of [-T/2, T/2],
    spaced d = T / n."""
    d = T / n
    return -T / 2.0 + (np.arange(n) + 0.5) * d, d


def oversample_floor(spec: WaveformSpec) -> float:
    """Minimum admissible sample rate for sample().

    Eight times the peak instantaneous frequency deviation found on a dense
    4096-point grid, but never below 16 L / T.
    """
    t, _ = midpoints(spec.T, 4096)
    peak = float(np.max(np.abs(freq_mod_at(spec, t))))
    return max(8.0 * peak, 16.0 * spec.L / spec.T)


def sample(spec: WaveformSpec, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Complex baseband samples at rate fs: (t, s), t = midpoints(T, N) with
    N = round(fs T) and s = s(t), each of modulus 1/sqrt(T), so that
    sum |s_n|^2 T / N = 1 to rounding.

    Raises:
        Undersampled: unless fs is finite and >= oversample_floor(spec).
    """
    t, _ = midpoints(spec.T, round(Undersampled.check(spec, fs) * spec.T))
    return t, np.exp(1j * phase_at(spec, t)) / np.sqrt(spec.T)


def spec_digest(spec: WaveformSpec) -> str:
    """Stable 16-hex-digit identifier of a WaveformSpec's numeric content."""
    # imported here: hashlib loads libcrypto, which no command needs
    import hashlib

    parts = [f"T={spec.T:.17g}", f"h={spec.h:.17g}", f"L={spec.L}"]
    parts.append("gamma=" + ",".join(f"{g:.17g}" for g in spec.code.gamma))
    parts.append("phi=" + ",".join(f"{p:.17g}" for p in spec.code.phi))
    parts.append(f"m_psk={spec.code.m_psk}")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]


def write_json(path, obj) -> None:
    """Write obj as JSON, indented by 2 with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_spec(spec: WaveformSpec, path) -> None:
    d = {
        "T": spec.T,
        "h": spec.h,
        "L": spec.L,
        "phi": [float(p) for p in spec.code.phi],
        "gamma": [float(g) for g in spec.code.gamma],
    }
    if spec.code.m_psk is not None:
        d["m_psk"] = spec.code.m_psk
    write_json(path, d)


def load_spec(path) -> WaveformSpec:
    """The spec in a JSON object with T, h, L, phi and optionally gamma and
    m_psk, as save_spec writes it; L and m_psk must be JSON integers, and T,
    h, phi and gamma JSON numbers (phi and gamma lists of them), never
    booleans or strings.  L must be the length of phi, at least 1, and gamma,
    when given, of that length too.  A malformed file or a value out of
    range raises ValueError naming the file and the key."""
    with open(path) as fh:
        try:
            d = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not a JSON file ({exc})") from None
    if not isinstance(d, dict):
        raise ValueError(f"{path}: a spec is a JSON object with keys T, h, L "
                         "and phi")
    # gamma may be left out (unit amplitudes), but not set to null
    for key in ("T", "h", "L", "phi") + (("gamma",) if "gamma" in d else ()):
        if d.get(key) is None:
            raise ValueError(f"{path}: no value for key {key!r}")
    for key in ("L", "m_psk"):
        if d.get(key) is not None and type(d[key]) is not int:
            raise ValueError(f"{path}: key {key!r} must be a JSON integer, "
                             f"got {d[key]!r}")

    def is_number(v):
        # bool is a subclass of int, so the exact type is tested
        return type(v) in (int, float)

    def number(key):
        if not is_number(d[key]):
            raise ValueError(f"{path}: key {key!r} must be numeric, got "
                             f"{d[key]!r}")
        return float(d[key])

    def array(key):
        if type(d[key]) is not list or not all(map(is_number, d[key])):
            raise ValueError(f"{path}: key {key!r} must be a list of numbers, "
                             f"got {d[key]!r}")
        return np.asarray(d[key], dtype=float)

    gamma = array("gamma") if "gamma" in d else None
    T, h, phi = number("T"), number("h"), array("phi")
    if d["L"] < 1 or d["L"] != len(phi):
        raise ValueError(f"{path}: key 'L' must be >= 1 and equal the "
                         f"{len(phi)} phases of key 'phi', got {d['L']}")
    if gamma is not None and len(gamma) != len(phi):
        raise ValueError(f"{path}: key 'gamma' must hold one amplitude per "
                         f"phase of key 'phi' ({len(phi)}), got {len(gamma)}")
    try:
        return WaveformSpec(T, h, PskCode(phi, gamma, d.get("m_psk")))
    except ValueError as exc:  # a value out of range, named by its key
        raise ValueError(f"{path}: {exc}") from None

"""Mainlobe ellipse parameters: RMS bandwidth, RMS pulse length, coupling.

Near the origin the level sets of |chi|^2 are approximated by the ellipses
beta2 tau^2 - 2 rho tau nu + tau2 nu^2 = xi in the (tau, nu) plane of
af_surface, which shares |chi| with chi(tau, nu) = int u(t) conj(u(t + tau))
exp(j 2 pi nu t) dt (Levanon and Mozeson).  Here

    beta2 = (4 pi^4 h^2 / 3 T^2) (2 L^3 + 3 L^2 + L),
    tau2  = pi^2 T^2 / 3,
    rho   = 4 pi^2 h sum_l gamma_l (-1)^l cos(phi_l),

all for unit-amplitude codes in the beta2 case.  The normalized coupling
rho_norm = rho / sqrt(beta2 tau2) is bounded in magnitude by

    rho_norm_max(L) = (6 / pi) L / sqrt(2 L^3 + 3 L^2 + L),

attained by the alternating code phi_l = pi (l odd), 0 (l even), whose
coupling is rho = 4 pi^2 h L.  The spectrum centroid vanishes because the
frequency deviation integrates to zero over the pulse, so f0 = 0; the test
suite pins that against the numeric spectrum.

Matching a target time-bandwidth product: beta_rms = pi delta_f / sqrt(3)
gives h = T delta_f / (2 pi sqrt(2 L^3 + 3 L^2 + L)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .waveform import PskCode, WaveformSpec, wrap_phase


class DegenerateEllipse(ValueError):
    """|rho_norm| is so close to 1 that the contour collapses."""


def _poly(L: int) -> float:
    # 2 L^3 + 3 L^2 + L = L (L + 1) (2 L + 1)
    return float(2 * L ** 3 + 3 * L ** 2 + L)


@dataclass(frozen=True)
class EoaParameters:
    """Ellipse-of-ambiguity description of the mainlobe."""

    beta2: float
    tau2: float
    rho: float
    rho_norm: float
    f0: float = 0.0

    def as_dict(self) -> dict:
        return {"beta2": self.beta2, "tau2": self.tau2, "rho": self.rho,
                "rho_norm": self.rho_norm, "f0": self.f0}


def eoa_closed_form(spec: WaveformSpec) -> EoaParameters:
    """Closed-form mainlobe parameters for a waveform spec."""
    L, h, T = spec.L, spec.h, spec.T
    beta2 = (4.0 * np.pi ** 4 * h ** 2 / (3.0 * T ** 2)) * _poly(L)
    tau2 = np.pi ** 2 * T ** 2 / 3.0
    ell = np.arange(1, L + 1)
    rho = 4.0 * np.pi ** 2 * h * float(
        np.sum(spec.code.gamma * ((-1.0) ** ell) * np.cos(spec.code.phi)))
    denom = math.sqrt(beta2 * tau2)
    rho_norm = rho / denom if denom > 0 else 0.0
    return EoaParameters(beta2=float(beta2), tau2=float(tau2), rho=rho,
                         rho_norm=float(rho_norm))


def rho_norm_max(L: int) -> float:
    """Largest attainable |rho_norm| over unit-amplitude codes."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    return (6.0 / np.pi) * L / math.sqrt(_poly(L))


def max_coupling_code(L: int) -> PskCode:
    """Alternating binary code phi_l = pi (odd l), 0 (even l)."""
    phi = np.where(np.arange(1, L + 1) % 2 == 1, np.pi, 0.0)
    return PskCode(L=L, gamma=np.ones(L), phi=wrap_phase(phi), m_psk=2)


def h_for_tbp(T: float, delta_f: float, L: int) -> float:
    """Modulation index giving time-bandwidth product T delta_f.

    Inverts beta_rms = pi delta_f / sqrt(3) (the LFM-equivalent RMS
    bandwidth for sweep delta_f) at the given L.
    """
    if T <= 0 or delta_f <= 0 or L < 1:
        raise ValueError("T and delta_f must be positive and L >= 1")
    return T * delta_f / (2.0 * np.pi * math.sqrt(_poly(L)))


def ellipse_tilt(params: EoaParameters) -> float:
    """Rotation of the contour axes away from the (tau, nu) axes, radians.

    Zero for uncoupled waveforms and strictly increasing in magnitude with
    the coupling term at fixed beta2 and tau2.
    """
    return 0.5 * math.atan2(-2.0 * params.rho, params.beta2 - params.tau2)


def ellipse_contour(params: EoaParameters, xi: float,
                    n_points: int = 256) -> np.ndarray:
    """Points (tau, nu) on beta2 tau^2 - 2 rho tau nu + tau2 nu^2 = xi.

    Parameterized through the eigendecomposition of the quadratic form, so
    every returned point satisfies the equation to rounding.

    The contour follows a level set of |chi|^2 only while the time-bandwidth
    product is large.  At small TBP the rect envelope's cusp at tau = 0
    (|chi|^2 ~ 1 - 2 |tau| / T) dominates the quadratic term: for L = 1,
    h = 0.58, T = 1.79 (TBP about 9), |chi|^2 varies by 0.022 over 16
    points of the xi = 0.02 contour, as much as xi itself.

    Raises:
        DegenerateEllipse: when |rho_norm| >= 1 - 1e-9 and the form stops
            being positive definite to working precision.
    """
    if xi <= 0:
        raise ValueError(f"xi must be positive, got {xi}")
    if abs(params.rho_norm) >= 1.0 - 1e-9:
        raise DegenerateEllipse(
            f"|rho_norm| = {abs(params.rho_norm)} leaves no open ellipse")
    Q = np.array([[params.beta2, -params.rho], [-params.rho, params.tau2]])
    w, V = np.linalg.eigh(Q)
    if np.any(w <= 0):
        raise DegenerateEllipse("quadratic form is not positive definite")
    ang = 2.0 * np.pi * np.arange(n_points) / n_points
    unit = np.stack([np.cos(ang), np.sin(ang)])
    pts = V @ (unit * np.sqrt(xi / w)[:, None])
    return pts.T

"""Mainlobe ellipse parameters: RMS bandwidth, RMS pulse length, coupling.

Near the origin the level sets of |chi|^2 are approximated by the ellipses
beta2 tau^2 - 2 rho tau nu + tau2 nu^2 = xi in the (tau, nu) plane of
af_surface, which shares |chi| with chi(tau, nu) = int u(t) conj(u(t + tau))
exp(j 2 pi nu t) dt (Levanon and Mozeson).  Here

    beta2 = (4 pi^4 h^2 / 3 T^2) 6 sum_l l^2 gamma_l^2,
    tau2  = pi^2 T^2 / 3,
    rho   = 4 pi^2 h sum_l gamma_l (-1)^l cos(phi_l).

For unit-amplitude codes 6 sum_l l^2 = 2 L^3 + 3 L^2 + L, and over those
codes the normalized coupling rho_norm = rho / sqrt(beta2 tau2) is bounded
in magnitude by

    rho_norm_max(L) = (6 / pi) L / sqrt(2 L^3 + 3 L^2 + L),

attained by the alternating code phi_l = pi (l odd), 0 (l even), whose
coupling is rho = 4 pi^2 h L.  The spectrum centroid vanishes because the
frequency deviation integrates to zero over the pulse, so f0 = 0; the test
suite pins that against the numeric spectrum.

Matching a target time-bandwidth product tbp = T delta_f: beta_rms =
pi delta_f / sqrt(3) gives h = tbp / (2 pi sqrt(2 L^3 + 3 L^2 + L)), which
depends on the product alone, not on T.
"""

from __future__ import annotations

import math

import numpy as np

from .waveform import PskCode, WaveformSpec, _count


class DegenerateEllipse(ValueError):
    """|rho_norm| is so close to 1 that the contour collapses."""


def _poly(L: int) -> float:
    # 2 L^3 + 3 L^2 + L = L (L + 1) (2 L + 1)
    return float(2 * L ** 3 + 3 * L ** 2 + L)


def eoa_closed_form(spec: WaveformSpec) -> dict:
    """Closed-form mainlobe parameters of a waveform spec: the dict of
    beta2, tau2, rho, rho_norm and the centroid f0 that eoa.json holds."""
    L, h, T = spec.L, spec.h, spec.T
    ell = np.arange(1, L + 1)
    # 6 sum l^2 gamma^2 is _poly(L) exactly for unit amplitudes
    beta2 = (4.0 * np.pi ** 4 * h ** 2 / (3.0 * T ** 2)) * (
        6.0 * float(np.sum(ell ** 2 * spec.code.gamma ** 2)))
    tau2 = np.pi ** 2 * T ** 2 / 3.0
    rho = 4.0 * np.pi ** 2 * h * float(
        np.sum(spec.code.gamma * ((-1.0) ** ell) * np.cos(spec.code.phi)))
    denom = math.sqrt(beta2 * tau2)
    rho_norm = rho / denom if denom > 0 else 0.0
    return {"beta2": float(beta2), "tau2": float(tau2), "rho": rho,
            "rho_norm": float(rho_norm), "f0": 0.0}


def rho_norm_max(L: int) -> float:
    """Largest attainable |rho_norm| over unit-amplitude codes."""
    L = _count(L, 1, "L")
    return (6.0 / np.pi) * L / math.sqrt(_poly(L))


def max_coupling_code(L: int) -> PskCode:
    """Alternating binary code phi_l = pi (odd l), 0 (even l)."""
    phi = np.where(np.arange(1, _count(L, 1, "L") + 1) % 2, np.pi, 0.0)
    return PskCode(phi=phi, m_psk=2)


def h_for_tbp(tbp: float, L: int) -> float:
    """Modulation index giving time-bandwidth product tbp = T delta_f.

    Inverts beta_rms = pi delta_f / sqrt(3) (the LFM-equivalent RMS
    bandwidth for sweep delta_f) at the given L; T cancels.
    """
    if not 0 < tbp < np.inf:  # NaN fails too
        raise ValueError(f"tbp must be finite and positive, got {tbp}")
    return tbp / (2.0 * np.pi * math.sqrt(_poly(_count(L, 1, "L"))))


def ellipse_tilt(params: dict) -> float:
    """Rotation of the contour axes away from the (tau, nu) axes, radians.

    Zero for uncoupled waveforms and strictly increasing in magnitude with
    the coupling term at fixed beta2 and tau2.
    """
    return 0.5 * math.atan2(-2.0 * params["rho"],
                            params["beta2"] - params["tau2"])


def ellipse_contour(params: dict, xi: float,
                    n_points: int = 256) -> np.ndarray:
    """Points (tau, nu) on beta2 tau^2 - 2 rho tau nu + tau2 nu^2 = xi.

    Parameterized by completing the square, beta2 (tau - rho nu / beta2)^2
    + (D / beta2) nu^2 = xi with D = beta2 tau2 - rho^2, so every returned
    point satisfies the equation to rounding at any T.  A rotation by
    ellipse_tilt's angle does not once beta2 / tau2 spans many decades.

    The contour follows a level set of |chi|^2 only while the time-bandwidth
    product is large.  At small TBP the rect envelope's cusp at tau = 0
    (|chi|^2 ~ 1 - 2 |tau| / T) dominates the quadratic term: for L = 1,
    h = 0.58, T = 1.79 (TBP about 9), |chi|^2 varies by 0.022 over 16
    points of the xi = 0.02 contour, as much as xi itself.

    Raises:
        DegenerateEllipse: when |rho_norm| >= 1 - 1e-9 or beta2 = 0 (h = 0),
            and the form stops being positive definite to working precision.
    """
    if not 0 < xi < np.inf:  # NaN fails too
        raise ValueError(f"xi must be finite and positive, got {xi}")
    beta2, rho = params["beta2"], params["rho"]
    det = beta2 * params["tau2"] - rho ** 2
    rho_norm = abs(params["rho_norm"])
    if not (rho_norm < 1.0 - 1e-9 and beta2 > 0.0 and det > 0.0):
        raise DegenerateEllipse(
            f"|rho_norm| = {rho_norm}, beta2 = {beta2}: no open ellipse")
    n_points = _count(n_points, 1, "n_points")
    ang = 2.0 * np.pi * np.arange(n_points) / n_points
    nu = math.sqrt(xi * beta2 / det) * np.sin(ang)
    tau = math.sqrt(xi / beta2) * np.cos(ang) + (rho / beta2) * nu
    return np.stack([tau, nu], axis=1)

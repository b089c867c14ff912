"""Autocorrelation sidelobe metrics and the two-subcarrier phase scan.

The mainlobe boundary delta_tau is the first local minimum of |R(tau)|^2 for
tau > 0, refined by a three-point parabola through the neighboring samples.
A monotone |R|^2 (for example the h = 0 triangle) has no null; delta_tau then
falls back to T, PSLR reads the -300 dB floor because no sample lies beyond
it, and the report is flagged so that value is recognizable as degenerate
rather than trusted.

PSLR is the largest sampled |R|^2 at or beyond delta_tau (the mainlobe peak
is |R(0)|^2 = 1).  ISL is the sidelobe-to-mainlobe energy ratio with both
areas taken by composite Simpson on the stored grid, split at the grid node
nearest the refined null.  Simpson is waveform.simpson, which reproduces
scipy.integrate.simpson bit for bit, including its Cartwright correction of
the last interval when a part has an even number of nodes.  Ratios of zero
are floored at -300 dB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import acf_uniform
from .waveform import PskCode, WaveformSpec, simpson, wrap_phase

DB_FLOOR = -300.0


@dataclass(frozen=True)
class SidelobeReport:
    """Mainlobe null and sidelobe metrics of one sampled ACF."""

    delta_tau: float
    pslr_db: float
    isl_db: float
    null_found: bool = True


def mainlobe_null(tau_grid, acf_abs2) -> tuple[float, bool]:
    """First local minimum of |R|^2 for tau > 0, parabolically refined.

    Returns (delta_tau, found).  Without any interior local minimum the
    full pulse length is returned with found = False.  Ties break toward
    the smallest tau because the scan runs in ascending order.
    """
    tau = np.asarray(tau_grid, dtype=float)
    y = np.asarray(acf_abs2, dtype=float)
    if len(tau) < 3:
        raise ValueError("need at least 3 grid points")
    interior = np.flatnonzero((y[1:-1] < y[:-2]) & (y[1:-1] <= y[2:])) + 1
    interior = interior[tau[interior] > 0]
    if len(interior) == 0:
        return float(tau[-1]), False
    i = int(interior[0])
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom > 0:
        shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
        shift = float(np.clip(shift, -0.5, 0.5))
    else:
        shift = 0.0
    step = tau[i + 1] - tau[i]
    return float(tau[i] + shift * step), True


def pslr(tau_grid, acf_abs2, delta_tau: float) -> float:
    """Peak sidelobe level in dB relative to |R(0)|^2 = 1."""
    tau = np.asarray(tau_grid, dtype=float)
    y = np.asarray(acf_abs2, dtype=float)
    mask = tau >= delta_tau
    if not np.any(mask):
        return DB_FLOOR
    peak = float(np.max(y[mask]))
    return 10.0 * np.log10(max(peak, 10.0 ** (DB_FLOOR / 10.0)))


def isl(tau_grid, acf_abs2, delta_tau: float) -> float:
    """Integrated sidelobe-to-mainlobe energy ratio in dB."""
    tau = np.asarray(tau_grid, dtype=float)
    y = np.asarray(acf_abs2, dtype=float)
    split = int(np.argmin(np.abs(tau - delta_tau)))
    split = min(max(split, 1), len(tau) - 2)
    main = float(simpson(y[:split + 1], tau[:split + 1]))
    side = float(simpson(y[split:], tau[split:]))
    floor = 10.0 ** (DB_FLOOR / 10.0)
    return 10.0 * np.log10(max(side, floor * main) / main)


def report_from_acf(tau_grid, acf_values) -> SidelobeReport:
    """Metrics from a precomputed ACF R, complex or real; they use |R|^2."""
    y = np.abs(np.asarray(acf_values)) ** 2
    dt, found = mainlobe_null(tau_grid, y)
    return SidelobeReport(delta_tau=dt,
                          pslr_db=pslr(tau_grid, y, dt),
                          isl_db=isl(tau_grid, y, dt),
                          null_found=found)


def sidelobe_report(spec: WaveformSpec, n_tau: int = 4096) -> SidelobeReport:
    """Closed-form ACF on the default uniform grid, then metrics."""
    tau, R = acf_uniform(spec, n_tau=n_tau)
    return report_from_acf(tau, R)


@dataclass(frozen=True)
class MetricSurface:
    """ISL and PSLR over a two-subcarrier phase grid."""

    phi1: np.ndarray
    phi2: np.ndarray
    isl_db: np.ndarray
    pslr_db: np.ndarray


def metric_surface(T: float, h: float, grid_n: int,
                   n_tau: int = 4096) -> MetricSurface:
    """Scan ISL and PSLR over (phi_1, phi_2) in [-pi, pi)^2 for L = 2.

    The grid is uniform and endpoint-exclusive, phi_i = -pi + 2 pi k / grid_n,
    which is closed under phase negation modulo 2 pi; the scan order (and the
    output layout) is row-major in (phi_1, phi_2).
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    phis = -np.pi + 2.0 * np.pi * np.arange(grid_n) / grid_n
    isl_db = np.empty((grid_n, grid_n))
    pslr_db = np.empty((grid_n, grid_n))
    for i, p1 in enumerate(phis):
        for j, p2 in enumerate(phis):
            code = PskCode(L=2, gamma=np.ones(2),
                           phi=wrap_phase(np.array([p1, p2])))
            rep = sidelobe_report(WaveformSpec(T=T, h=h, code=code),
                                  n_tau=n_tau)
            isl_db[i, j], pslr_db[i, j] = rep.isl_db, rep.pslr_db
    return MetricSurface(phi1=phis, phi2=phis, isl_db=isl_db, pslr_db=pslr_db)

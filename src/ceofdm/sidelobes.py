"""Autocorrelation sidelobe metrics and the scan over a grid of PSK codes.

The mainlobe boundary delta_tau is the first local minimum of |R(tau)|^2 for
tau > 0, refined by a three-point parabola through the neighboring samples.
A monotone |R|^2 (for example the h = 0 triangle) has no null; delta_tau then
falls back to T, PSLR and ISL read the -300 dB floor because no sample lies
beyond it, and the report is flagged so those values are recognizable as
degenerate rather than trusted.

PSLR is the largest sampled |R|^2 at or beyond delta_tau (the mainlobe peak
is |R(0)|^2 = 1).  ISL is the sidelobe-to-mainlobe energy ratio with both
areas taken by composite Simpson on the stored grid, split at the grid node
nearest the refined null.  Simpson is waveform.simpson, which reproduces
scipy.integrate.simpson bit for bit, including its Cartwright correction of
the last interval when a part has an even number of nodes.  Ratios of zero
are floored at -300 dB.
"""

from __future__ import annotations

import numpy as np

from .closed_form import acf_uniform
from .gbf import compute_coefficients
from .waveform import PskCode, WaveformSpec, simpson

DB_FLOOR = -300.0


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
    if delta_tau >= tau[-1]:
        return DB_FLOOR
    split = int(np.argmin(np.abs(tau - delta_tau)))
    split = min(max(split, 1), len(tau) - 2)
    main = float(simpson(y[:split + 1], tau[:split + 1]))
    side = float(simpson(y[split:], tau[split:]))
    floor = 10.0 ** (DB_FLOOR / 10.0)
    return 10.0 * np.log10(max(side, floor * main) / main)


def report_from_acf(tau_grid, acf_values) -> dict:
    """Metrics from a precomputed ACF R, complex or real; they use |R|^2.
    Returns the dict sidelobes.json holds less its grid keys: delta_tau,
    pslr_db, isl_db and null_found."""
    y = np.abs(np.asarray(acf_values)) ** 2
    dt, found = mainlobe_null(tau_grid, y)
    return {"delta_tau": dt, "pslr_db": pslr(tau_grid, y, dt),
            "isl_db": isl(tau_grid, y, dt), "null_found": found}


def metric_surface(h: float, grid_n: int, n_tau: int = 4096, *, L: int = 2):
    """ISL and PSLR of every code of L phases from the uniform grid
    phi = -pi + 2 pi k / grid_n at T = 1, which serves any T: both are
    dimensionless and h does not depend on T.  The grid is the grid_n-PSK
    alphabet, turned by pi for odd grid_n (which leaves |R| unchanged), and
    is closed under phase negation mod 2 pi.  Returns (phis, isl_db,
    pslr_db): the grid and two arrays of shape (grid_n,) * L, computed in C
    order, whose entry [k_1, ..., k_L] is the code phis[[k_1, ..., k_L]].
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    phis = -np.pi + 2.0 * np.pi * np.arange(grid_n) / grid_n
    isl_db = np.empty((grid_n,) * L)
    pslr_db = np.empty((grid_n,) * L)
    for idx in np.ndindex(isl_db.shape):
        code = PskCode(phi=phis[list(idx)])
        c = compute_coefficients(WaveformSpec(T=1.0, h=h, code=code))
        rep = report_from_acf(*acf_uniform(c, 1.0, n_tau))
        isl_db[idx], pslr_db[idx] = rep["isl_db"], rep["pslr_db"]
    return phis, isl_db, pslr_db

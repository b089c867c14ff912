"""Autocorrelation sidelobe metrics and the scan over a grid of PSK codes.

report_from_acf is the one sidelobe report: it squares |R| once and reads
the mainlobe null, PSLR and ISL off that one array.  The mainlobe boundary
delta_tau is the first interior local minimum of |R(tau)|^2 for tau > 0,
refined by a three-point parabola through the neighboring samples; the
shift is clipped to half a grid step either way.  A sample counts as a
minimum when it lies below its left neighbor and at most at its right one,
so ties break toward the smallest tau: a flat bottom of two equal samples is
found at its first node, and the parabola through it then moves delta_tau
half a step, to the middle of the two.  A monotone |R|^2 (for example the
h = 0 triangle) has no null; delta_tau then falls back to the last delay, ISL
reads the -300 dB floor, and so does PSLR when R vanishes there, as it does
at tau = T on every acf_uniform grid.  The report is flagged so those values
are recognizable as degenerate rather than trusted.

PSLR is the largest sampled |R|^2 at or beyond delta_tau (the mainlobe peak
is |R(0)|^2 = 1).  ISL is the sidelobe-to-mainlobe energy ratio with both
areas taken by waveform.simpson, the uniform-step Simpson rule, on the
stored grid, split at the interior grid node nearest the refined null; a
part with an even number of nodes takes Cartwright's correction of its last
interval.  Ratios of zero are floored at -300 dB.

metric_surface scans codes by time-shift orbit.  Substituting theta ->
theta + a in gbf's integral shows that the code phi_l + l a has the
coefficients exp(j m a) c_m.  On the scan's grid, a = 2 pi j / N maps code
k to k + j (1, ..., L) mod N, so the N^L codes fall into N^(L-1) orbits,
one per code with k_1 = 0, whose codes share |c| and M.  The engine runs
once per orbit, but every code gets its own ACF and report: the pulse
window cuts each shifted phase elsewhere, so R differs along an orbit.
"""

from __future__ import annotations

import numpy as np

from .closed_form import acf_uniform
from .gbf import compute_coefficients
from .waveform import PskCode, WaveformSpec, _count, simpson

DB_FLOOR = -300.0


def report_from_acf(tau_grid, acf_values) -> dict:
    """The sidelobe report of an ACF R sampled on an ascending, uniform
    delay grid of at least 3 points, as acf_uniform returns it; R may be
    complex or real, and the metrics use |R|^2.  Returns the dict
    sidelobes.json holds: delta_tau, pslr_db, isl_db, null_found, n_tau (the
    number of delay steps) and tau_max (the last delay)."""
    tau = np.asarray(tau_grid, dtype=float)
    y = np.asarray(np.abs(acf_values) ** 2, dtype=float)
    if len(tau) < 3:
        raise ValueError("need at least 3 grid points")

    minima = np.flatnonzero((y[1:-1] < y[:-2]) & (y[1:-1] <= y[2:])) + 1
    minima = minima[tau[minima] > 0]
    found = len(minima) > 0
    if found:
        i = int(minima[0])
        denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
        shift = 0.0
        if denom > 0:
            shift = float(np.clip(0.5 * (y[i - 1] - y[i + 1]) / denom,
                                  -0.5, 0.5))
        delta_tau = float(tau[i] + shift * (tau[i + 1] - tau[i]))
    else:
        delta_tau = float(tau[-1])

    # delta_tau <= tau[-1], so at least the last sample lies beyond it
    floor = 10.0 ** (DB_FLOOR / 10.0)
    peak = float(np.max(y[tau >= delta_tau]))
    pslr_db = 10.0 * np.log10(max(peak, floor))

    if delta_tau >= tau[-1]:
        isl_db = DB_FLOOR
    else:
        split = int(np.argmin(np.abs(tau - delta_tau)))
        split = min(max(split, 1), len(tau) - 2)
        # both areas share one step, which cancels in their ratio
        main = float(simpson(y[:split + 1], 1.0))
        side = float(simpson(y[split:], 1.0))
        isl_db = 10.0 * np.log10(max(side, floor * main) / main)

    return {"delta_tau": delta_tau, "pslr_db": pslr_db, "isl_db": isl_db,
            "null_found": found, "n_tau": len(tau) - 1,
            "tau_max": float(tau[-1])}


def metric_surface(h: float, grid_n: int, n_tau: int | None = None, *,
                   L: int = 2):
    """ISL and PSLR of every code of L phases from the uniform grid
    phi = -pi + 2 pi k / grid_n at T = 1, which serves any T: both are
    dimensionless and h does not depend on T.  The grid is the grid_n-PSK
    alphabet, turned by pi for odd grid_n (which leaves |R| unchanged), and
    is closed under phase negation mod 2 pi.  Returns (phis, isl_db,
    pslr_db): the grid and two C-order arrays of shape (grid_n,) * L, filled
    orbit by orbit, whose entry [k_1, ..., k_L] is the code phis[[k_1, ...,
    k_L]].  n_tau=None takes acf_uniform's grid for each code's M.
    """
    grid_n, L = _count(grid_n, 2, "grid_n"), _count(L, 1, "L")
    phis = -np.pi + 2.0 * np.pi * np.arange(grid_n) / grid_n
    omega = np.exp(2j * np.pi * np.arange(grid_n) / grid_n)
    ramp = np.arange(1, L + 1)
    isl_db, pslr_db = np.empty((2,) + (grid_n,) * L)
    for rep in np.ndindex((1,) + (grid_n,) * (L - 1)):
        code = PskCode(phi=phis[list(rep)])
        c = compute_coefficients(WaveformSpec(T=1.0, h=h, code=code))
        m = np.arange(len(c)) - len(c) // 2
        for j in range(grid_n):
            idx = tuple((rep + j * ramp) % grid_n)
            r = report_from_acf(*acf_uniform(c * omega[m * j % grid_n], 1.0,
                                             n_tau))
            isl_db[idx], pslr_db[idx] = r["isl_db"], r["pslr_db"]
    return phis, isl_db, pslr_db

"""Output gate: checks every data file a command wrote.

The bounds are the ones the acceptance suite already publishes (criteria 03,
04, 07 and 10) plus the identities the README states for the ACF and the
coefficients.  A check returns a list of failure messages; an empty list
means the outputs are correct.  Failures are counted, never raised, so one
bad output does not abort a run.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Files each command must leave in its --out directory.
EXPECTED = {
    "gen": ("spec.json", "samples.csv"),
    "analyze": ("coefficients.csv",),
    "validate": ("coefficients.csv", "acf.csv", "oracle_eoa.json"),
    "compare_lfm": ("ce_spectrum.csv", "lfm_spectrum.csv", "comparison.json"),
    "scan": ("scan.csv",),
}


def _table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _coefficients(path: Path) -> list[str]:
    residual = abs(1.0 - float(np.sum(_table(path)[:, 3])))
    if not residual < 1e-12:
        return [f"{path.name}: |1 - sum abs2| = {residual:.3e} (want < 1e-12)"]
    return []


def _acf(path: Path) -> list[str]:
    rows = _table(path)
    R = rows[:, 1] + 1j * rows[:, 2]
    bad = []
    if not abs(R[0] - 1.0) < 1e-12:
        bad.append(f"{path.name}: |R(0) - 1| = {abs(R[0] - 1.0):.3e} "
                   "(want < 1e-12)")
    if not abs(R[-1]) < 1e-12:
        bad.append(f"{path.name}: |R(T)| = {abs(R[-1]):.3e} (want < 1e-12)")
    if rows.shape[1] == 7:
        err = float(np.max(rows[:, 6]))
        if not err < 1e-6:
            bad.append(f"{path.name}: oracle abs_err = {err:.3e} "
                       "(want < 1e-6)")
    return bad


def _af(path: Path) -> list[str]:
    rows = _table(path)
    n_tau = len(np.unique(rows[:, 0]))
    chi = (rows[:, 2] + 1j * rows[:, 3]).reshape(n_tau, -1)
    dev = float(np.max(np.abs(chi - np.conj(chi[::-1, ::-1]))))
    if not dev < 1e-12:
        return [f"{path.name}: |chi(tau,nu) - conj chi(-tau,-nu)| = "
                f"{dev:.3e} (want < 1e-12)"]
    return []


def _scan(path: Path) -> list[str]:
    rows = _table(path)
    n = int(round(np.sqrt(len(rows))))
    neg = (-np.arange(n)) % n
    dev = 0.0
    for col in (2, 3):
        z = rows[:, col].reshape(n, n)
        dev = max(dev, float(np.max(np.abs(z - z[np.ix_(neg, neg)]))))
    if not dev < 1e-9:
        return [f"{path.name}: phase-negation dev = {dev:.3e} dB "
                "(want < 1e-9)"]
    return []


def _oracle_eoa(path: Path) -> list[str]:
    return [f"{path.name}: {row['quantity']} rel_err = {row['rel_err']:.3e} "
            "(want < 1e-6)"
            for row in json.loads(path.read_text())
            if not row["rel_err"] < 1e-6]


def _sidelobes(path: Path) -> list[str]:
    rep = json.loads(path.read_text())
    bad = []
    if rep["null_found"] is not True:
        bad.append(f"{path.name}: no mainlobe null found")
    if not rep["pslr_db"] <= 0.0:
        bad.append(f"{path.name}: pslr_db = {rep['pslr_db']} (want <= 0)")
    return bad


CHECKS = {
    "coefficients.csv": _coefficients,
    "acf.csv": _acf,
    "af.csv": _af,
    "scan.csv": _scan,
    "oracle_eoa.json": _oracle_eoa,
    "sidelobes.json": _sidelobes,
}


def check(command: str, out: Path) -> list[str]:
    """Failure messages for the outputs `command` wrote into `out`."""
    bad = [f"{name}: missing" for name in EXPECTED[command]
           if not (out / name).is_file()]
    for name, fn in CHECKS.items():
        path = out / name
        if path.is_file():
            try:
                bad.extend(fn(path))
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                bad.append(f"{name}: unreadable ({exc})")
    return bad


def data_files(out: Path) -> dict[str, bytes]:
    """Every file a command wrote except its manifest, by name."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.is_file() and p.name != "manifest.json"}


def data_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir()
               if p.is_file() and p.name != "manifest.json")

"""Workloads: the CLI sessions the benchmark runs, built from a seed.

A session is what one user does in one sitting, as a list of `ceofdm`
commands that each wait for the previous one (a closed loop with a single
client).  The program receives only the generated inputs: phase files,
derived `--seed` values and the scan's modulation index.

Work per session must not depend on the seed, or the spread between runs
with different seeds would measure the inputs instead of the program.  Two
choices keep it constant:

- At L = 24 and TBP = 200 the truncation order depends on the code: about a
  third of random 32-PSK codes stop at M = 484 and the rest double to 968,
  which roughly doubles the kernel cost.  Codes are therefore drawn only
  from CODE_SEEDS, the seeds in 0..199 whose code
  `random_psk_code(24, 32, seed)` stops at M = 484 at the parent commit of
  this benchmark.  The list is fixed, so later commits get the same inputs.
- The scan's h is drawn from [5.78, 5.815), where every two-tone code on the
  grid has M = 314 (a doubling of M0 = 157).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("design", "scan")

CODE_SEEDS = (
    0, 2, 5, 6, 8, 9, 12, 18, 19, 22, 24, 25, 29, 32, 33, 36, 50, 51, 53, 58,
    64, 66, 70, 73, 78, 82, 84, 87, 88, 89, 95, 97, 98, 100, 107, 108, 111,
    112, 117, 118, 120, 122, 126, 134, 144, 145, 146, 159, 160, 161, 163, 164,
    166, 168, 171, 176, 185, 187, 188, 190, 194, 195, 199,
)

M_PSK = 32
SCAN_H_RANGE = (5.78, 5.815)


@dataclass(frozen=True)
class Size:
    """Problem sizes; `full` is the benchmark, `smoke` a seconds-long check."""

    L: int
    tbp: float
    af: tuple[int, int]
    design_acf_n: int | None  # None keeps the CLI default (4096)
    validate_acf_n: int
    scan_grid_n: int
    scan_acf_n: int | None


SIZES = {
    "full": Size(L=24, tbp=200.0, af=(64, 64), design_acf_n=None,
                 validate_acf_n=128, scan_grid_n=8, scan_acf_n=None),
    "smoke": Size(L=3, tbp=20.0, af=(8, 8), design_acf_n=256,
                  validate_acf_n=64, scan_grid_n=2, scan_acf_n=256),
}


@dataclass
class Command:
    """One `ceofdm` invocation: subcommand, arguments, output directory."""

    name: str
    argv: list[str]
    out: Path

    def with_out(self, out: Path) -> "Command":
        argv = list(self.argv)
        argv[argv.index("--out") + 1] = str(out)
        return Command(self.name, argv, out)


@dataclass(frozen=True)
class Workload:
    """A seeded stream of sessions plus the command rerun for determinism."""

    name: str
    seed: int
    size: Size
    determinism_index: int  # which command of session 0 is rerun

    def session(self, i: int, work: Path) -> list[Command]:
        """Write the inputs of session i under work and return its commands."""
        build = {"design": _design, "scan": _scan}
        d = work / f"s{i}"
        d.mkdir(parents=True, exist_ok=True)
        return build[self.name](self, i, d)


def make(name: str, seed: int, size: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    det = {"design": 3, "scan": 0}[name]
    return Workload(name=name, seed=seed, size=SIZES[size],
                    determinism_index=det)


def _code_seed(w: Workload, i: int) -> int:
    # Each workload seed visits CODE_SEEDS in its own order.
    order = np.random.default_rng(w.seed).permutation(len(CODE_SEEDS))
    return CODE_SEEDS[int(order[i % len(order)])]


def psk_phases(L: int, seed: int) -> np.ndarray:
    """The phases `random_psk_code(L, 32, seed)` draws, in (-pi, pi]."""
    k = np.random.default_rng(seed).integers(0, M_PSK, size=L)
    phi = 2.0 * math.pi * k / M_PSK
    return np.where(phi > math.pi, phi - 2.0 * math.pi, phi)


def _phi_file(w: Workload, i: int, d: Path) -> tuple[Path, int]:
    s = _code_seed(w, i)
    path = d / "phi.txt"
    path.write_text("".join(f"{p!r}\n" for p in
                            psk_phases(w.size.L, s).tolist()))
    return path, s


def _gen(w: Workload, d: Path, phi: Path) -> Command:
    out = d / "gen"
    return Command("gen", ["gen", "--L", str(w.size.L), "--tbp",
                           repr(w.size.tbp), "--phi-file", str(phi),
                           "--out", str(out)], out)


def _analyze(d: Path, name: str, flags: list[str]) -> Command:
    out = d / name
    spec = d / "gen" / "spec.json"
    return Command(name, ["analyze", "--spec", str(spec), *flags,
                          "--out", str(out)], out)


def _acf_n(n: int | None) -> list[str]:
    return [] if n is None else ["--acf-n", str(n)]


def _design(w: Workload, i: int, d: Path) -> list[Command]:
    phi, s = _phi_file(w, i, d)
    tau_n, nu_n = w.size.af
    flags = ["--spectrum", "--acf", "--af", str(tau_n), str(nu_n), "--eoa",
             "--sidelobes", *_acf_n(w.size.design_acf_n)]
    # The quadrature oracle on a short delay grid: acf-n < 2M+1, so the ACF
    # also takes its small-grid fallback.
    check = ["--eoa", "--acf", "--sidelobes", "--oracle",
             *_acf_n(w.size.validate_acf_n)]
    out = d / "cmp"
    cmp_ = Command("compare_lfm", ["compare-lfm", "--tbp", repr(w.size.tbp),
                                   "--L", str(w.size.L), "--seed", str(s),
                                   "--out", str(out)], out)
    return [_gen(w, d, phi), _analyze(d, "analyze", flags),
            _analyze(d, "validate", check), cmp_]


def scan_h(seed: int) -> float:
    lo, hi = SCAN_H_RANGE
    return float(np.random.default_rng(seed).uniform(lo, hi))


def _scan(w: Workload, i: int, d: Path) -> list[Command]:
    # Every session of a run repeats the same scan; the seed picks h.
    out = d / "scan"
    return [Command("scan", ["scan", "--L", "2", "--h", repr(scan_h(w.seed)),
                             "--grid-n", str(w.size.scan_grid_n),
                             *_acf_n(w.size.scan_acf_n), "--out", str(out)],
                    out)]

"""Command-line front end: generate, analyze, scan, compare-lfm.

main creates --out, runs one command and then writes manifest.json there.  A
command names each data file through main's run object before writing it,
prints one line and returns its spec file; the manifest lists the names, and
a failed command's cleanup removes them.  Its stages list gives the wall time
of each step main and the command took, in order.  A step is one layer: a
computation, its oracle check, or the writing of its CSV file, which the run
object names <step>_csv; a kernel step on a grid also gives the number of
points it evaluated.  Data files are pure functions of the inputs,
so re-running a command reproduces them byte for byte; only the manifest's
timestamp and stage times change.  Each numeric flag's argparse type checks
its range, so a value outside it is a usage error that names the flag (exit
2, before --out exists).  A command that fails later writes no manifest:
main deletes the files on the list and prints one error line, or re-raises
the exception when CEOFDM_DEBUG=1 is set in the environment.
"""

from __future__ import annotations

import argparse
import math
import os
import platform
import sys
import time
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .closed_form import acf_uniform, af_surface, chirp_z, spectrum
from .eoa import eoa_closed_form, h_for_tbp, rho_norm_max
from .gbf import compute_coefficients
from .oracle import acf_numeric, eoa_numeric, oracle_fs
from .sidelobes import metric_surface, report_from_acf
from .waveform import (PskCode, WaveformSpec, load_spec, midpoints,
                       oversample_floor, random_psk_code, sample, save_spec,
                       write_json)


# write_csv formats blocks of this many rows with one string operation each;
# larger blocks hold more Python floats at once for no measurable gain
_CSV_ROWS = 1 << 10


def write_csv(path, header: str, columns) -> None:
    """Write equal-size columns as CSV rows, every value as "%.17g".

    Columns of more than one dimension are flattened in row-major order.  A
    complex column expands to three: real part, imaginary part and squared
    magnitude.  header names the columns after that expansion.  The bytes are
    those of np.savetxt(path, table, fmt="%.17g", delimiter=",",
    header=header, comments="").
    """
    cols = []
    for col in columns:
        col = np.ravel(col)
        if np.iscomplexobj(col):
            # hypot then pow reproduces abs(v) ** 2 of each complex scalar
            # bit for bit; np.abs(col) ** 2 does not.
            cols += [col.real, col.imag,
                     np.float_power(np.hypot(col.real, col.imag), 2.0)]
        else:
            cols.append(col)
    table = np.column_stack(cols)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(0, len(table), _CSV_ROWS):
            block = table[i:i + _CSV_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


class _Run:
    """One command's --out directory, the files it names there in order, and
    its stages: wall times of consecutive steps, each from the end of the
    previous, plus any counts a step reports, such as the points a kernel
    evaluated."""

    def __init__(self) -> None:
        self.out = Path(".")
        self.files: list[str] = []
        self.stages: list[dict] = []
        self._last = time.perf_counter()

    def done(self, name: str, **counts) -> None:
        now = time.perf_counter()
        self.stages.append({"stage": name, "wall_s": now - self._last,
                            **counts})
        self._last = now

    def path(self, name: str) -> Path:
        self.files.append(name)
        return self.out / name

    def csv(self, name: str, header: str, columns) -> None:
        write_csv(self.path(name), header, columns)
        self.done(Path(name).stem + "_csv")


def _parameters(args) -> dict:
    return {key: str(val) if isinstance(val, Path) else val
            for key, val in sorted(vars(args).items()) if key != "func"}


def cmd_gen(args, run: _Run) -> Path:
    h = args.h if args.h is not None else h_for_tbp(args.tbp, args.L)
    if args.phi_file is not None:
        try:
            with warnings.catch_warnings():
                # an empty file is reported by the shape check below
                warnings.filterwarnings("ignore", "loadtxt: input contained")
                phi = np.loadtxt(args.phi_file, dtype=float, ndmin=2)
            rows, cols = phi.shape
            if cols != 1:
                raise ValueError(f"holds a {rows}-by-{cols} table, expected "
                                 "one phase per line")
            if rows != args.L:
                raise ValueError(f"holds {rows} phases, expected {args.L}")
            code = PskCode(phi=phi[:, 0])
        except (OSError, ValueError) as exc:
            raise ValueError(f"--phi-file {args.phi_file}: {exc}") from None
    elif args.seed is not None:
        code = random_psk_code(args.L, args.mpsk, args.seed)
    else:
        code = PskCode(phi=np.zeros(args.L), m_psk=args.mpsk)
    spec = WaveformSpec(T=args.T, h=h, code=code)

    spec_path = run.path("spec.json")
    save_spec(spec, spec_path)
    run.done("spec")

    t, s = sample(spec, 2.0 * oversample_floor(spec))
    run.done("samples", points=len(t))
    run.csv("samples.csv", "t,re,im", [t, s.real, s.imag])

    print(f"wrote {spec_path} (h = {h:.6g}) and {args.out / 'samples.csv'}")
    return spec_path


def cmd_analyze(args, run: _Run) -> Path:
    spec = load_spec(args.spec)
    c = compute_coefficients(spec)
    M = len(c) // 2
    run.done("coefficients", M=M)
    run.csv("coefficients.csv", "m,re,im,abs2", [np.arange(-M, M + 1), c])

    fs = oracle_fs(spec) if args.oracle else None

    if args.spectrum:
        f_max = (2.0 * spec.L + 8.0) / spec.T
        f = np.linspace(-f_max, f_max, 1025)
        S = spectrum(c, spec.T, f)
        run.done("spectrum", points=S.size)
        run.csv("spectrum.csv", "f,re,im,abs2", [f, S])

    if args.acf or args.sidelobes:
        tau, R = acf_uniform(c, spec.T, n_tau=args.acf_n)
        run.done("acf", points=len(tau))

    if args.acf:
        if fs is None:
            run.csv("acf.csv", "tau,re,im,abs2", [tau, R])
        else:
            ref = acf_numeric(spec, len(tau) - 1, fs)
            run.done("acf_oracle")
            err = R - ref
            run.csv("acf.csv", "tau,re,im,abs2,oracle_re,oracle_im,abs_err",
                    [tau, R, ref.real, ref.imag,
                     np.hypot(err.real, err.imag)])

    if args.af is not None:
        tau_n, nu_n = args.af
        taus = np.linspace(-0.9 * spec.T, 0.9 * spec.T, tau_n)
        nus = np.linspace(-10.0 / spec.T, 10.0 / spec.T, nu_n)
        chi = af_surface(c, spec.T, taus, nus)
        run.done("af", points=chi.size)
        run.csv("af.csv", "tau,nu,re,im,abs2",
                [*np.meshgrid(taus, nus, indexing="ij"), chi])

    if args.eoa:
        closed = eoa_closed_form(spec)
        write_json(run.path("eoa.json"),
                   {**closed,
                    "rho_norm_max": rho_norm_max(spec.L),
                    "h": spec.h,
                    "L": spec.L,
                    "T": spec.T})
        run.done("eoa")
        if fs is not None:
            rows = []
            for name, value in eoa_numeric(spec, fs).items():
                err = abs(closed[name] - value)
                rows.append({"quantity": name, "closed_form": closed[name],
                             "numeric": value, "abs_err": err,
                             "rel_err": err / max(abs(closed[name]), 1e-300),
                             "fs": fs, "rule": "simpson"})
            write_json(run.path("oracle_eoa.json"), rows)
            run.done("eoa_oracle")

    if args.sidelobes:
        write_json(run.path("sidelobes.json"), report_from_acf(tau, R))
        run.done("sidelobes")

    print(f"wrote {len(run.files)} files to {args.out}")
    return args.spec


def cmd_scan(args, run: _Run) -> None:
    h = args.h if args.h is not None else h_for_tbp(args.tbp, args.L)
    phis, isl, pslr = metric_surface(h, args.grid_n, args.acf_n, L=args.L)
    run.done("scan", points=isl.size, orbits=isl.size // args.grid_n)
    header = "".join(f"phi{l}," for l in range(1, args.L + 1))
    run.csv("scan.csv", header + "isl_db,pslr_db",
            [*np.meshgrid(*[phis] * args.L, indexing="ij"), isl, pslr])
    print(f"wrote {args.out / 'scan.csv'} ({isl.size} rows, h = {h:.6g})")


def _oob_fraction(f, abs2) -> float:
    # Total spectral energy is 1 by construction; integrate the in-band
    # stretch, the middle quarter of the grid's 8k + 1 nodes on +-2 delta_f,
    # by index (|f| <= delta_f / 2 drops an edge node for some TBPs), and
    # subtract rather than summing a masked tail.
    band = slice(3 * (len(f) - 1) // 8, 5 * (len(f) - 1) // 8 + 1)
    return 1.0 - float(np.trapezoid(abs2[band], f[band]))


def cmd_compare_lfm(args, run: _Run) -> None:
    delta_f = args.tbp / args.T
    h = h_for_tbp(args.tbp, args.L)
    code = random_psk_code(args.L, args.mpsk, args.seed)
    spec = WaveformSpec(T=args.T, h=h, code=code)

    n_f = 4001
    f = np.linspace(-2.0 * delta_f, 2.0 * delta_f, n_f)
    c = compute_coefficients(spec)
    ce = spectrum(c, spec.T, f)
    run.done("ce_spectrum", points=ce.size, M=len(c) // 2)
    run.csv("ce_spectrum.csv", "f,re,im,abs2", [f, ce])

    # the unit-energy LFM chirp with sweep delta_f on the midpoint grid
    # t_n = (n + (1 - len(t)) / 2) d, at a rate of at least 64 nodes per T
    t, d = midpoints(args.T, round(max(8.0 * delta_f, 64.0 / args.T)
                                   * args.T))
    lfm = d * chirp_z(f[0] * d, 4.0 * delta_f / (n_f - 1) * d,
                      (1 - len(t)) / 2, len(t), n_f)(
        np.exp(1j * np.pi * (delta_f / args.T) * t * t) / np.sqrt(args.T))
    run.done("lfm_spectrum", points=lfm.size)
    run.csv("lfm_spectrum.csv", "f,re,im,abs2", [f, lfm])

    lfm_beta2 = (np.pi * delta_f) ** 2 / 3.0
    lfm_beta2_numeric = float(
        (2.0 * np.pi * delta_f / args.T) ** 2 * np.sum(t * t) * d / args.T)
    summary = {
        "T": args.T,
        "tbp": args.tbp,
        "delta_f": delta_f,
        "L": args.L,
        "h": h,
        "seed": args.seed,
        "m_psk": args.mpsk,
        "ce_oob_fraction": _oob_fraction(f, np.abs(ce) ** 2),
        "lfm_oob_fraction": _oob_fraction(f, np.abs(lfm) ** 2),
        "lfm_beta2_closed": lfm_beta2,
        "lfm_beta2_numeric": lfm_beta2_numeric,
    }
    summary["oob_ratio"] = (summary["ce_oob_fraction"]
                            / max(summary["lfm_oob_fraction"], 1e-300))
    write_json(run.path("comparison.json"), summary)
    run.done("comparison")

    print(f"wrote comparison to {args.out} "
          f"(CE OOB {summary['ce_oob_fraction']:.4f}, "
          f"LFM OOB {summary['lfm_oob_fraction']:.4f})")


def _in_range(convert, low, high=math.inf, above=False):
    """argparse type: convert(text), an int or a finite float, in [low, high]
    (in (low, high] with above=True); its error names the range."""
    kind = "an integer" if convert is int else "a finite number"
    span = (f"in {low}..{high}" if high < math.inf
            else f"above {low}" if above else f"of at least {low}")

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not ((low < value if above else low <= value)
                and value <= high and value < math.inf):
            raise argparse.ArgumentTypeError(
                f"must be {kind} {span}, got {text!r}")
        return value
    return parse


_POSITIVE = _in_range(float, 0, above=True)  # --T, --tbp
_NONNEGATIVE = _in_range(float, 0)  # --h
_COUNT = _in_range(int, 1)  # --L, --af sizes
_ALPHABET = _in_range(int, 2)  # --mpsk, --grid-n
_SEED = _in_range(int, 0)
# --acf-n: a sidelobe report needs a mainlobe null, so 3 delay steps or more
_DELAYS = _in_range(int, 3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ceofdm",
        description="Constant-envelope OFDM radar waveform toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a waveform spec and samples")
    gen.add_argument("--L", type=_COUNT, required=True)
    gen.add_argument("--T", type=_POSITIVE, default=1.0)
    hgrp = gen.add_mutually_exclusive_group(required=True)
    hgrp.add_argument("--h", type=_NONNEGATIVE)
    hgrp.add_argument("--tbp", type=_POSITIVE,
                      help="time-bandwidth product; sets h for the given L")
    gen.add_argument("--mpsk", type=_ALPHABET, default=32)
    cgrp = gen.add_mutually_exclusive_group()
    cgrp.add_argument("--seed", type=_SEED,
                      help="draw code phases from the M-PSK alphabet")
    cgrp.add_argument("--phi-file", type=Path,
                      help="text file with L phases in radians, one per line")
    gen.add_argument("--out", type=Path, default=Path("."))
    gen.set_defaults(func=cmd_gen)

    ana = sub.add_parser("analyze", help="closed-form reports for a spec")
    ana.add_argument("--spec", type=Path, required=True)
    ana.add_argument("--spectrum", action="store_true")
    ana.add_argument("--acf", action="store_true")
    ana.add_argument("--af", type=_COUNT, nargs=2, metavar=("TAU_N", "NU_N"),
                     help="surface on tau in ±0.9T, nu in ±10/T")
    ana.add_argument("--eoa", action="store_true")
    ana.add_argument("--sidelobes", action="store_true")
    ana.add_argument("--oracle", action="store_true",
                     help="add quadrature reference columns and reports")
    ana.add_argument("--acf-n", type=_DELAYS)
    ana.add_argument("--out", type=Path, default=Path("."))
    ana.set_defaults(func=cmd_analyze)

    scan = sub.add_parser("scan",
                          help="ISL/PSLR of every code of a phase grid")
    # the metric arrays have one axis per phase, and numpy allows 64
    scan.add_argument("--L", type=_in_range(int, 1, 64), default=2)
    hgrp = scan.add_mutually_exclusive_group(required=True)
    hgrp.add_argument("--h", type=_NONNEGATIVE)
    hgrp.add_argument("--tbp", type=_POSITIVE)
    scan.add_argument("--grid-n", type=_ALPHABET, default=64)
    scan.add_argument("--acf-n", type=_DELAYS)
    scan.add_argument("--out", type=Path, default=Path("."))
    scan.set_defaults(func=cmd_scan)

    cmp_ = sub.add_parser("compare-lfm",
                          help="spectral containment vs an LFM chirp")
    cmp_.add_argument("--tbp", type=_POSITIVE, required=True)
    cmp_.add_argument("--L", type=_COUNT, required=True)
    cmp_.add_argument("--T", type=_POSITIVE, default=1.0)
    cmp_.add_argument("--seed", type=_SEED, default=0)
    cmp_.add_argument("--mpsk", type=_ALPHABET, default=32)
    cmp_.add_argument("--out", type=Path, default=Path("."))
    cmp_.set_defaults(func=cmd_compare_lfm)

    return parser


def main(argv=None) -> int:
    run = _Run()
    args = build_parser().parse_args(argv)
    run.out = args.out
    created = not args.out.exists()
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        run.done("parse")
        spec_file = args.func(args, run)
        write_json(args.out / "manifest.json", {
            "command": args.command,
            "spec_file": None if spec_file is None else str(spec_file),
            "outputs": sorted(run.files),
            "parameters": _parameters(args),
            "stages": run.stages,
            "tool_version": __version__,
            "python_version": platform.python_version(),
            "numpy_version": np.__version__,
            "timestamp": datetime.now(timezone.utc).isoformat(
                timespec="seconds"),
        })
    except Exception as exc:
        # a failed command leaves none of its files, and no empty directory
        # of its own, behind
        for name in run.files:
            (args.out / name).unlink(missing_ok=True)
        if created and args.out.is_dir() and not any(args.out.iterdir()):
            args.out.rmdir()
        if os.environ.get("CEOFDM_DEBUG") == "1":
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    """`ceofdm` and `python -m ceofdm.cli`: main, then exit at once.  Its
    files are closed by then, so after the flushes no teardown is needed
    and atexit handlers do not run."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()

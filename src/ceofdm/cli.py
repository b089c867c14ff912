"""Command-line front end: generate, analyze, scan, compare-lfm.

main creates --out, runs one command and then writes manifest.json there.  A
command writes its data files, prints one line and returns its spec file and
the names of the files it wrote, which the manifest lists.  The manifest's
stages list gives the wall time of each step main and the command took, in
order.  Data files are pure functions of the inputs, so re-running a command
reproduces them byte for byte; only the manifest's timestamp and stage
times change.  A failed command writes no manifest and main prints one
error line, or re-raises the exception when CEOFDM_DEBUG=1 is set in the
environment.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .closed_form import acf_uniform, af_surface, spectrum
from .eoa import eoa_closed_form, h_for_tbp, rho_norm_max
from .gbf import compute_coefficients
from .oracle import _nodes, af_numeric_grid, eoa_numeric, oracle_fs
from .sidelobes import metric_surface, report_from_acf
from .waveform import (PskCode, WaveformSpec, load_spec, oversample_floor,
                       random_psk_code, sample, sample_times, save_spec,
                       wrap_phase, write_json)


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


class _Stages:
    """Wall times of consecutive steps, each from the end of the previous."""

    def __init__(self) -> None:
        self.times: list[dict] = []
        self._last = time.perf_counter()

    def done(self, name: str) -> None:
        now = time.perf_counter()
        self.times.append({"stage": name, "wall_s": now - self._last})
        self._last = now


def _parameters(args) -> dict:
    skip = {"func"}
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = str(val) if isinstance(val, Path) else val
    return out


def _resolve_h(args, L: int) -> float:
    if args.h is not None:
        return args.h
    return h_for_tbp(args.T, args.tbp / args.T, L)


def cmd_gen(args, stages: _Stages) -> tuple[Path | None, list[str]]:
    h = _resolve_h(args, args.L)
    if args.phi_file is not None:
        phi = np.loadtxt(args.phi_file, dtype=float, ndmin=1)
        if phi.shape != (args.L,):
            raise ValueError(
                f"phi file holds {phi.size} phases, expected {args.L}")
        code = PskCode(L=args.L, gamma=np.ones(args.L), phi=wrap_phase(phi))
    elif args.seed is not None:
        code = random_psk_code(args.L, args.mpsk, args.seed)
    else:
        code = PskCode(L=args.L, gamma=np.ones(args.L),
                       phi=np.zeros(args.L), m_psk=args.mpsk)
    spec = WaveformSpec(T=args.T, h=h, code=code)

    spec_path = args.out / "spec.json"
    save_spec(spec, spec_path)
    stages.done("spec")

    fs = 2.0 * oversample_floor(spec)
    t = sample_times(spec, fs)
    s = sample(spec, fs)
    samples_path = args.out / "samples.csv"
    write_csv(samples_path, "t,re,im", [t, s.real, s.imag])
    stages.done("samples")

    print(f"wrote {spec_path} (h = {h:.6g}) and {samples_path}")
    return spec_path, [spec_path.name, samples_path.name]


def cmd_analyze(args, stages: _Stages) -> tuple[Path | None, list[str]]:
    # check the grid sizes before any file is written
    for flag, least in (("sidelobes", 3), ("acf", 1)):
        if getattr(args, flag) and args.acf_n < least:
            raise ValueError(f"n_tau must be at least {least} for --{flag}, "
                             f"got --acf-n {args.acf_n}")
    if args.af is not None and min(args.af) < 1:
        raise ValueError("--af needs at least 1 delay and 1 Doppler, got "
                         f"--af {args.af[0]} {args.af[1]}")
    spec = load_spec(args.spec)
    coeffs = compute_coefficients(spec)
    outputs = []

    def out(name: str) -> Path:
        outputs.append(name)
        return args.out / name

    write_csv(out("coefficients.csv"), "m,re,im,abs2",
              [coeffs.m_index, coeffs.c])
    stages.done("coefficients")

    fs = oracle_fs(spec) if args.oracle else None

    if args.spectrum:
        f_max = (2.0 * spec.L + 8.0) / spec.T
        f = np.linspace(-f_max, f_max, 1025)
        samples = spectrum(spec, f, coeffs=coeffs)
        write_csv(out("spectrum.csv"), "f,re,im,abs2",
                  [samples.f, samples.values])
        stages.done("spectrum")

    if args.acf or args.sidelobes:
        tau, R = acf_uniform(spec, n_tau=args.acf_n, coeffs=coeffs)
        stages.done("acf")

    if args.acf:
        if fs is None:
            write_csv(out("acf.csv"), "tau,re,im,abs2", [tau, R])
        else:
            ref = af_numeric_grid(spec, tau, np.zeros(1), fs)[:, 0]
            err = R - ref
            write_csv(out("acf.csv"),
                      "tau,re,im,abs2,oracle_re,oracle_im,abs_err",
                      [tau, R, ref.real, ref.imag,
                       np.hypot(err.real, err.imag)])
        stages.done("acf_csv")

    if args.af is not None:
        tau_n, nu_n = args.af
        surf = af_surface(spec,
                          np.linspace(-0.9 * spec.T, 0.9 * spec.T, tau_n),
                          np.linspace(-10.0 / spec.T, 10.0 / spec.T, nu_n),
                          coeffs=coeffs)
        write_csv(out("af.csv"), "tau,nu,re,im,abs2",
                  [*np.meshgrid(surf.tau, surf.nu, indexing="ij"), surf.chi])
        stages.done("af")

    if args.eoa:
        closed = eoa_closed_form(spec).as_dict()
        write_json(out("eoa.json"),
                   {**closed,
                    "rho_norm_max": rho_norm_max(spec.L),
                    "h": spec.h,
                    "L": spec.L,
                    "T": spec.T})
        if fs is not None:
            rows = []
            for name, value in eoa_numeric(spec, fs).items():
                err = abs(closed[name] - value)
                scale = max(abs(closed[name]), 1e-300)
                rows.append({"quantity": name,
                             "closed_form": closed[name],
                             "numeric": value,
                             "abs_err": err,
                             "rel_err": err / scale,
                             "fs": fs,
                             "rule": "simpson"})
            write_json(out("oracle_eoa.json"), rows)
        stages.done("eoa")

    if args.sidelobes:
        rep = report_from_acf(tau, R)
        write_json(out("sidelobes.json"),
                   {"delta_tau": rep.delta_tau,
                    "pslr_db": rep.pslr_db,
                    "isl_db": rep.isl_db,
                    "null_found": rep.null_found,
                    "n_tau": args.acf_n,
                    "tau_max": float(tau[-1])})
        stages.done("sidelobes")

    print(f"wrote {len(outputs)} files to {args.out}")
    return args.spec, outputs


def cmd_scan(args, stages: _Stages) -> tuple[Path | None, list[str]]:
    if args.L != 2:
        raise ValueError(f"scan supports L = 2 only, got L = {args.L}")
    # each code's report needs a mainlobe null, so at least 3 delay steps
    if args.acf_n < 3:
        raise ValueError("n_tau must be at least 3 for scan, got --acf-n "
                         f"{args.acf_n}")
    h = _resolve_h(args, args.L)
    surf = metric_surface(args.T, h, args.grid_n, n_tau=args.acf_n)
    stages.done("scan")
    path = args.out / "scan.csv"
    write_csv(path, "phi1,phi2,isl_db,pslr_db",
              [*np.meshgrid(surf.phi1, surf.phi2, indexing="ij"),
               surf.isl_db, surf.pslr_db])
    stages.done("scan_csv")
    print(f"wrote {path} ({args.grid_n * args.grid_n} rows, h = {h:.6g})")
    return None, [path.name]


def _oob_fraction(f, abs2, half_band: float) -> float:
    # Total spectral energy is 1 by construction; integrate the contiguous
    # in-band stretch and subtract rather than summing a masked tail.
    mask = np.abs(f) <= half_band
    inband = float(np.trapezoid(abs2[mask], f[mask]))
    return 1.0 - inband


def _chirp_z(s, t0: float, d: float, f0: float, df: float,
             n_f: int) -> np.ndarray:
    """d sum_n s_n exp(-j 2 pi (f0 + k df)(t0 + n d)) for k = 0..n_f - 1.

    Bluestein's chirp-z transform: kn = (k^2 + n^2 - (k - n)^2) / 2 turns the
    sum over n into one FFT convolution of the chirped samples with the chirp
    exp(j pi a j^2), a = df d.
    """
    n, k = np.arange(len(s)), np.arange(n_f)
    a = df * d

    def chirp(j):
        # exp(-j pi a j^2), its phase reduced mod 2 from the exact integer j^2
        return np.exp(-1j * np.pi * np.fmod(a * (j * j), 2.0))

    size = 1 << (len(s) + n_f - 2).bit_length()
    y = np.fft.fft(s * np.exp(-2j * np.pi * f0 * d * n) * chirp(n), size)
    w = np.fft.fft(np.conj(chirp(np.arange(1 - len(s), n_f))), size)
    conv = np.fft.ifft(y * w)[len(s) - 1:len(s) - 1 + n_f]
    return d * np.exp(-2j * np.pi * (f0 + k * df) * t0) * chirp(k) * conv


def cmd_compare_lfm(args, stages: _Stages) -> tuple[Path | None, list[str]]:
    delta_f = args.tbp / args.T
    h = h_for_tbp(args.T, delta_f, args.L)
    code = random_psk_code(args.L, args.mpsk, args.seed)
    spec = WaveformSpec(T=args.T, h=h, code=code)

    n_f = 4001
    f = np.linspace(-2.0 * delta_f, 2.0 * delta_f, n_f)
    ce = spectrum(spec, f)
    write_csv(args.out / "ce_spectrum.csv", "f,re,im,abs2", [ce.f, ce.values])
    stages.done("ce_spectrum")

    # the unit-energy LFM chirp with sweep delta_f, on a midpoint grid
    t, d = _nodes(-args.T / 2.0, args.T / 2.0,
                  max(8.0 * delta_f, 64.0 / args.T), midpoint=True)
    lfm = _chirp_z(np.exp(1j * np.pi * (delta_f / args.T) * t * t)
                   / np.sqrt(args.T), t[0], d, f[0],
                   4.0 * delta_f / (n_f - 1), n_f)
    write_csv(args.out / "lfm_spectrum.csv", "f,re,im,abs2", [f, lfm])
    stages.done("lfm_spectrum")

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
        "ce_oob_fraction": _oob_fraction(f, np.abs(ce.values) ** 2,
                                         delta_f / 2.0),
        "lfm_oob_fraction": _oob_fraction(f, np.abs(lfm) ** 2,
                                          delta_f / 2.0),
        "lfm_beta2_closed": lfm_beta2,
        "lfm_beta2_numeric": lfm_beta2_numeric,
    }
    summary["oob_ratio"] = (summary["ce_oob_fraction"]
                            / max(summary["lfm_oob_fraction"], 1e-300))
    write_json(args.out / "comparison.json", summary)
    stages.done("comparison")

    print(f"wrote comparison to {args.out} "
          f"(CE OOB {summary['ce_oob_fraction']:.4f}, "
          f"LFM OOB {summary['lfm_oob_fraction']:.4f})")
    return None, ["ce_spectrum.csv", "lfm_spectrum.csv", "comparison.json"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ceofdm",
        description="Constant-envelope OFDM radar waveform toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a waveform spec and samples")
    gen.add_argument("--L", type=int, required=True)
    gen.add_argument("--T", type=float, default=1.0)
    hgrp = gen.add_mutually_exclusive_group(required=True)
    hgrp.add_argument("--h", type=float)
    hgrp.add_argument("--tbp", type=float,
                      help="time-bandwidth product; sets h for the given L")
    gen.add_argument("--mpsk", type=int, default=32)
    cgrp = gen.add_mutually_exclusive_group()
    cgrp.add_argument("--seed", type=int,
                      help="draw code phases from the M-PSK alphabet")
    cgrp.add_argument("--phi-file", type=Path,
                      help="text file with L phases in radians, one per line")
    gen.add_argument("--out", type=Path, default=Path("."))
    gen.set_defaults(func=cmd_gen)

    ana = sub.add_parser("analyze", help="closed-form reports for a spec")
    ana.add_argument("--spec", type=Path, required=True)
    ana.add_argument("--spectrum", action="store_true")
    ana.add_argument("--acf", action="store_true")
    ana.add_argument("--af", type=int, nargs=2, metavar=("TAU_N", "NU_N"),
                     help="surface on tau in ±0.9T, nu in ±10/T")
    ana.add_argument("--eoa", action="store_true")
    ana.add_argument("--sidelobes", action="store_true")
    ana.add_argument("--oracle", action="store_true",
                     help="add quadrature reference columns and reports")
    ana.add_argument("--acf-n", type=int, default=4096)
    ana.add_argument("--out", type=Path, default=Path("."))
    ana.set_defaults(func=cmd_analyze)

    scan = sub.add_parser("scan",
                          help="ISL/PSLR surface over two code phases")
    scan.add_argument("--L", type=int, default=2)
    scan.add_argument("--T", type=float, default=1.0)
    hgrp = scan.add_mutually_exclusive_group(required=True)
    hgrp.add_argument("--h", type=float)
    hgrp.add_argument("--tbp", type=float)
    scan.add_argument("--grid-n", type=int, default=64)
    scan.add_argument("--acf-n", type=int, default=4096)
    scan.add_argument("--out", type=Path, default=Path("."))
    scan.set_defaults(func=cmd_scan)

    cmp_ = sub.add_parser("compare-lfm",
                          help="spectral containment vs an LFM chirp")
    cmp_.add_argument("--tbp", type=float, required=True)
    cmp_.add_argument("--L", type=int, required=True)
    cmp_.add_argument("--T", type=float, default=1.0)
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument("--mpsk", type=int, default=32)
    cmp_.add_argument("--out", type=Path, default=Path("."))
    cmp_.set_defaults(func=cmd_compare_lfm)

    return parser


def main(argv=None) -> int:
    stages = _Stages()
    args = build_parser().parse_args(argv)
    created = not args.out.exists()
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        stages.done("parse")
        spec_file, outputs = args.func(args, stages)
        write_json(args.out / "manifest.json", {
            "command": args.command,
            "spec_file": None if spec_file is None else str(spec_file),
            "outputs": sorted(outputs),
            "parameters": _parameters(args),
            "stages": stages.times,
            "tool_version": __version__,
            "python_version": platform.python_version(),
            "numpy_version": np.__version__,
            "timestamp": datetime.now(timezone.utc).isoformat(
                timespec="seconds"),
        })
    except Exception as exc:
        # a rejected command leaves no empty directory of its own behind
        if created and args.out.is_dir() and not any(args.out.iterdir()):
            args.out.rmdir()
        if os.environ.get("CEOFDM_DEBUG") == "1":
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

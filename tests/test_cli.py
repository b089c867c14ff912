import argparse
import ast
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ceofdm
from ceofdm import __version__
from ceofdm import cli
from ceofdm.cli import main, write_csv
from ceofdm.closed_form import acf_uniform, chirp_z
from ceofdm.eoa import h_for_tbp
from ceofdm.gbf import compute_coefficients
from ceofdm.oracle import _dft, oracle_fs, spectrum_numeric
from ceofdm.sidelobes import report_from_acf
from ceofdm.waveform import (PskCode, WaveformSpec, load_spec, midpoints,
                             random_psk_code, save_spec, wrap_phase)


def _run(*argv):
    return main([str(a) for a in argv])


def test_gen_resolves_h_from_tbp(tmp_path):
    out = tmp_path / "g"
    assert _run("gen", "--L", 24, "--T", 1, "--tbp", 200, "--mpsk", 32,
                "--seed", 7, "--out", out) == 0
    spec = load_spec(out / "spec.json")
    assert spec.h == pytest.approx(0.1856, abs=1e-4)
    assert spec.L == 24 and spec.code.m_psk == 32
    samples = np.genfromtxt(out / "samples.csv", delimiter=",", names=True)
    np.testing.assert_allclose(samples["re"] ** 2 + samples["im"] ** 2, 1.0,
                               atol=1e-12)


@pytest.mark.parametrize("argv", [
    ["--L", 1, "--h", 0.58, "--T", 1.79, "--seed", 3],
    ["--L", 24, "--tbp", 200, "--seed", 0]], ids=["L1", "L24"])
def test_gen_samples_span_the_pulse_with_unit_energy(tmp_path, argv):
    assert _run("gen", *argv, "--out", tmp_path) == 0
    T = load_spec(tmp_path / "spec.json").T
    samples = np.genfromtxt(tmp_path / "samples.csv", delimiter=",",
                            names=True)
    t = samples["t"]
    assert abs(t[0] + t[-1]) <= 1e-15 * T
    energy = np.sum(samples["re"] ** 2 + samples["im"] ** 2) * (t[1] - t[0])
    assert energy == pytest.approx(1.0, abs=1e-12)


def test_gen_rejects_conflicting_h_flags(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run("gen", "--L", 2, "--h", 1.0, "--tbp", 200, "--out", tmp_path)
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        _run("gen", "--L", 2, "--out", tmp_path)  # neither --h nor --tbp
    assert exc.value.code == 2


def test_gen_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert _run("gen", "--L", 8, "--tbp", 50, "--seed", 3,
                    "--out", out) == 0
    assert (a / "spec.json").read_bytes() == (b / "spec.json").read_bytes()
    assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()


def test_gen_phi_file(tmp_path, capsys):
    phi = np.array([0.1, -2.0, 3.0])
    pf = tmp_path / "phi.txt"
    np.savetxt(pf, phi)
    out = tmp_path / "g"
    assert _run("gen", "--L", 3, "--h", 0.5, "--phi-file", pf,
                "--out", out) == 0
    spec = load_spec(out / "spec.json")
    np.testing.assert_allclose(spec.code.phi, wrap_phase(phi), atol=1e-12)
    # a file that is not L phases, one per line, exits 2 with one error line
    # that names the flag and the file, no loadtxt warning and no --out
    for L, text, why in (
            (5, "0.1\n-2\n3\n", "holds 3 phases, expected 5"),
            (2, "", "holds 0 phases, expected 2"),
            (2, "abc\n", "could not convert string 'abc' to float64 at row "
             "0, column 1."),
            (1, "inf\n", "phi and gamma must be finite"),
            (4, "1 2\n3 4\n", "holds a 2-by-2 table, expected one phase "
             "per line"),
            (2, "0.5 1.5\n", "holds a 1-by-2 table, expected one phase "
             "per line")):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        capsys.readouterr()
        assert _run("gen", "--L", L, "--h", 1, "--phi-file", bad,
                    "--out", tmp_path / "e") == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --phi-file {bad}: {why}"]
        assert not (tmp_path / "e").exists()
    # a file that cannot be read is named the same way
    bad.unlink()
    assert _run("gen", "--L", 2, "--h", 1, "--phi-file", bad,
                "--out", tmp_path / "e") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: --phi-file {bad}: ")
    assert not (tmp_path / "e").exists()


def test_analyze_eoa_report(tmp_path):
    out = tmp_path / "g"
    _run("gen", "--L", 24, "--tbp", 200, "--seed", 7, "--out", out)
    rep = tmp_path / "r"
    assert _run("analyze", "--spec", out / "spec.json", "--eoa",
                "--out", rep) == 0
    data = json.loads((rep / "eoa.json").read_text())
    assert data["rho_norm_max"] == pytest.approx(0.2673, abs=5e-4)
    assert data["L"] == 24
    assert abs(data["rho_norm"]) <= data["rho_norm_max"]


def test_analyze_af_of_constant_pulse_peaks_at_origin(tmp_path):
    out = tmp_path / "g"
    _run("gen", "--L", 1, "--h", 0, "--out", out)
    rep = tmp_path / "r"
    assert _run("analyze", "--spec", out / "spec.json", "--af", 9, 9,
                "--out", rep) == 0
    data = np.genfromtxt(rep / "af.csv", delimiter=",", names=True)
    assert len(data) == 81
    peak = np.argmax(data["abs2"])
    assert data["tau"][peak] == 0.0 and data["nu"][peak] == 0.0
    assert data["abs2"][peak] == pytest.approx(1.0, abs=1e-9)


def test_analyze_acf_oracle_columns(tmp_path):
    # the oracle runs on its own lattice: --acf-n 16 and 4096 divide the
    # 8192 intervals of oracle_fs, while 3 and 97 move them
    gens = {"L1": ["--L", 1, "--h", 0.5],
            "L24": ["--L", 24, "--tbp", 200, "--seed", 0]}
    for name, n in (("L1", 3), ("L1", 16), ("L1", 97), ("L24", 3),
                    ("L24", 16), ("L24", 97), ("L24", 4096)):
        out, rep = tmp_path / name, tmp_path / f"{name}-{n}"
        _run("gen", *gens[name], "--out", out)
        assert _run("analyze", "--spec", out / "spec.json", "--acf",
                    "--oracle", "--acf-n", n, "--out", rep) == 0
        data = np.genfromtxt(rep / "acf.csv", delimiter=",", names=True)
        assert len(data) == n + 1
        assert data["abs_err"].max() < 1e-6
        assert abs(complex(data["oracle_re"][0], data["oracle_im"][0])
                   - 1.0) <= 1e-12
        assert data["oracle_re"][-1] == 0.0 and data["oracle_im"][-1] == 0.0


@pytest.mark.parametrize("command, broken", [
    ("gen", "sample"), ("analyze", "acf_uniform"), ("scan", "write_csv"),
    ("compare-lfm", "chirp_z")])
def test_failed_command_removes_the_files_it_wrote(tmp_path, monkeypatch,
                                                   command, broken):
    spec = tmp_path / "g" / "spec.json"
    _run("gen", "--L", 2, "--h", 0.5, "--out", spec.parent)
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("not ours")
    argv = {"gen": ["--L", 2, "--h", 0.5],
            "analyze": ["--spec", spec, "--acf", "--eoa"],
            "scan": ["--h", 0.5, "--grid-n", 2, "--acf-n", 64],
            "compare-lfm": ["--tbp", 20, "--L", 2]}[command]

    def fail(*args, **kwargs):
        if broken == "write_csv":  # a write that stops half way
            Path(args[0]).write_text("t,")
        raise RuntimeError("broken")

    monkeypatch.setattr(cli, broken, fail)
    assert _run(command, *argv, "--out", out) == 2
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "not ours"
    # a directory the command created goes with its files
    assert _run(command, *argv, "--out", tmp_path / "new") == 2
    assert not (tmp_path / "new").exists()


def test_analyze_sidelobes_and_manifest(tmp_path):
    out = tmp_path / "g"
    _run("gen", "--L", 2, "--tbp", 200, "--seed", 1, "--out", out)
    rep = tmp_path / "r"
    assert _run("analyze", "--spec", out / "spec.json", "--acf", "--af", 5, 5,
                "--sidelobes", "--acf-n", 1024, "--out", rep) == 0
    side = json.loads((rep / "sidelobes.json").read_text())
    assert side["null_found"] and side["pslr_db"] < 0
    # the file is report_from_acf's dict, key for key, on the --acf delays,
    # not the --af ones
    spec = load_spec(out / "spec.json")
    ref = report_from_acf(*acf_uniform(compute_coefficients(spec), spec.T,
                                       1024))
    assert side.keys() == ref.keys()
    assert side == ref
    assert (side["n_tau"], side["tau_max"]) == (1024, 1.0)
    manifest = json.loads((rep / "manifest.json").read_text())
    assert manifest["command"] == "analyze"
    assert manifest["tool_version"] == __version__
    for name in manifest["outputs"]:
        assert (rep / name).exists()


def test_analyze_missing_spec(tmp_path, capsys):
    assert _run("analyze", "--spec", tmp_path / "nope.json", "--eoa",
                "--out", tmp_path) == 2
    assert not (tmp_path / "manifest.json").exists()
    # a spec whose first truncation order already exceeds M_CAP
    code = PskCode(phi=np.zeros(100))
    save_spec(WaveformSpec(T=1.0, h=25.0, code=code), tmp_path / "big.json")
    capsys.readouterr()
    out = tmp_path / "big"
    assert _run("analyze", "--spec", tmp_path / "big.json", "--eoa",
                "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: truncation order")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("text, key", [
    ('{"h": 1.0, "L": 2, "phi": [0.0, 1.0]}', "'T'"),
    ("[1.0, 2.0]", "JSON object"),
    ('{"T": 1.0, "h": 1.0, "L": 2.7, "phi": [0.0, 1.0]}', "'L'"),
    ('{"T": 1.0, "h": 1.0, "L": 2, "phi": [0.0, 1.0], "m_psk": 2.5}',
     "'m_psk'"),
    ('{"T": 1.0, "h": 1.0, "L": 2, "phi": [0.0, 1.0],}', "not a JSON file"),
    ('{"T": "abc", "h": 1.0, "L": 2, "phi": [0.0, 1.0]}', "'T'"),
    ('{"T": 1.0, "h": [1.0], "L": 2, "phi": [0.0, 1.0]}', "'h'"),
    ('{"T": 1.0, "h": 1.0, "L": 2, "phi": "ab"}', "'phi'"),
    ('{"T": 1.0, "h": 1.0, "L": 2, "phi": [0.0, 1.0], "gamma": [1, "a"]}',
     "'gamma'"),
    ('{"T": 1.0, "h": 1.0, "L": 2, "phi": [0.0, 1.0], "gamma": null}',
     "'gamma'"),
    # JSON booleans and numeric strings are not numbers, though float()
    # would take them
    ('{"T": true, "h": 1.0, "L": 2, "phi": [0.0, 1.0]}', "'T'"),
    ('{"T": "1.0", "h": 1.0, "L": 2, "phi": [0.0, 1.0]}', "'T'"),
    ('{"T": 1.0, "h": false, "L": 2, "phi": [0.0, 1.0]}', "'h'"),
    ('{"T": 1.0, "h": "0.5", "L": 2, "phi": [0.0, 1.0]}', "'h'"),
    ('{"T": 1.0, "h": 1.0, "L": 2, "phi": [false, 1.0]}', "'phi'"),
    ('{"T": 1.0, "h": 1.0, "L": 2, "phi": [0.0, "1"]}', "'phi'"),
    ('{"T": 1.0, "h": 1.0, "L": 2, "phi": [0.0, 1.0], "gamma": [true, 1]}',
     "'gamma'"),
    ('{"T": 1.0, "h": 1.0, "L": 2, "phi": [0.0, 1.0], "gamma": ["1", 1]}',
     "'gamma'"),
    # L is the number of phases, at least 1, and gamma gives one amplitude
    # per phase
    ('{"T": 1.0, "h": 1.0, "L": 3, "phi": [0.0, 1.0]}', "'L'"),
    ('{"T": 1.0, "h": 1.0, "L": 0, "phi": []}', "'L'"),
    ('{"T": 1.0, "h": 1.0, "L": 2, "phi": [0.0, 1.0], "gamma": [1.0]}',
     "'gamma'"),
    ('{"T": 1.0, "h": 1.0, "L": 2, "phi": [0.0, 1.0], "gamma": [1, 1, 1]}',
     "'gamma'"),
    # values out of range, which the constructors reject by field name
    ('{"T": 1.0, "h": 1.0, "L": 2, "phi": [0.0, 1.0], "m_psk": 1}',
     "m_psk must"),
    ('{"T": 1.0, "h": 1.0, "L": 2, "phi": [0.0, 1.0], "gamma": [2, 1], '
     '"m_psk": 4}', "gamma must"),
    ('{"T": 1.0, "h": 1.0, "L": 2, "phi": [0.0, 1.0], "gamma": [-1, 1]}',
     "gamma must"),
    ('{"T": NaN, "h": 1.0, "L": 2, "phi": [0.0, 1.0]}', "T must"),
    ('{"T": 1.0, "h": -1, "L": 2, "phi": [0.0, 1.0]}', "h must"),
    ('{"T": 1.0, "h": 1.0, "L": 2, "phi": [0.0, Infinity]}',
     "phi and gamma must"),
], ids=["no-T", "list", "fractional-L", "fractional-m_psk", "not-json",
        "text-T", "list-h", "text-phi", "text-gamma", "null-gamma",
        "bool-T", "numeric-text-T", "bool-h", "numeric-text-h", "bool-phi",
        "numeric-text-phi", "bool-gamma", "numeric-text-gamma",
        "L-not-phi-length", "zero-L", "short-gamma", "long-gamma",
        "m_psk-1", "non-unit-psk-gamma", "negative-gamma", "nan-T",
        "negative-h", "infinite-phi"])
def test_analyze_rejects_malformed_spec(tmp_path, capsys, text, key):
    path = tmp_path / "spec.json"
    path.write_text(text)
    out = tmp_path / "r"
    assert _run("analyze", "--spec", path, "--eoa", "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ")
    assert key in err[0]
    assert not out.exists()


def test_spec_without_gamma_analyzes_as_unit_amplitudes(tmp_path):
    d = {"T": 1.3, "h": 0.7, "L": 3, "phi": [0.4, -2.1, 3.0]}
    outs = []
    for i, spec in enumerate((d, {**d, "gamma": [1.0, 1.0, 1.0]})):
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps(spec))
        outs.append(tmp_path / f"r{i}")
        assert _run("analyze", "--spec", path, "--eoa", "--acf",
                    "--sidelobes", "--acf-n", 256, "--out", outs[-1]) == 0
    names = json.loads((outs[0] / "manifest.json").read_text())["outputs"]
    assert len(names) == 4
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_h_from_tbp_does_not_depend_on_duration(tmp_path, monkeypatch):
    # h = tbp / (2 pi sqrt(2 L^3 + 3 L^2 + L)); taking tbp / T and
    # multiplying by T again moved h by one ulp here
    h = h_for_tbp(333.3, 2)
    assert _run("gen", "--L", 2, "--T", 1.3, "--tbp", 333.3,
                "--out", tmp_path / "g") == 0
    assert load_spec(tmp_path / "g" / "spec.json").h == h
    assert _run("compare-lfm", "--L", 2, "--T", 1.3, "--tbp", 333.3,
                "--out", tmp_path / "c") == 0
    assert json.loads((tmp_path / "c" / "comparison.json").read_text())[
        "h"] == h
    seen = []
    real = cli.metric_surface

    def spy(h_scan, *args, **kwargs):
        seen.append(h_scan)
        return real(h_scan, *args, **kwargs)
    monkeypatch.setattr(cli, "metric_surface", spy)
    assert _run("scan", "--L", 2, "--tbp", 333.3, "--grid-n", 2,
                "--acf-n", 64, "--out", tmp_path / "s") == 0
    assert seen == [h]


def test_debug_env_reraises(tmp_path, monkeypatch):
    monkeypatch.setenv("CEOFDM_DEBUG", "1")
    out = tmp_path / "r"
    with pytest.raises(FileNotFoundError):
        _run("analyze", "--spec", tmp_path / "nope.json", "--eoa",
             "--out", out)
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["gen", "--L", -1, "--h", 0.5, "--seed", 1], "--L"),
    (["gen", "--L", 0, "--tbp", 20], "--L"),
    (["gen", "--L", 2, "--h", 0.5, "--mpsk", 1], "--mpsk"),
    (["gen", "--L", 2, "--h", 0.5, "--mpsk", 1, "--seed", 1], "--mpsk"),
    (["compare-lfm", "--L", 0, "--tbp", 20], "--L"),
    (["compare-lfm", "--L", 2, "--tbp", 20, "--mpsk", 1], "--mpsk"),
    (["gen", "--L", 2, "--tbp", 200, "--T", 0], "--T"),
    (["scan", "--tbp", 0], "--tbp"),
    (["compare-lfm", "--tbp", 200, "--L", 2, "--T", 0], "--T"),
    (["scan", "--L", 0, "--h", 0.5], "--L"),
    (["scan", "--L", 70, "--h", 0.5], "--L"),
    (["scan", "--L", 65, "--h", 0.5], "--L"),
    (["analyze", "--spec", "s.json", "--acf", "--acf-n", 0], "--acf-n"),
    (["analyze", "--spec", "s.json", "--acf", "--acf-n", 2], "--acf-n"),
    (["analyze", "--spec", "s.json", "--sidelobes", "--acf-n", 1], "--acf-n"),
    (["analyze", "--spec", "s.json", "--sidelobes", "--acf-n", 2], "--acf-n"),
    (["scan", "--h", 0.5, "--grid-n", 2, "--acf-n", 1], "--acf-n"),
    (["scan", "--h", 0.5, "--grid-n", 2, "--acf-n", 2], "--acf-n"),
    (["analyze", "--spec", "s.json", "--af", -2, 5], "--af"),
    (["analyze", "--spec", "s.json", "--af", 5, 0], "--af"),
    (["scan", "--h", 0.5, "--grid-n", 1], "--grid-n"),
    (["gen", "--L", 2, "--h", -1], "--h"),
    (["scan", "--h", "inf"], "--h"),
    (["gen", "--L", 2, "--h", "nan"], "--h"),
    (["gen", "--L", 2, "--h", 0.5, "--seed", -1], "--seed"),
    (["compare-lfm", "--L", 2, "--tbp", 20, "--seed", -1], "--seed"),
], ids=["gen-negative-L", "gen-zero-L", "gen-mpsk", "gen-seed-mpsk",
        "compare-lfm-zero-L", "compare-lfm-mpsk", "gen-zero-T",
        "scan-zero-tbp", "compare-lfm-zero-T", "scan-zero-L", "scan-L-70",
        "scan-L-65", "acf-acf-n-0", "acf-acf-n-2", "sidelobes-acf-n-1",
        "sidelobes-acf-n-2", "scan-acf-n-1", "scan-acf-n-2", "af-negative",
        "af-zero", "scan-grid-n-1", "gen-negative-h", "scan-infinite-h",
        "gen-nan-h", "gen-negative-seed", "compare-lfm-negative-seed"])
def test_out_of_range_flag_is_usage_error_naming_it(tmp_path, capsys, argv,
                                                     flag):
    # rejected at parse time, before the spec file is read or --out made
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        _run(*argv, "--out", out)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        f"ceofdm {argv[0]}: error: argument {flag}: must be ")
    assert not out.exists()


def test_every_numeric_flag_has_a_range_checked_type():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        for action in parser._actions:
            assert action.type not in (int, float), (name, action.dest)
    # the edge value of each range is accepted
    parse = cli.build_parser().parse_args
    assert parse(["gen", "--L", "1", "--h", "0", "--mpsk", "2",
                  "--seed", "0"]).h == 0.0
    args = parse(["scan", "--L", "64", "--h", "0", "--grid-n", "2",
                  "--acf-n", "3"])
    assert (args.L, args.grid_n, args.acf_n) == (64, 2, 3)
    args = parse(["analyze", "--spec", "s.json", "--af", "1", "1",
                  "--acf-n", "3"])
    assert (args.af, args.acf_n) == ([1, 1], 3)
    args = parse(["compare-lfm", "--L", "1", "--tbp", "1e-300", "--seed",
                  "0", "--mpsk", "2"])
    assert (args.L, args.seed, args.mpsk) == (1, 0, 2)


def test_scan_takes_no_duration(tmp_path, capsys):
    # ISL and PSLR are dimensionless, so scan has no --T to set
    out = tmp_path / "s"
    with pytest.raises(SystemExit) as exc:
        _run("scan", "--h", 5.81, "--T", 1, "--out", out)
    assert exc.value.code == 2
    assert "--T" in capsys.readouterr().err
    assert not out.exists()


def test_readme_documents_every_cli_option_and_no_other():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    # the text under each "### <command>" heading, up to the next heading
    sections = dict(re.findall(r"^### (\S+)\n(.*?)(?=^#)", readme,
                               re.MULTILINE | re.DOTALL))
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sections) == set(sub.choices)
    for name, parser in sub.choices.items():
        options = {s for a in parser._actions for s in a.option_strings
                   if s.startswith("--")} - {"--help"}
        for option in options:
            assert re.search(re.escape(option) + r"(?![\w-])", readme), \
                (name, option)
        flags = set(re.findall(r"--[A-Za-z][\w-]*", sections[name]))
        assert flags <= options, (name, flags - options)


def test_scan_writes_every_code_of_any_carrier_count(tmp_path):
    out = tmp_path / "s"
    assert _run("scan", "--L", 3, "--h", 0.5, "--grid-n", 2, "--acf-n", 64,
                "--out", out) == 0
    lines = (out / "scan.csv").read_text().splitlines()
    assert lines[0] == "phi1,phi2,phi3,isl_db,pslr_db"
    phis = np.genfromtxt(out / "scan.csv", delimiter=",", skip_header=1)
    # the 2^3 codes in C order: the last phase varies fastest
    np.testing.assert_array_equal(
        phis[:, :3], -np.pi + np.pi * np.array(list(np.ndindex(2, 2, 2))))


@pytest.mark.parametrize("case", ["gen", "analyze", "analyze-oracle", "scan",
                                  "compare-lfm"])
def test_manifest_lists_every_output(tmp_path, case):
    spec = tmp_path / "g" / "spec.json"
    _run("gen", "--L", 2, "--h", 0.5, "--out", spec.parent)
    out = tmp_path / "out"
    analyze = ["--spec", spec, "--spectrum", "--acf", "--af", 3, 3, "--eoa",
               "--sidelobes", "--acf-n", 64]
    argv = {
        "gen": ["--L", 2, "--h", 0.5, "--seed", 1],
        "analyze": analyze,
        "analyze-oracle": [*analyze, "--oracle"],
        "scan": ["--h", 0.5, "--grid-n", 2, "--acf-n", 64],
        "compare-lfm": ["--tbp", 20, "--L", 2],
    }[case]
    command = case.removesuffix("-oracle")
    assert _run(command, *argv, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["outputs"] == sorted(
        p.name for p in out.iterdir() if p.name != "manifest.json")
    assert manifest["spec_file"] == {
        "gen": str(out / "spec.json"), "analyze": str(spec)}.get(command)
    assert manifest["python_version"] == platform.python_version()
    assert manifest["numpy_version"] == np.__version__
    stages = manifest["stages"]
    # one layer per stage: each kernel, oracle check and writer on its own
    assert [st["stage"] for st in stages] == ["parse", *{
        "gen": ["spec", "samples", "samples_csv"],
        "analyze": ["coefficients", "coefficients_csv", "spectrum",
                    "spectrum_csv", "acf", "acf_csv", "af", "af_csv", "eoa",
                    "sidelobes"],
        "analyze-oracle": ["coefficients", "coefficients_csv", "spectrum",
                           "spectrum_csv", "acf", "acf_oracle", "acf_csv",
                           "af", "af_csv", "eoa", "eoa_oracle", "sidelobes"],
        "scan": ["scan", "scan_csv"],
        "compare-lfm": ["ce_spectrum", "ce_spectrum_csv", "lfm_spectrum",
                        "lfm_spectrum_csv", "comparison"],
    }[case]]
    assert all(st["wall_s"] >= 0.0 for st in stages)
    # the grid kernels count the points they evaluated
    assert {st["stage"]: st["points"] for st in stages if "points" in st} \
        == {"gen": {"samples": 143},
            "analyze": {"spectrum": 1025, "acf": 65, "af": 9},
            "analyze-oracle": {"spectrum": 1025, "acf": 65, "af": 9},
            "scan": {"scan": 4},
            "compare-lfm": {"ce_spectrum": 4001, "lfm_spectrum": 4001}}[case]
    # the scan runs the coefficient engine once per time-shift orbit: the
    # 2 x 2 scan's four codes fall into two orbits
    assert {st["stage"]: st["orbits"] for st in stages if "orbits" in st} \
        == ({"scan": 2} if command == "scan" else {})
    # and the stage that computes the coefficients gives their order M
    orders = {st["stage"]: st["M"] for st in stages if "M" in st}
    if command == "analyze":
        M = len(compute_coefficients(load_spec(spec))) // 2
        assert orders == {"coefficients": M}
        rows = np.genfromtxt(out / "coefficients.csv", delimiter=",",
                             names=True)
        assert len(rows) == 2 * M + 1
    elif command == "compare-lfm":
        ce = WaveformSpec(T=1.0, h=h_for_tbp(20.0, 2),
                          code=random_psk_code(2, 32, 0))
        assert orders == {"ce_spectrum": len(compute_coefficients(ce)) // 2}
    else:
        assert orders == {}


def test_scan_small_grid_symmetry(tmp_path):
    out = tmp_path / "s"
    assert _run("scan", "--L", 2, "--tbp", 200, "--grid-n", 4,
                "--acf-n", 1024, "--out", out) == 0
    data = np.genfromtxt(out / "scan.csv", delimiter=",", names=True)
    assert len(data) == 16
    n = 4
    isl = data["isl_db"].reshape(n, n)
    for i in range(n):
        for j in range(n):
            assert isl[i, j] == pytest.approx(isl[(n - i) % n, (n - j) % n],
                                              abs=1e-9)


def test_cli_imports_nothing_private_from_the_oracle():
    # the product path shares no helper with its reference: compare-lfm's
    # nodes come from waveform.midpoints, not from the oracle's lattice
    tree = ast.parse(Path(cli.__file__).read_text())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "oracle"
             for alias in node.names}
    assert names and not any(name.startswith("_") for name in names)


def _lfm_chirp(tbp, T):
    # the unit-energy chirp of compare-lfm on its midpoint nodes
    delta_f = tbp / T
    t, d = midpoints(T, round(max(8.0 * delta_f, 64.0 / T) * T))
    return np.exp(1j * np.pi * (delta_f / T) * t * t) / np.sqrt(T), t, d


@pytest.mark.parametrize("T", [1.0, 2.5])
@pytest.mark.parametrize("tbp", [5, 20, 200, 1000])
def test_chirp_z_matches_direct_dft(tbp, T):
    # compare-lfm's transform: midpoint nodes t_n = (n + (1 - N) / 2) d and
    # its frequency grid; the direct sum runs on every 8th frequency, both
    # ends included, to keep the reference cheap
    s, t, d = _lfm_chirp(tbp, T)
    delta_f = tbp / T
    f = np.linspace(-2.0 * delta_f, 2.0 * delta_f, 4001)
    got = d * chirp_z(f[0] * d, 4.0 * delta_f / 4000 * d, (1 - len(t)) / 2,
                      len(t), len(f))(s)
    np.testing.assert_allclose(got[::8], _dft(s, t, d, f[::8]), rtol=0,
                               atol=1e-12)


def test_analyze_af_and_compare_lfm_reruns_are_byte_identical(tmp_path):
    spec = tmp_path / "g" / "spec.json"
    _run("gen", "--L", 24, "--tbp", 200, "--seed", 0, "--out", spec.parent)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert _run("analyze", "--spec", spec, "--af", 64, 64,
                    "--out", out) == 0
        assert _run("compare-lfm", "--tbp", 200, "--L", 24, "--out", out) == 0
    for name in ("af.csv", "ce_spectrum.csv", "lfm_spectrum.csv",
                 "comparison.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_compare_lfm_outputs(tmp_path):
    out = tmp_path / "c"
    assert _run("compare-lfm", "--tbp", 100, "--L", 8, "--seed", 0,
                "--out", out) == 0
    summary = json.loads((out / "comparison.json").read_text())
    assert summary["lfm_beta2_numeric"] == pytest.approx(
        summary["lfm_beta2_closed"], rel=1e-4)
    assert 0 < summary["lfm_oob_fraction"] < 1
    assert 0 < summary["ce_oob_fraction"] < 1
    ce = np.genfromtxt(out / "ce_spectrum.csv", delimiter=",", names=True)
    lfm = np.genfromtxt(out / "lfm_spectrum.csv", delimiter=",", names=True)
    assert len(ce) == len(lfm) == 4001
    f = lfm["f"][::8]
    s, t, d = _lfm_chirp(100.0, 1.0)
    np.testing.assert_allclose((lfm["re"] + 1j * lfm["im"])[::8],
                               _dft(s, t, d, f), rtol=0, atol=1e-12)
    spec = WaveformSpec(T=1.0, h=h_for_tbp(100.0, 8),
                        code=random_psk_code(8, 32, 0))
    np.testing.assert_allclose((ce["re"] + 1j * ce["im"])[::8],
                               spectrum_numeric(spec, oracle_fs(spec), f),
                               rtol=0, atol=1e-4)


def test_compare_lfm_fractions_do_not_move_with_band_edge_rounding(
        tmp_path):
    # |f| <= delta_f / 2 dropped a band edge node at --tbp 333.3, not at
    # 333.4, and the fractions differed by 2.1e-2 (relative)
    fractions = []
    for tbp in (333.3, 333.4):
        out = tmp_path / str(tbp)
        assert _run("compare-lfm", "--tbp", tbp, "--L", 24, "--out", out) == 0
        fractions.append(json.loads((out / "comparison.json").read_text()))
    for key in ("ce_oob_fraction", "lfm_oob_fraction"):
        assert fractions[0][key] == pytest.approx(fractions[1][key],
                                                  rel=1e-3)


@pytest.mark.parametrize("T", [1.0, 1.3, 2.5])
def test_oob_band_holds_1001_nodes(T):
    # compare-lfm's grid; with a unit density the in-band integral is the
    # band's width, delta_f: 1000 steps of delta_f / 1000, so 1001 nodes
    delta_f = 200.0 / T
    f = np.linspace(-2.0 * delta_f, 2.0 * delta_f, 4001)
    inband = 1.0 - cli._oob_fraction(f, np.ones_like(f))
    assert inband == pytest.approx(delta_f, rel=1e-12)


def test_default_acf_grid_resolves_a_large_tbp_mainlobe(tmp_path):
    # at TBP 2000, M = 4765: a fixed 4096-step grid read PSLR -21.58 dB
    out, rep = tmp_path / "g", tmp_path / "r"
    _run("gen", "--L", 24, "--tbp", 2000, "--seed", 0, "--out", out)
    assert _run("analyze", "--spec", out / "spec.json", "--acf",
                "--sidelobes", "--oracle", "--out", rep) == 0
    M = len(compute_coefficients(load_spec(out / "spec.json"))) // 2
    side = json.loads((rep / "sidelobes.json").read_text())
    n_tau = side["n_tau"]
    assert n_tau >= 4 * (2 * M + 1)
    # the report of a 2^20-step grid
    assert side["pslr_db"] == pytest.approx(-20.186004, abs=0.005)
    assert side["isl_db"] == pytest.approx(0.144903, abs=0.005)
    data = np.genfromtxt(rep / "acf.csv", delimiter=",", names=True)
    assert len(data) == n_tau + 1
    assert data["abs_err"].max() < 1e-6
    manifest = json.loads((rep / "manifest.json").read_text())
    assert manifest["parameters"]["acf_n"] is None
    assert [st["points"] for st in manifest["stages"]
            if st["stage"] == "acf"] == [n_tau + 1]


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        _run("frobnicate")
    assert exc.value.code == 2


def test_write_csv_matches_per_row_format(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    m = np.arange(-40, 41)
    x = rng.normal(size=m.size)
    x[0] = -0.0
    z = (rng.normal(size=m.size) + 1j * rng.normal(size=m.size)) \
        * 10.0 ** rng.uniform(-9.0, 1.0, m.size)
    z[:2] = [complex(-0.0, 0.0), complex(0.0, -0.0)]
    # the squared magnitude must follow abs(v) ** 2, not np.abs(z) ** 2
    assert np.any(np.abs(z) ** 2 != [abs(v) ** 2 for v in z])
    ref = "m,x,re,im,abs2\n" + "".join(
        f"{mi},{xi:.17g},{v.real:.17g},{v.imag:.17g},{abs(v) ** 2:.17g}\n"
        for mi, xi, v in zip(m, x, z))
    # 7 rows per block puts 11 block boundaries and a short tail in the table
    for block_rows in (cli._CSV_ROWS, 7):
        monkeypatch.setattr(cli, "_CSV_ROWS", block_rows)
        path = tmp_path / f"data{block_rows}.csv"
        write_csv(path, "m,x,re,im,abs2", [m, x, z])
        assert path.read_bytes() == ref.encode()


def _python(*args, openblas_threads=None, returncode=0):
    """Run a fresh interpreter with args, importing ceofdm from this tree,
    with OPENBLAS_NUM_THREADS set to openblas_threads, or unset for None.
    The exit code must be returncode; the finished process is returned."""
    src = str(Path(ceofdm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == returncode, (
        f"exit {proc.returncode}, want {returncode}; stderr:\n{proc.stderr}")
    return proc


def test_import_leaves_scipy_out():
    # hashlib would load libcrypto, which no command needs
    _python("-c", "import sys, ceofdm.cli\n"
            "for name in ('scipy', '_hashlib'):\n"
            "    assert name not in sys.modules, name")


def test_af_surface_leaves_numpy_ma_out(tmp_path):
    # np.unique imports numpy.ma, which no command needs
    _python("-c", "import sys\n"
            "from ceofdm.cli import main\n"
            f"out = {str(tmp_path)!r}\n"
            "assert main(['gen', '--L', '2', '--h', '0.5',"
            " '--out', out]) == 0\n"
            "assert main(['analyze', '--spec', out + '/spec.json', '--af',"
            " '3', '3', '--out', out + '/r']) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma loaded'")


def test_module_entry_exits_with_complete_output(tmp_path):
    out = tmp_path / "g"
    proc = _python("-m", "ceofdm.cli", "gen", "--L", "2", "--h", "0.5",
                   "--out", str(out))
    assert proc.stdout == (f"wrote {out / 'spec.json'} (h = 0.5) and "
                           f"{out / 'samples.csv'}\n")
    assert json.loads((out / "manifest.json").read_text())["command"] == "gen"
    bad = tmp_path / "bad"
    proc = _python("-m", "ceofdm.cli", "analyze", "--spec",
                   str(tmp_path / "nope.json"), "--eoa", "--out", str(bad),
                   returncode=2)
    assert proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "nope.json" in err[0] and proc.stderr.endswith("\n")
    assert not bad.exists()
    proc = _python("-m", "ceofdm.cli", "--version")
    assert proc.stdout == f"{__version__}\n"


def test_module_entry_skips_interpreter_teardown(tmp_path):
    # an atexit handler of the wrapping process would print; it must not run
    # after a command that succeeded
    out = tmp_path / "g"
    proc = _python("-c", "import atexit, runpy, sys\n"
                   "atexit.register(print, 'teardown ran')\n"
                   "sys.argv = ['ceofdm', 'gen', '--L', '2', '--h', '0.5',"
                   f" '--out', {str(out)!r}]\n"
                   "runpy.run_module('ceofdm.cli', run_name='__main__')")
    assert proc.stdout.startswith("wrote ")
    assert "teardown ran" not in proc.stdout
    assert (out / "manifest.json").is_file()


@pytest.mark.parametrize("exported", [None, "2"])
def test_import_pins_openblas_to_one_thread(exported):
    code = "import os, ceofdm; print(os.environ['OPENBLAS_NUM_THREADS'])"
    linux = sys.platform.startswith("linux")
    if linux:
        # one entry per OS thread of the process
        code += "; print(len(os.listdir('/proc/self/task')))"
    value, *threads = _python("-c", code,
                              openblas_threads=exported).stdout.split()
    # an exported value wins; unset, numpy loads with a single BLAS thread
    assert value == (exported or "1")
    if exported is None and linux:
        assert threads == ["1"]


def test_data_files_do_not_depend_on_blas_threads(tmp_path):
    # fresh processes, so OpenBLAS starts with the exported thread count
    spec = tmp_path / "g" / "spec.json"
    _run("gen", "--L", 24, "--tbp", 200, "--seed", 0, "--out", spec.parent)
    outs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        for argv in (["compare-lfm", "--tbp", "200", "--L", "24"],
                     ["analyze", "--spec", str(spec), "--spectrum",
                      "--af", "64", "64"]):
            _python("-m", "ceofdm.cli", *argv, "--out", str(out),
                    openblas_threads=threads)
        outs[threads] = {p.name: p.read_bytes() for p in out.iterdir()
                         if p.name != "manifest.json"}
    assert {"ce_spectrum.csv", "spectrum.csv", "af.csv"} <= outs["1"].keys()
    assert outs["1"] == outs["2"]

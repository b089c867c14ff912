import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ceofdm
from ceofdm import __version__
from ceofdm import cli
from ceofdm.cli import _chirp_z, main, write_csv
from ceofdm.eoa import h_for_tbp
from ceofdm.oracle import _dft, _nodes, oracle_fs, spectrum_numeric
from ceofdm.sidelobes import sidelobe_report
from ceofdm.waveform import (PskCode, WaveformSpec, load_spec, random_psk_code,
                             save_spec, wrap_phase)


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


def test_gen_phi_file(tmp_path):
    phi = np.array([0.1, -2.0, 3.0])
    pf = tmp_path / "phi.txt"
    np.savetxt(pf, phi)
    out = tmp_path / "g"
    assert _run("gen", "--L", 3, "--h", 0.5, "--phi-file", pf,
                "--out", out) == 0
    spec = load_spec(out / "spec.json")
    np.testing.assert_allclose(spec.code.phi, wrap_phase(phi), atol=1e-12)
    # wrong length is a usage error, reported on stderr with exit 2
    assert _run("gen", "--L", 5, "--h", 0.5, "--phi-file", pf,
                "--out", out) == 2


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
    out = tmp_path / "g"
    _run("gen", "--L", 1, "--h", 0.5, "--out", out)
    rep = tmp_path / "r"
    assert _run("analyze", "--spec", out / "spec.json", "--acf", "--oracle",
                "--acf-n", 16, "--out", rep) == 0
    data = np.genfromtxt(rep / "acf.csv", delimiter=",", names=True)
    assert "abs_err" in data.dtype.names
    assert data["abs_err"].max() < 1e-6


def test_analyze_sidelobes_and_manifest(tmp_path):
    out = tmp_path / "g"
    _run("gen", "--L", 2, "--tbp", 200, "--seed", 1, "--out", out)
    rep = tmp_path / "r"
    assert _run("analyze", "--spec", out / "spec.json", "--acf", "--af", 5, 5,
                "--sidelobes", "--acf-n", 1024, "--out", rep) == 0
    side = json.loads((rep / "sidelobes.json").read_text())
    assert side["null_found"] and side["pslr_db"] < 0
    # the report reuses the --acf delays, not the --af ones
    ref = sidelobe_report(load_spec(out / "spec.json"), n_tau=1024)
    assert (side["delta_tau"], side["pslr_db"], side["isl_db"]) == \
        (ref.delta_tau, ref.pslr_db, ref.isl_db)
    assert side["tau_max"] == 1.0
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
    code = PskCode(L=100, gamma=np.ones(100), phi=np.zeros(100))
    save_spec(WaveformSpec(T=1.0, h=25.0, code=code), tmp_path / "big.json")
    capsys.readouterr()
    out = tmp_path / "big"
    assert _run("analyze", "--spec", tmp_path / "big.json", "--eoa",
                "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: truncation order")
    assert not (out / "manifest.json").exists()


def test_analyze_rejects_empty_delay_grid(tmp_path, capsys):
    spec = tmp_path / "g" / "spec.json"
    _run("gen", "--L", 2, "--h", 0.5, "--out", spec.parent)
    # --sidelobes and scan need a mainlobe null, so at least 3 delay steps
    cases = [("analyze", "--spec", spec, flag, "--acf-n", n)
             for flag, n in (("--acf", 0), ("--sidelobes", 1),
                             ("--sidelobes", 2))]
    cases += [("scan", "--h", 0.5, "--grid-n", 2, "--acf-n", n)
              for n in (1, 2)]
    for i, argv in enumerate(cases):
        capsys.readouterr()
        out = tmp_path / f"r{i}"
        assert _run(*argv, "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: n_tau")
        assert "--acf-n" in err[0]
        # rejected before any data file, so the fresh --out is removed
        assert not out.exists()
    for sizes in ((-2, 5), (5, 0)):
        out = tmp_path / f"af{sizes}"
        assert _run("analyze", "--spec", spec, "--af", *sizes,
                    "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--af" in err[0]
        assert not out.exists()


def test_debug_env_reraises(tmp_path, monkeypatch):
    monkeypatch.setenv("CEOFDM_DEBUG", "1")
    out = tmp_path / "r"
    with pytest.raises(FileNotFoundError):
        _run("analyze", "--spec", tmp_path / "nope.json", "--eoa",
             "--out", out)
    assert not out.exists()


def test_scan_rejects_other_carrier_counts(tmp_path):
    out = tmp_path / "s"
    assert _run("scan", "--L", 3, "--h", 1.0, "--out", out) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "analyze", "scan",
                                     "compare-lfm"])
def test_manifest_lists_every_output(tmp_path, command):
    spec = tmp_path / "g" / "spec.json"
    _run("gen", "--L", 2, "--h", 0.5, "--out", spec.parent)
    out = tmp_path / "out"
    argv = {
        "gen": ["--L", 2, "--h", 0.5, "--seed", 1],
        "analyze": ["--spec", spec, "--spectrum", "--acf", "--af", 3, 3,
                    "--eoa", "--sidelobes", "--oracle", "--acf-n", 64],
        "scan": ["--h", 0.5, "--grid-n", 2, "--acf-n", 64],
        "compare-lfm": ["--tbp", 20, "--L", 2],
    }[command]
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
    assert [st["stage"] for st in stages] == ["parse", *{
        "gen": ["spec", "samples"],
        "analyze": ["coefficients", "spectrum", "acf", "acf_csv", "af",
                    "eoa", "sidelobes"],
        "scan": ["scan", "scan_csv"],
        "compare-lfm": ["ce_spectrum", "lfm_spectrum", "comparison"],
    }[command]]
    assert all(st["wall_s"] >= 0.0 for st in stages)


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


def _lfm_chirp(tbp, T):
    # the unit-energy chirp of compare-lfm on its midpoint nodes
    delta_f = tbp / T
    t, d = _nodes(-T / 2.0, T / 2.0, max(8.0 * delta_f, 64.0 / T),
                  midpoint=True)
    return np.exp(1j * np.pi * (delta_f / T) * t * t) / np.sqrt(T), t, d


@pytest.mark.parametrize("T", [1.0, 2.5])
@pytest.mark.parametrize("tbp", [5, 20, 200, 1000])
def test_chirp_z_matches_direct_dft(tbp, T):
    # compare-lfm's grid; the direct sum runs on every 8th frequency, both
    # ends included, to keep the reference cheap
    s, t, d = _lfm_chirp(tbp, T)
    delta_f = tbp / T
    f = np.linspace(-2.0 * delta_f, 2.0 * delta_f, 4001)
    got = _chirp_z(s, t[0], d, f[0], 4.0 * delta_f / 4000, len(f))
    np.testing.assert_allclose(got[::8], _dft(s, t, d, f[::8]), rtol=0,
                               atol=1e-12)


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
    spec = WaveformSpec(T=1.0, h=h_for_tbp(1.0, 100.0, 8),
                        code=random_psk_code(8, 32, 0))
    np.testing.assert_allclose((ce["re"] + 1j * ce["im"])[::8],
                               spectrum_numeric(spec, oracle_fs(spec), f),
                               rtol=0, atol=1e-4)


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


def _python(*args, openblas_threads=None):
    """Run a fresh interpreter with args, importing ceofdm from this tree,
    with OPENBLAS_NUM_THREADS set to openblas_threads, or unset for None."""
    src = str(Path(ceofdm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_leaves_scipy_out():
    # hashlib would load libcrypto, which no command needs
    _python("-c", "import sys, ceofdm.cli\n"
            "for name in ('scipy', '_hashlib'):\n"
            "    assert name not in sys.modules, name")


@pytest.mark.parametrize("exported", [None, "2"])
def test_import_pins_openblas_to_one_thread(exported):
    code = "import os, ceofdm; print(os.environ['OPENBLAS_NUM_THREADS'])"
    linux = sys.platform.startswith("linux")
    if linux:
        # one entry per OS thread of the process
        code += "; print(len(os.listdir('/proc/self/task')))"
    value, *threads = _python("-c", code, openblas_threads=exported).split()
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
                     ["analyze", "--spec", str(spec), "--spectrum"]):
            _python("-m", "ceofdm.cli", *argv, "--out", str(out),
                    openblas_threads=threads)
        outs[threads] = {p.name: p.read_bytes() for p in out.iterdir()
                         if p.name != "manifest.json"}
    assert {"ce_spectrum.csv", "spectrum.csv"} <= outs["1"].keys()
    assert outs["1"] == outs["2"]

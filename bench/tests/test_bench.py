"""Tests of the benchmark itself: tracer, output gate and the smoke size.

    python3 -m pytest bench/tests -q

Run from the repository root.  The smoke runs take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gates  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd, "bench", "run.py")),
                           *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.fixture(scope="module")
def smoke():
    """Final JSON of every workload at the smoke size, traced and not."""
    out = {}
    for w in ("design", "scan"):
        for trace in ("0", "1"):
            p = _bench("--workload", w, "--seed", "3", "--seconds", "0",
                       "--trace", trace, "--size", "smoke")
            assert p.returncode == 0, p.stderr
            out[w, trace] = json.loads(p.stdout.strip().splitlines()[-1])
    return out


def test_missing_entry_point_is_absent_and_its_time_goes_to_the_caller(
        tmp_path, monkeypatch):
    # A package in which the scan's weight cache has been replaced by an
    # unwrapped helper, as a later commit might do.
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "sidelobes.py").write_text(
        "import time\n\ndef build():\n    time.sleep(0.05)\n")
    (pkg / "cli.py").write_text(
        "import time\nfrom . import sidelobes\n\n"
        "def write_scan_csv():\n    time.sleep(0.01)\n\n"
        "def cmd_scan():\n    sidelobes.build()\n    write_scan_csv()\n"
        "    return 0\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.cli

    original = fakepkg.cli.cmd_scan
    tracer = spans.Tracer()
    absent, restore = spans.install(tracer, package="fakepkg")
    try:
        assert fakepkg.cli.cmd_scan() == 0
    finally:
        restore()
    assert fakepkg.cli.cmd_scan is original
    assert "sidelobes.AcfGridWeights" in absent
    assert "cli.cmd_scan" not in absent
    self_t = tracer.self_times()
    assert self_t["cli.scan"] >= 0.05  # the helper's time stays in cli.scan
    assert 0.01 <= self_t["cli.write.scan"] < 0.05
    m = spans.layer_metrics(tracer)
    assert m["closed_form.weights_builds"] == 0
    gone = spans.absent_metrics(absent, m)
    assert "closed_form.weights_builds" in gone
    assert "closed_form.weights_reuse_ratio" in gone
    assert "cli.write.scan_s" not in gone


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.02), "b.inner")
    outer = tracer.wrap(lambda: (inner(), time.sleep(0.02)), "a.outer")
    outer()
    self_t, total = tracer.self_times(), tracer.totals()
    assert total["a.outer"] >= 0.04
    assert self_t["a.outer"] == pytest.approx(
        total["a.outer"] - total["b.inner"])
    assert tracer.spans[1].parent == tracer.spans[0].id


@pytest.fixture(scope="module")
def analyze_out(tmp_path_factory):
    from ceofdm.cli import main

    d = tmp_path_factory.mktemp("analyze")
    assert main(["gen", "--L", "3", "--tbp", "20", "--seed", "1",
                 "--out", str(d)]) == 0
    assert main(["analyze", "--spec", str(d / "spec.json"), "--acf",
                 "--af", "6", "5", "--sidelobes", "--acf-n", "256",
                 "--out", str(d)]) == 0
    return d


@pytest.mark.parametrize("name, row, col, expect", [
    ("acf.csv", 1, 1, "R(0)"),
    ("af.csv", 2, 2, "conj chi"),
])
def test_gate_trips_on_corrupted_output(analyze_out, tmp_path, name, row,
                                        col, expect):
    assert gates.check("analyze", analyze_out) == []
    bad = tmp_path / "bad"
    shutil.copytree(analyze_out, bad)
    lines = (bad / name).read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + 1e-9)
    lines[row] = ",".join(cells)
    (bad / name).write_text("\n".join(lines) + "\n")
    problems = gates.check("analyze", bad)
    assert len(problems) == 1 and expect in problems[0]


def test_smoke_emits_every_metric_with_its_unit(smoke):
    for (w, trace), result in smoke.items():
        key = "per_layer" if trace == "1" else "end_to_end"
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {n: v["unit"] for n, v in result["metrics"].items()}
        assert got == want, (w, trace)
        assert result["correct"] and result["failed"] == 0, (w, trace)
        assert result["attempted"] >= 1
        for n, v in result["metrics"].items():
            assert isinstance(v["value"], float), (w, trace, n)
        if trace == "0":
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_unchanged_seed_gives_unchanged_bytes_out(smoke):
    p = _bench("--workload", "design", "--seed", "3", "--seconds", "0",
               "--trace", "1", "--size", "smoke")
    again = json.loads(p.stdout.strip().splitlines()[-1])
    first = smoke["design", "1"]["metrics"]["cli.bytes_out"]["value"]
    assert first > 0
    assert again["metrics"]["cli.bytes_out"]["value"] == first


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _bench("--workload", "design", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout.strip() == ""

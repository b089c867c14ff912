"""Benchmark of the ceofdm command-line tool, run the way users run it.

    python3 bench/run.py --workload design --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; the package is imported from ./src.
Each CLI command is a fresh process (`python -m ceofdm.cli ...`), and the
commands of a session run one after another, each waiting for the previous
one: a closed loop with a single client.  Sessions repeat while the next
one, taken to last as long as the previous, still ends within --seconds.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
the first session again with each command going through
`ceofdm.cli.main(argv)` inside traced_cli.py, which puts timing spans around
each module's entry points (see spans.py), and reports the per-layer
metrics.  `--workload all` runs every workload in turn and prints
every metric with its unit and sample count.

Each run also gates every output (gates.py), reruns one command to check
that its data files are byte-identical, and writes a run record and, when
traced, the spans under .bench_out/.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
THREAD_VARS = ("CEOFDM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@dataclass
class Proc:
    """Outcome of one child process, from os.wait4."""

    rc: int
    wall: float
    cpu: float
    rss_mb: float
    log: Path


@dataclass
class Tally:
    """Commands attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


class Runner:
    """Starts child interpreters on the checkout's sources, one at a time."""

    def __init__(self, root: Path, logs: Path, deadline: float):
        self.root = root
        self.logs = logs
        self.deadline = deadline
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
        self._n = 0

    def left(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, args: list[str], env: dict | None = None) -> Proc:
        self._n += 1
        log = self.logs / f"{self._n:04d}.log"
        timeout = max(1.0, self.left())
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            p = subprocess.Popen([sys.executable, *args], stdout=fh,
                                 stderr=subprocess.STDOUT, env=env or self.env,
                                 cwd=self.root, start_new_session=True)
            timer = threading.Timer(timeout, _kill_group, (p.pid,))
            timer.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            except BaseException:
                _kill_group(p.pid)
                os.waitpid(p.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        # wait4 reaped the child; tell Popen so it does not wait again.
        p.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux and covers the command's own reaped
        # children (the scan's pool workers), not earlier commands.
        return Proc(p.returncode, wall, ru.ru_utime + ru.ru_stime,
                    ru.ru_maxrss / 1024.0, log)

    def cli(self, cmd: workloads.Command, env: dict | None = None) -> Proc:
        return self.run(["-m", "ceofdm.cli", *cmd.argv], env)


def _problems(cmd: workloads.Command, p: Proc) -> list[str]:
    if p.rc != 0:
        tail = p.log.read_text(errors="replace").strip().splitlines()[-1:]
        return [f"exit {p.rc}"] + tail
    return gates.check(cmd.name, cmd.out)


def _identical(first: Path, again: Path) -> list[str]:
    a, b = gates.data_files(first), gates.data_files(again)
    if not a:
        return ["determinism: no data files"]
    if a != b:
        diff = sorted(n for n in a.keys() | b.keys() if a.get(n) != b.get(n))
        return [f"determinism: rerun differs in {', '.join(diff)}"]
    return []


def _inputs(cmd: workloads.Command) -> list[str]:
    argv = list(cmd.argv)
    i = argv.index("--out")
    return argv[:i] + argv[i + 2:]


class RerunCheck:
    """One command run twice on the same inputs must write the same bytes.

    A later command with the same arguments (every scan session repeats the
    same scan) serves as the rerun; otherwise the command runs once more
    after the timed sessions.
    """

    def __init__(self, first: workloads.Command):
        self.first = first
        self.problems = None

    def offer(self, cmd: workloads.Command) -> None:
        if self.problems is None and _inputs(cmd) == _inputs(self.first):
            self.problems = _identical(self.first.out, cmd.out)

    def finish(self, runner: Runner) -> list[str]:
        if self.problems is None:
            again = self.first.with_out(self.first.out.parent / "rerun")
            self.problems = (_problems(again, runner.cli(again))
                             or _identical(self.first.out, again.out))
        return self.problems


def warm_up(runner: Runner) -> None:
    """Discarded fresh import: compiles the package's bytecode and warms the
    page cache for it and its libraries before any timing.  Import itself
    stays in every timed command, as users pay it on each one."""
    runner.run(["-c", "import ceofdm"])


def run_session(w, runner, work, i, tally, env=None) -> dict:
    cmds = w.session(i, work)
    t0 = time.perf_counter()
    procs = [runner.cli(cmd, env) for cmd in cmds]
    wall = time.perf_counter() - t0
    for cmd, p in zip(cmds, procs):
        tally.record(f"session {i} {cmd.name}", _problems(cmd, p))
    return {"wall": wall, "cpu": sum(p.cpu for p in procs),
            "rss_mb": max(p.rss_mb for p in procs),
            "cmds": {cmd.name: p.wall for cmd, p in zip(cmds, procs)},
            "rerun": cmds[w.determinism_index]}


def _setup_import(runner, tally, setup) -> None:
    p = runner.run(["-c", "import ceofdm"])
    tally.record("setup import", [f"exit {p.rc}"] if p.rc else [])
    setup.append(p.wall)


def _another(start: float, seconds: float, last: float, runner) -> bool:
    """Whether one more session, as long as the last, ends within the run."""
    ends = time.perf_counter() - start + last
    return ends <= seconds and runner.left() > 1.5 * last + 5.0


def untraced(w, runner, work, seconds, tally) -> tuple[dict, dict]:
    warm_up(runner)
    # The set-up imports are spread over the run, one before each of the
    # first sessions, so that their median does not rest on one moment of
    # a host whose speed drifts.
    setup, sessions = [], []
    start = time.perf_counter()
    while True:
        i = len(sessions)
        if len(setup) < SETUP_REPEATS:
            _setup_import(runner, tally, setup)
        s = run_session(w, runner, work, i, tally)
        sessions.append(s)
        if i == 0:
            check = RerunCheck(s["rerun"])
        else:
            check.offer(s["rerun"])
            shutil.rmtree(work / f"s{i}")
        pending = setup[-1] if len(setup) < SETUP_REPEATS else 0.0
        if not _another(start, seconds, s["wall"] + pending, runner):
            break
    while len(setup) < SETUP_REPEATS:
        _setup_import(runner, tally, setup)
    tally.record("rerun", check.finish(runner))
    samples = {
        "setup_s": setup,
        "wall_s": [s["wall"] for s in sessions],
        "cpu_s": [s["cpu"] for s in sessions],
        "peak_rss_mb": [s["rss_mb"] for s in sessions],
    }
    for name in sessions[0]["cmds"]:
        samples[f"{name}_s"] = [s["cmds"][name] for s in sessions]
    values = {k: statistics.median(v) for k, v in samples.items()}
    values["peak_rss_mb"] = max(samples["peak_rss_mb"])
    return values, samples


def import_times(runner) -> dict[str, list[float]]:
    """`python -X importtime -c "import ceofdm"`, split by package."""
    out = {"import.total_s": [], "import.numpy_s": [], "import.scipy_s": []}
    for _ in range(IMPORTTIME_REPEATS):
        p = runner.run(["-X", "importtime", "-c", "import ceofdm"])
        own = {"numpy": 0.0, "scipy": 0.0}
        total = None
        for line in p.log.read_text().splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                self_us, cum_us = int(parts[0].split(":")[1]), int(parts[1])
            except ValueError:
                continue  # the header line
            name = parts[2].strip()
            top = name.split(".")[0]
            if top in own:
                own[top] += self_us * 1e-6
            if name == "ceofdm":
                total = cum_us * 1e-6
        if p.rc != 0 or total is None:
            raise RuntimeError(f"import of ceofdm failed, see {p.log}")
        out["import.total_s"].append(total)
        out["import.numpy_s"].append(own["numpy"])
        out["import.scipy_s"].append(own["scipy"])
    return out


def traced_session(w, runner, work, k, tally, env):
    """Session 0 again, each command through traced_cli.py."""
    d = work / f"traced{k}"
    cmds = w.session(0, d)
    parts = []
    t0 = time.perf_counter()
    for cmd in cmds:
        path = d / f"{cmd.name}.spans.json"
        p = runner.run([str(HERE / "traced_cli.py"), str(path), *cmd.argv],
                       env)
        tally.record(f"traced {k} {cmd.name}", _problems(cmd, p))
        if path.is_file():
            parts.append(json.loads(path.read_text()))
    wall = time.perf_counter() - t0
    tracer = spans.merge(parts, run=f"{w.name}-{w.seed}-t{k}")
    m = spans.layer_metrics(tracer)
    m["cli.bytes_out"] = float(sum(gates.data_bytes(c.out) for c in cmds
                                   if c.out.is_dir()))
    m["trace.session_s"] = wall
    shutil.rmtree(d)
    return m, tracer, parts[0]["absent"] if parts else []


def traced(w, runner, work, seconds, tally, out_dir) -> tuple[dict, dict]:
    warm_up(runner)
    imports = import_times(runner)
    start = time.perf_counter()  # the untraced reference runs count too
    base = run_session(w, runner, work, 0, tally)
    check = RerunCheck(base["rerun"])
    env = runner.env
    if w.name == "scan":
        # Serial, so that no span is lost inside a pool worker.  The
        # untraced reference for the tracing overhead is serial too.
        env = {**runner.env, "CEOFDM_THREADS": "1"}
        ref = run_session(w, runner, work / "serial", 0, tally, env)
        check.offer(ref["rerun"])
    else:
        ref = base
    tally.record("rerun", check.finish(runner))

    per_session, records, absent = [], [], []
    count_errors = set()
    while True:
        m, tracer, absent = traced_session(w, runner, work, len(per_session),
                                           tally, env)
        per_session.append(m)
        records.extend(tracer.as_records())
        count_errors |= tracer.count_errors
        if not _another(start, seconds, m["trace.session_s"], runner):
            break

    samples = {k: [m[k] for m in per_session] for k in per_session[0]}
    samples.update(imports)
    values = {k: statistics.median(v) for k, v in samples.items()}
    scan_s = base["cmds"].get("scan")
    values["sidelobes.pool_speedup"] = (
        values["sidelobes.scan_serial_s"] / scan_s if scan_s else 0.0)
    values["trace.overhead_s"] = values["trace.session_s"] - ref["wall"]
    for name, t in base["cmds"].items():
        values[f"untraced.{name}_s"] = t
    (out_dir / f"trace-{w.name}-seed{w.seed}.json").write_text(
        json.dumps(records) + "\n")
    extra = {"absent_entry_points": absent,
             "absent_metrics": spans.absent_metrics(absent, values),
             "counter_errors": sorted(count_errors),
             "traced_sessions": len(per_session)}
    return values, {"samples": samples, **extra}


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                           capture_output=True, text=True)
    except OSError:  # no git installed
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def run_record(root: Path, w, args) -> dict:
    return {
        "workload": w.name, "seed": w.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _percentile(values: list[float]) -> str:
    """Highest of p50..p99.9 with at least ten samples beyond it."""
    xs = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(xs) * (1.0 - p / 100.0) >= 10.0:
            rank = min(len(xs) - 1, int(len(xs) * p / 100.0))
            return f"p{p:g}={xs[rank]:.6g}"
    return "p-: n<20"


def _unit(name: str, units: dict) -> str:
    if name in units:
        return units[name]
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "count"


def print_table(title: str, values: dict, samples: dict, units: dict,
                tally: Tally) -> None:
    print(f"== {title}")
    print(f"  {'metric':34} {'value':>14} {'unit':6} {'high pct':>16}  n")
    for name, v in values.items():
        xs = samples.get(name, [v])
        print(f"  {name:34} {v:14.6g} {_unit(name, units):6} "
              f"{_percentile(xs):>16}  {len(xs)}")
    frac = len(tally.failures) / max(tally.attempted, 1)
    print(f"  {'failed_frac':34} {frac:14.6g} {'1':6} {'':>16}  "
          f"{tally.attempted}")
    for f in tally.failures:
        print(f"  FAILED {f}")


def bench_one(root: Path, name: str, args, spec: dict) -> dict:
    out_dir = root / ".bench_out"
    work = out_dir / f"work-{name}-{args.seed}-{os.getpid()}"
    logs = work / "logs"
    logs.mkdir(parents=True)
    w = workloads.make(name, args.seed, args.size)
    runner = Runner(root, logs, time.perf_counter() + RUN_LIMIT_S)
    tally = Tally()
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    try:
        if args.trace:
            values, extra = traced(w, runner, work, args.seconds, tally,
                                   out_dir)
            samples = extra["samples"]
        else:
            values, samples = untraced(w, runner, work, args.seconds, tally)
            extra = {"samples": samples}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {**run_record(root, w, args), **extra,
              "attempted": tally.attempted, "failures": tally.failures,
              "values": values}
    path = out_dir / f"record-{name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print_table(f"{name} seed {args.seed} trace {args.trace}", values,
                samples, units, tally)
    for item in extra.get("absent_metrics", []):
        print(f"  ABSENT {item}")
    print(f"  record: {path.relative_to(root)}")
    missing = [m for m in units if m not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    return {"correct": not tally.failures, "attempted": tally.attempted,
            "failed": len(tally.failures),
            "metrics": {m: {"value": values[m], "unit": u}
                        for m, u in units.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                    help="smoke shrinks every problem, for the tests")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ceofdm" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/ceofdm",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: bench_one(root, name, args, spec) for name in names}
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

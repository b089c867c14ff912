"""Timing spans around the package's public entry points, for the traced run.

Each entry of TARGETS names a module, an attribute in it and the span that a
call through that attribute records.  Wrappers replace the attribute at the
name the callers look up (for example `ceofdm.cli.acf_uniform`, not
`ceofdm.closed_form.acf_uniform`, because the CLI imported it by name), so
the program's own code is not changed.  An entry whose module or attribute
no longer exists is reported as absent; its time then falls into the self
time of whichever span called it.

Spans are kept in memory as (id, name, start, end, parent, run) and written
out when the run ends.  Self time is a span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


@dataclass
class Tracer:
    """Span recorder plus counters recorded at the same boundaries."""

    run: str = "0"
    spans: list[Span] = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=list)
    # counters that could not read a result (its shape changed): by span
    count_errors: set = field(default_factory=set)
    # id -> object, holding each weights object so its id is not reused
    _weights_seen: dict = field(default_factory=dict)

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(sid, name, 0.0, 0.0, parent, self.run)
            self.spans.append(span)
            self._stack.append(sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                try:
                    count(self, args, kwargs, result)
                except (TypeError, AttributeError, IndexError, KeyError):
                    self.count_errors.add(name)
            return result
        return traced

    def self_times(self) -> dict[str, float]:
        covered = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        out = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - covered[s.id]
        return out

    def totals(self) -> dict[str, float]:
        out = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.end - s.start
        return out

    def calls(self) -> dict[str, int]:
        out = defaultdict(int)
        for s in self.spans:
            out[s.name] += 1
        return out

    def as_records(self) -> list[dict]:
        return [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run": s.run} for s in self.spans]


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _count_coeffs(tr, args, kwargs, result):
    tr.counts["gbf.max_M"] = max(tr.counts["gbf.max_M"], result.M)


def _count_acf(tr, args, kwargs, result):
    tau = result[0]
    tr.counts["closed_form.acf_delays"] += len(tau)
    weights = _arg(args, kwargs, 4, "weights")
    if weights is not None:
        if id(weights) in tr._weights_seen:
            tr.counts["closed_form.acf_reused"] += 1
        tr._weights_seen[id(weights)] = weights


def _count_af(tr, args, kwargs, result):
    tr.counts["closed_form.af_points"] += result.chi.size


def _count_spectrum(tr, args, kwargs, result):
    tr.counts["closed_form.spectrum_points"] += len(result.f)


def _count_scan(tr, args, kwargs, result):
    tr.counts["sidelobes.scan_points"] += result.isl_db.size


def _count_af_grid(tr, args, kwargs, result):
    tr.counts["oracle.af_delays"] += result.shape[0]


# (module, attribute, span name, counter)
TARGETS = (
    ("cli", "cmd_gen", "cli.gen", None),
    ("cli", "cmd_analyze", "cli.analyze", None),
    ("cli", "cmd_scan", "cli.scan", None),
    ("cli", "cmd_compare_lfm", "cli.compare_lfm", None),
    ("cli", "write_coefficients_csv", "cli.write.coefficients", None),
    ("cli", "write_spectrum_csv", "cli.write.spectrum", None),
    ("cli", "write_acf_csv", "cli.write.acf", None),
    ("cli", "write_surface_csv", "cli.write.surface", None),
    ("cli", "write_scan_csv", "cli.write.scan", None),
    ("cli", "sample", "waveform.sample", None),
    ("cli", "sample_times", "waveform.sample_times", None),
    ("cli", "oversample_floor", "waveform.oversample_floor", None),
    ("cli", "load_spec", "waveform.io", None),
    ("cli", "save_spec", "waveform.io", None),
    ("cli", "random_psk_code", "waveform.code", None),
    ("oracle", "phase_at", "waveform.phase_eval", None),
    ("oracle", "freq_mod_at", "waveform.phase_eval", None),
    ("cli", "compute_coefficients", "gbf.coeffs", _count_coeffs),
    ("closed_form", "compute_coefficients", "gbf.coeffs", _count_coeffs),
    ("sidelobes", "compute_coefficients", "gbf.coeffs", _count_coeffs),
    ("cli", "acf_uniform", "closed_form.acf", _count_acf),
    ("sidelobes", "acf_uniform", "closed_form.acf", _count_acf),
    ("sidelobes", "AcfGridWeights", "closed_form.weights", None),
    ("cli", "af_surface", "closed_form.af", _count_af),
    ("cli", "spectrum", "closed_form.spectrum", _count_spectrum),
    ("cli", "sidelobe_report", "sidelobes.sidelobe_report", None),
    ("sidelobes", "report_from_acf", "sidelobes.report", None),
    ("cli", "metric_surface", "sidelobes.scan", _count_scan),
    ("cli", "eoa_closed_form", "eoa.closed_form", None),
    ("cli", "rho_norm_max", "eoa.rho_norm_max", None),
    ("cli", "h_for_tbp", "eoa.h_for_tbp", None),
    ("cli", "af_numeric_grid", "oracle.af_grid", _count_af_grid),
    ("cli", "rms_bandwidth_numeric", "oracle.moments", None),
    ("cli", "rms_pulselength_numeric", "oracle.moments", None),
    ("cli", "rdcf_numeric", "oracle.moments", None),
)

WRITERS = ("coefficients", "spectrum", "acf", "surface", "scan")
COMMANDS = ("cli.gen", "cli.analyze", "cli.scan", "cli.compare_lfm")
# Layers whose total self time is reported as <layer>.self_s; gbf has one
# span (gbf.coeffs_s), eoa reports as eoa.s and cli splits into cli.self_s
# and cli.write_s.
SELF_LAYERS = ("waveform", "closed_form", "sidelobes", "oracle")


def install(tracer: Tracer, package: str = "ceofdm"):
    """Wrap every target that exists; return (absent names, undo function)."""
    absent, undo = [], []
    for mod_name, attr, span, count in TARGETS:
        try:
            mod = importlib.import_module(f"{package}.{mod_name}")
        except ImportError:
            mod = None
        fn = getattr(mod, attr, None)
        if fn is None:
            absent.append(f"{mod_name}.{attr}")
            continue
        setattr(mod, attr, tracer.wrap(fn, span, count))
        undo.append((mod, attr, fn))

    def restore():
        for mod, attr, fn in reversed(undo):
            setattr(mod, attr, fn)
    return absent, restore


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced session (times in s)."""
    self_t, total, calls = tracer.self_times(), tracer.totals(), tracer.calls()
    c = tracer.counts
    m = {
        "waveform.sample_s": self_t["waveform.sample"],
        "waveform.phase_eval_s": self_t["waveform.phase_eval"],
        "gbf.coeffs_s": self_t["gbf.coeffs"],
        "gbf.coeffs_calls": calls["gbf.coeffs"],
        "gbf.max_M": c["gbf.max_M"],
        "closed_form.acf_s": self_t["closed_form.acf"],
        "closed_form.acf_calls": calls["closed_form.acf"],
        "closed_form.acf_delays": c["closed_form.acf_delays"],
        "closed_form.weights_s": self_t["closed_form.weights"],
        "closed_form.weights_builds": calls["closed_form.weights"],
        "closed_form.weights_reuse_ratio": (
            c["closed_form.acf_reused"] / calls["closed_form.acf"]
            if calls["closed_form.acf"] else 0.0),
        "closed_form.af_s": self_t["closed_form.af"],
        "closed_form.af_points": c["closed_form.af_points"],
        "closed_form.spectrum_s": self_t["closed_form.spectrum"],
        "closed_form.spectrum_points": c["closed_form.spectrum_points"],
        "sidelobes.report_s": self_t["sidelobes.report"],
        "sidelobes.reports": calls["sidelobes.report"],
        "sidelobes.scan_serial_s": total["sidelobes.scan"],
        "sidelobes.scan_point_ms": (
            1e3 * total["sidelobes.scan"] / c["sidelobes.scan_points"]
            if c["sidelobes.scan_points"] else 0.0),
        "oracle.af_grid_s": self_t["oracle.af_grid"],
        "oracle.af_delays": c["oracle.af_delays"],
        "oracle.moments_s": self_t["oracle.moments"],
        # inclusive: the quadrature plus the phase evaluations it makes
        "oracle.total_s": total["oracle.af_grid"] + total["oracle.moments"],
        "cli.write_s": sum(self_t[f"cli.write.{w}"] for w in WRITERS),
        "cli.self_s": sum(self_t[name] for name in COMMANDS),
        "cli.traced_s": sum(total[name] for name in COMMANDS),
    }
    for w in WRITERS:
        m[f"cli.write.{w}_s"] = self_t[f"cli.write.{w}"]
    layer_self = defaultdict(float)
    for name, t in self_t.items():
        layer_self[name.split(".")[0]] += t
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["eoa.s"] = layer_self["eoa"]
    m["trace.spans"] = len(tracer.spans)
    return {k: float(v) for k, v in m.items()}


def merge(parts: list[dict], run: str) -> Tracer:
    """One tracer from the span files of the commands of one session."""
    tr = Tracer(run=run)
    for part in parts:
        base = len(tr.spans)
        for r in part["spans"]:
            parent = None if r["parent"] is None else base + r["parent"]
            tr.spans.append(Span(base + r["id"], r["name"], r["start"],
                                 r["end"], parent, run))
        for key, v in part["counts"].items():
            tr.counts[key] = (max(tr.counts[key], v) if key == "gbf.max_M"
                              else tr.counts[key] + v)
        tr.count_errors.update(part["count_errors"])
    return tr


def absent_metrics(absent: list[str], metrics) -> list[str]:
    """Metrics that no installed wrapper can feed (reported as 0)."""
    spans = {}
    for mod, attr, span, _ in TARGETS:
        spans[span] = spans.get(span, False) or f"{mod}.{attr}" not in absent
    gone = [span for span, installed in spans.items() if not installed]
    return sorted(m for m in metrics
                  if any(m.startswith(span + "_") for span in gone))

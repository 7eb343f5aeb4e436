"""Spans around the package's public functions, recorded from outside the package.

Each patch point replaces one name in the module where callers look it up
(for example `adr_lab.solver3d.reaction_rates_field`, not only the defining
module), so the wrapper sees every call made through that name.  A span is
(id, layer, start, end, parent id, run id, extra); spans stay in memory and
are written out once, when the child process ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time
from pathlib import Path

# (layer, module the name is looked up in, attribute).  A dotted attribute is
# a method patched on its class.
PATCH_POINTS: tuple[tuple[str, str, str], ...] = (
    ("cli.execute", "adr_lab.cli", "execute"),
    ("cli.write_csv", "adr_lab.cli", "write_csv"),
    ("cli.write_slice", "adr_lab.cli", "write_slice"),
    ("solver3d.run3d", "adr_lab.cli", "run3d"),
    ("solver3d.step3d", "adr_lab.solver3d", "step3d"),
    ("chemistry.reaction_rates_field", "adr_lab.solver3d", "reaction_rates_field"),
    ("solver2d.run2d", "adr_lab.cli", "run2d"),
    ("solver2d.step2d", "adr_lab.solver2d", "step2d"),
    ("grid.zero_dirichlet", "adr_lab.solver3d", "zero_dirichlet"),
    ("grid.zero_dirichlet", "adr_lab.solver2d", "zero_dirichlet"),
    ("grid.zero_dirichlet", "adr_lab.analytic2d", "zero_dirichlet"),
    ("grid.zero_dirichlet", "adr_lab.grid", "zero_dirichlet"),
    ("grid.zero_dirichlet", "adr_lab.cli", "zero_dirichlet"),
    ("grid.Field.copy", "adr_lab.grid", "Field.copy"),
    ("snapshots.append", "adr_lab.snapshots", "SnapshotSeries.append"),
    ("analytic2d.build_series", "adr_lab.cli", "build_series"),
    ("analytic2d.sample_series", "adr_lab.diagnostics", "sample_series"),
    ("diagnostics.max_error_vs_analytic", "adr_lab.cli", "max_error_vs_analytic"),
    ("diagnostics.positivity_check", "adr_lab.cli", "positivity_check"),
    ("diagnostics.l2_norm", "adr_lab.cli", "l2_norm"),
    ("diagnostics.l2_norm", "adr_lab.diagnostics", "l2_norm"),
    ("diagnostics.TrajectoryLog.append", "adr_lab.diagnostics", "TrajectoryLog.append"),
)

ROOT = "cli.execute"

# Per-layer metrics in report order, with units.
PER_LAYER_UNITS = {
    "solver3d.step3d.ms.p50": "ms",
    "solver3d.step3d.ms.p90": "ms",
    "solver3d.step3d.self_ms_per_step": "ms",
    "solver3d.step3d.bytes_computed_per_step": "B",
    "solver3d.step3d.gbps_computed": "GB/s",
    "chemistry.reaction_rates_field.ms_per_call": "ms",
    "chemistry.reaction_rates_field.calls": "count",
    "solver3d.run3d.self_ms_per_step": "ms",
    "grid.zero_dirichlet.ms_per_call": "ms",
    "grid.Field.copy.mb": "MB",
    "snapshots.append.calls": "count",
    "snapshots.retained_mb": "MB",
    "cli.write_csv.ms_total": "ms",
    "cli.write_csv.rows": "count",
    "cli.write_csv.mb": "MB",
    "cli.write_csv.rows_per_s": "1/s",
    "cli.write_slice.ms_per_call": "ms",
    "diagnostics.TrajectoryLog.append.ms_total": "ms",
    "diagnostics.positivity_check.ms": "ms",
    "diagnostics.l2_norm.ms_total": "ms",
    "analytic2d.sample_series.ms_per_call": "ms",
    "analytic2d.build_series.ms": "ms",
    "diagnostics.max_error_vs_analytic.self_ms": "ms",
    "solver2d.step2d.us.p50": "us",
    "solver2d.run2d.self_ms": "ms",
    "cli.execute.self_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_pct": "%",
}


class TraceGuardError(RuntimeError):
    """A patch point is missing, or an expected layer recorded no calls."""


def _retained_bytes(result) -> int:
    series = result[0] if isinstance(result, tuple) else result
    return (sum(f.values.nbytes for f in series.fields)
            + sum(p.nbytes for p in series.slices))


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    fn = getattr(owner, leaf, None) if owner is not None else None
    if not callable(fn):
        raise TraceGuardError(f"patch point {module_name}.{attr} is missing")
    return owner, leaf, fn


class Tracer:
    """Installs the wrappers and collects spans for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = 0
        self._ids = itertools.count()
        # one call stack per thread, so spans from worker threads nest correctly
        self._local = threading.local()

    def install(self) -> None:
        wrapped = {}
        for layer, module_name, attr in PATCH_POINTS:
            owner, leaf, fn = _resolve(module_name, attr)
            if fn not in wrapped:
                wrapped[fn] = self._wrap(layer, fn)
            setattr(owner, leaf, wrapped[fn])

    def _wrap(self, layer: str, fn):
        clock = time.perf_counter
        spans = self.spans
        ids = self._ids
        local = self._local
        counts_rows = layer == "cli.write_csv"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            extra = None
            if counts_rows:
                # rows = lines of the written file minus its header line
                data = Path(args[0] if args else kwargs["path"]).read_bytes()
                extra = [data.count(b"\n") - 1, len(data)]
            elif layer == "grid.Field.copy":
                extra = result.values.nbytes
            elif layer in ("solver3d.run3d", "solver2d.run2d"):
                extra = _retained_bytes(result)
            spans.append((span_id, layer, start, end, parent, self.run_id, extra))
            return result

        return wrapper


def _self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _, start, end, _, _, _ in spans:
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(span_id, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span_id] = (end - start) - covered
    return out


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(children: list[dict], untraced_call_s: list[float],
                  field_bytes: int) -> tuple[dict, dict, dict]:
    """Per-layer metrics from the spans of traced children.

    children: one dict per traced child with "spans" and "calls" (each call has
    "seconds", the child's own timer around execute).  Totals and counts are
    per execute call.  Returns (metrics, layer call counts, self-time shares).
    """
    dur: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    extras: dict[str, list] = {}
    root_s = outer_s = 0.0
    n_calls = 0
    traced_call_s = []
    for child in children:
        spans = [tuple(s) for s in child["spans"]]
        selfs = _self_times(spans)
        for span_id, layer, start, end, _, _, extra in spans:
            dur.setdefault(layer, []).append(end - start)
            self_s[layer] = self_s.get(layer, 0.0) + selfs[span_id]
            if extra is not None:
                extras.setdefault(layer, []).append(extra)
            if layer == ROOT:
                root_s += end - start
        for call in child["calls"]:
            n_calls += 1
            outer_s += call["seconds"]
            traced_call_s.append(call["seconds"])
    if n_calls == 0:
        raise TraceGuardError("no traced execute calls completed")

    def count(layer):
        return len(dur.get(layer, ()))

    def total_ms(layer):
        return 1e3 * sum(dur.get(layer, ())) / n_calls

    def mean_ms(layer):
        d = dur.get(layer, ())
        return 1e3 * statistics.fmean(d) if d else 0.0

    def self_ms(layer):
        return 1e3 * self_s.get(layer, 0.0) / n_calls

    steps3d = count("solver3d.step3d")
    step3d_p50_ms = 1e3 * _quantile(dur.get("solver3d.step3d", []), 0.5)
    bytes_per_step = 2 * field_bytes if steps3d else 0
    csv = extras.get("cli.write_csv", [])
    csv_rows = sum(r for r, _ in csv)
    csv_s = sum(dur.get("cli.write_csv", ()))
    untraced_p50 = statistics.median(untraced_call_s) if untraced_call_s else 0.0
    m = {
        "solver3d.step3d.ms.p50": step3d_p50_ms,
        "solver3d.step3d.ms.p90": 1e3 * _quantile(dur.get("solver3d.step3d", []), 0.9),
        "solver3d.step3d.self_ms_per_step":
            1e3 * self_s.get("solver3d.step3d", 0.0) / steps3d if steps3d else 0.0,
        # computed from array sizes: one read of the old state and one write of
        # the new state per step; temporaries and cache misses are not counted
        "solver3d.step3d.bytes_computed_per_step": bytes_per_step,
        "solver3d.step3d.gbps_computed":
            bytes_per_step / step3d_p50_ms / 1e6 if steps3d else 0.0,
        "chemistry.reaction_rates_field.ms_per_call": mean_ms("chemistry.reaction_rates_field"),
        "chemistry.reaction_rates_field.calls":
            count("chemistry.reaction_rates_field") / n_calls,
        "solver3d.run3d.self_ms_per_step":
            1e3 * self_s.get("solver3d.run3d", 0.0) / steps3d if steps3d else 0.0,
        "grid.zero_dirichlet.ms_per_call": mean_ms("grid.zero_dirichlet"),
        "grid.Field.copy.mb": sum(extras.get("grid.Field.copy", ())) / 1e6 / n_calls,
        "snapshots.append.calls": count("snapshots.append") / n_calls,
        "snapshots.retained_mb":
            (sum(extras.get("solver3d.run3d", ())) + sum(extras.get("solver2d.run2d", ())))
            / 1e6 / n_calls,
        "cli.write_csv.ms_total": total_ms("cli.write_csv"),
        "cli.write_csv.rows": csv_rows / n_calls,
        "cli.write_csv.mb": sum(b for _, b in csv) / 1e6 / n_calls,
        "cli.write_csv.rows_per_s": csv_rows / csv_s if csv_s > 0 else 0.0,
        "cli.write_slice.ms_per_call": mean_ms("cli.write_slice"),
        "diagnostics.TrajectoryLog.append.ms_total": total_ms("diagnostics.TrajectoryLog.append"),
        "diagnostics.positivity_check.ms": total_ms("diagnostics.positivity_check"),
        "diagnostics.l2_norm.ms_total": total_ms("diagnostics.l2_norm"),
        "analytic2d.sample_series.ms_per_call": mean_ms("analytic2d.sample_series"),
        "analytic2d.build_series.ms": total_ms("analytic2d.build_series"),
        "diagnostics.max_error_vs_analytic.self_ms": self_ms("diagnostics.max_error_vs_analytic"),
        "solver2d.step2d.us.p50": 1e6 * _quantile(dur.get("solver2d.step2d", []), 0.5),
        "solver2d.run2d.self_ms": self_ms("solver2d.run2d"),
        "cli.execute.self_ms": self_ms(ROOT),
        # time inside the benchmark's own timer around execute that no span covers
        "trace.unattributed_ms": 1e3 * (outer_s - root_s) / n_calls,
        "trace.overhead_pct":
            100.0 * (statistics.median(traced_call_s) / untraced_p50 - 1.0)
            if untraced_p50 > 0 else 0.0,
    }
    calls = {layer: count(layer) / n_calls for layer in sorted(dur)}
    shares = {layer: self_s[layer] / root_s for layer in self_s} if root_s > 0 else {}
    return m, calls, shares


def check_expected(calls: dict, expected: tuple[str, ...], workload: str) -> None:
    """Fail loudly when a layer expected to work on this workload recorded nothing."""
    missing = [layer for layer in expected if calls.get(layer, 0) == 0]
    if missing:
        raise TraceGuardError(
            f"workload {workload}: expected layers recorded zero calls: {missing}"
        )

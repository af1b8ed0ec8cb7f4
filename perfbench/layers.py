"""Per-layer metrics from the spans a traced run wrote.

Time metrics are seconds per op over the timed phase. Most are *self*
times: a span's duration minus the time covered by nested spans of the
other self-timed layers and of ``network.sp`` (so ``data.trips_s`` does
not count the shortest-path searches that ``network.sp_s`` reports).
Whole-stage metrics (``cli.import_s``, ``network.sp_s``, ``serve.*``,
``sweep.*``) are inclusive. Work counts are per op too, summed from the
counters recorded at the same span boundaries.
"""

from __future__ import annotations

import glob
import json
import os

SELF_TIMED = {
    "data.road_s": "data.road",
    "data.transit_s": "data.transit",
    "data.trips_s": "data.trips",
    "trajectory.demand_s": "trajectory.demand",
    "core.candidates_s": "core.candidates",
    "spectral.increments_s": "spectral.increments",
    "core.search_s": "core.search",
    "core.rebind_s": "core.rebind",
}
INCLUSIVE = {
    "cli.import_s": "cli.import",
    "network.sp_s": "network.sp",
    "serve.request_s": "serve.request",
    "serve.encode_s": "serve.encode",
    "sweep.execute_s": "sweep.execute",
    "sweep.load_s": "sweep.load",
    "sweep.save_s": "sweep.save",
    "sweep.parent_s": "sweep.parent",
}
_SUBTRACTED = set(SELF_TIMED.values()) | {"network.sp"}

PER_LAYER = (
    "cli.import_s",
    "data.road_s", "data.transit_s", "data.trips_s", "trajectory.demand_s",
    "network.sp_calls", "network.sp_s",
    "core.candidates_s", "core.candidate_edges",
    "spectral.base_s", "spectral.eig_max_s", "spectral.increments_s",
    "spectral.lanczos_calls", "spectral.lanczos_columns",
    "core.search_s", "core.rebind_s", "core.iterations", "core.evaluations",
    "serve.request_s", "serve.queue_wait_s", "serve.encode_s",
    "serve.pool_hit_ratio", "client.http_s", "client.late_p95_s",
    "sweep.execute_s", "sweep.load_s", "sweep.save_s",
    "sweep.cache_hit_ratio", "sweep.useful_compute_ratio",
    "sweep.busy_ratio", "sweep.parent_s",
    "trace.overhead_s", "trace.uncovered_share",
)
"""Every per-layer metric, in report order."""

UNITS = {
    "network.sp_calls": "count", "core.candidate_edges": "count",
    "spectral.lanczos_calls": "count", "spectral.lanczos_columns": "count",
    "core.iterations": "count", "core.evaluations": "count",
    "serve.pool_hit_ratio": "ratio", "sweep.cache_hit_ratio": "ratio",
    "sweep.useful_compute_ratio": "ratio", "sweep.busy_ratio": "ratio",
    "trace.uncovered_share": "ratio",
}


def unit(name: str) -> str:
    return UNITS.get(name, "s")


def read_spans(directory: str) -> list[dict]:
    spans = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.jsonl"))):
        with open(path) as f:
            spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def _tree(spans):
    """``(children, by_id)`` keyed by ``(pid, id)``."""
    by_id = {(s["pid"], s["id"]): s for s in spans}
    children = {}
    for s in spans:
        children.setdefault((s["pid"], s["parent"]), []).append(s)
    return children, by_id


def _dur(s) -> float:
    return s["end"] - s["start"]


def _subtracted_inside(span, children) -> float:
    total = 0.0
    for c in children.get((span["pid"], span["id"]), ()):
        if c["name"] in _SUBTRACTED and c["name"] != span["name"]:
            total += _dur(c)
        else:
            total += _subtracted_inside(c, children)
    return total


def _outermost(spans, by_id, name):
    """Spans called ``name`` with no ancestor of the same name."""
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        parent = by_id.get((s["pid"], s["parent"]))
        nested = False
        while parent is not None:
            if parent["name"] == name:
                nested = True
                break
            parent = by_id.get((parent["pid"], parent["parent"]))
        if not nested:
            out.append(s)
    return out


def _union(intervals) -> list:
    merged = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return merged


def _overlap(xs, ys) -> float:
    total, j = 0.0, 0
    for a, b in xs:
        while j < len(ys) and ys[j][1] <= a:
            j += 1
        k = j
        while k < len(ys) and ys[k][0] < b:
            total += max(0.0, min(b, ys[k][1]) - max(a, ys[k][0]))
            k += 1
    return total


def uncovered_share(spans, op_intervals) -> float:
    """Share of op wall time during which no layer span was open."""
    ops = _union(op_intervals)
    wall = sum(b - a for a, b in ops)
    covered = _overlap(ops, _union((s["start"], s["end"]) for s in spans))
    return 1.0 - covered / wall if wall > 0 else 0.0


def layer_metrics(spans, n_ops: int, since: float = float("-inf")) -> dict:
    """Span-derived per-layer metrics over spans starting at ``since``."""
    spans = [s for s in spans if s["start"] >= since]
    children, by_id = _tree(spans)
    per_op = 1.0 / max(n_ops, 1)

    def outer(name):
        return _outermost(spans, by_id, name)

    def counter(name, key):
        return sum((s["counters"] or {}).get(key, 0) for s in spans if s["name"] == name)

    m = {}
    for metric, name in SELF_TIMED.items():
        m[metric] = per_op * sum(
            _dur(s) - _subtracted_inside(s, children) for s in outer(name)
        )
    for metric, name in INCLUSIVE.items():
        m[metric] = per_op * sum(_dur(s) for s in outer(name))
    m["network.sp_calls"] = per_op * len(outer("network.sp"))
    m["core.candidate_edges"] = per_op * counter("core.candidates", "candidate_edges")
    base = [
        s for s in spans
        if s["name"] in ("spectral.estimate", "spectral.eigs")
        and by_id.get((s["pid"], s["parent"]), {}).get("name") == "core.precompute"
    ]
    m["spectral.base_s"] = per_op * sum(_dur(s) for s in base)
    eigs = [_dur(s) for s in spans if s["name"] == "spectral.eigs"]
    m["spectral.eig_max_s"] = max(eigs, default=0.0)
    lanczos = [s for s in spans if s["name"] == "spectral.lanczos"]
    m["spectral.lanczos_calls"] = per_op * len(lanczos)
    m["spectral.lanczos_columns"] = per_op * counter("spectral.lanczos", "columns")
    m["core.iterations"] = per_op * counter("core.search", "iterations")
    m["core.evaluations"] = per_op * counter("core.search", "evaluations")
    executes = [s for s in spans if s["name"] == "serve.execute"]
    m["serve.queue_wait_s"] = (
        counter("serve.execute", "queue_wait_s") / len(executes) if executes else 0.0
    )
    fetches = [s for s in spans if s["name"] == "serve.pool"]
    m["serve.pool_hit_ratio"] = (
        counter("serve.pool", "hit") / len(fetches) if fetches else 0.0
    )
    return m


def finish(metrics: dict) -> dict:
    """Every per-layer metric (absent layers read 0) with its unit."""
    return {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit(name)}
        for name in PER_LAYER
    }

"""``sweep-grid``: closed loop, one client, one ``repro sweep`` per op.

Each op runs the seeded 48-scenario grid (2 cities x 2 planner seeds x
3 k x 2 w x 2 methods, 4 artifact keys) on the default process backend
with 2 workers and a fresh cache directory, so the parent computes and
writes each artifact once and the workers read them back from disk.
Ops per second count scenarios; latency is the whole sweep command.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import layers
from common import (
    SETUP_REPEATS,
    closed_loop_setup_s,
    end_to_end,
    inf_if_failed,
    run_program,
)
from inputs import PROFILE, SWEEP_CONFIG, canonical, grid_scenarios, sweep_grid
from reference import Reference, check_route, quality
from stats import nearest_rank

WORKERS = 2
TRACED_SWEEPS = 2


def _write_grid(ctx) -> str:
    path = ctx.path("grid.json")
    with open(path, "w") as f:
        f.write(canonical(sweep_grid(ctx.seed)))
    return path


def _sweep(ctx, grid_path: str, tag: str, spans_dir=None):
    cache_dir, report = ctx.path(f"{tag}-cache"), ctx.path(f"{tag}.json")
    fin = run_program(ctx, ctx.repro(
        ["sweep", "--grid", grid_path, "--workers", str(WORKERS),
         "--cache-dir", cache_dir, "--json", report], spans_dir), tag)
    doc = None
    if fin.returncode == 0 and os.path.exists(report):
        with open(report) as f:
            doc = json.load(f)
    shutil.rmtree(cache_dir, ignore_errors=True)
    return fin, doc


def _ops(ctx, grid_path, until=None, count=None, spans_dir=None, tag="sweep"):
    done, start, i = [], time.perf_counter(), 0
    while (count is None or i < count) and (
        until is None or time.perf_counter() - start < until
    ):
        done.append(_sweep(ctx, grid_path, f"{tag}{i}", spans_dir))
        i += 1
    return done


def _overrides(sc) -> dict:
    return {**SWEEP_CONFIG, "k": sc["k"], "w": sc["w"], "seed": sc["seed"]}


def _scenario_key(record) -> tuple:
    o = record["overrides"]
    return (record["city"], record["method"], o["seed"], o["k"], o["w"])


def _check(ops, ref, expected):
    """Per-sweep latency (inf if any scenario failed) and failures."""
    latencies, failures, ok = [], [], 0
    for fin, doc in ops:
        if doc is None:
            failures.append(f"sweep exit {fin.returncode}: {fin.stderr[-300:]}")
            latencies.append(float("inf"))
            continue
        seen = {}
        for record in doc["scenarios"]:
            seen[_scenario_key(record)] = record
        sweep_ok = True
        for sc in expected:
            key = (sc["city"], sc["method"], sc["seed"], sc["k"], sc["w"])
            record = seen.get(key)
            res = record["results"][0] if record and record["ok"] and record["results"] else {}
            plan = ref.plan(sc["city"], sc["method"], _overrides(sc))
            reason = check_route(res.get("found", False), res.get("stops"),
                                 res.get("n_edges", 0), sc["k"], plan)
            if reason:
                sweep_ok = False
                failures.append(f"sweep scenario {key}: {reason}")
            else:
                ok += 1
        latencies.append(inf_if_failed(fin.wall, sweep_ok))
    return latencies, failures, ok


def run(ctx) -> dict:
    expected = grid_scenarios(sweep_grid(ctx.seed))
    setup_s = closed_loop_setup_s(ctx, lambda: _write_grid(ctx))
    grid_path = _write_grid(ctx)
    ops = _ops(ctx, grid_path, until=ctx.seconds)
    traced = []
    if ctx.trace:
        spans_dir = ctx.path("spans")
        os.makedirs(spans_dir, exist_ok=True)
        traced = _ops(ctx, grid_path, count=TRACED_SWEEPS, spans_dir=spans_dir,
                      tag="traced")

    # Outside every timed region: reference plans for each distinct input.
    ref = Reference(PROFILE)
    plans = [
        ref.plan(sc["city"], sc["method"], _overrides(sc)) for sc in expected
    ]
    latencies, failures, ok = _check(ops, ref, expected)
    traced_lat, traced_fail, _ = _check(traced, ref, expected)
    attempted = len(ops) * len(expected)
    metrics, summary = end_to_end(
        setup_s, latencies, ok, attempted, sum(f.wall for f, _ in ops),
        max(f.maxrss_mb for f, _ in ops), quality(plans),
    )
    out = {
        "attempted": attempted + len(traced) * len(expected),
        "failed": len(failures) + len(traced_fail),
        "failures": failures + traced_fail,
        "metrics": metrics,
        "samples": {"latency": summary, "sweeps": len(ops),
                    "scenarios_per_sweep": len(expected),
                    "setup_repeats": SETUP_REPEATS},
    }
    if ctx.trace:
        spans = layers.read_spans(ctx.path("spans"))
        n_ops = len(traced) * len(expected)
        m = layers.layer_metrics(spans, n_ops=n_ops)
        makespan = sum(f.wall for f, _ in traced)
        executes = [s for s in spans if s["name"] == "sweep.execute"]
        m["sweep.busy_ratio"] = (
            sum(s["end"] - s["start"] for s in executes) / (makespan * WORKERS)
        )
        hits = sum(d["cache"]["hits"] for _, d in traced if d)
        lookups = sum(d["cache"]["hits"] + d["cache"]["misses"] for _, d in traced if d)
        m["sweep.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        keys = len({(sc["city"], sc["seed"]) for sc in expected})
        computes = sum(1 for s in spans if s["name"] == "core.precompute")
        m["sweep.useful_compute_ratio"] = (
            keys * len(traced) / computes if computes else 0.0
        )
        m["trace.overhead_s"] = (
            nearest_rank(traced_lat, 50) - nearest_rank(latencies, 50)
        )
        m["trace.uncovered_share"] = layers.uncovered_share(
            spans, [(f.start, f.end) for f, _ in traced]
        )
        out["layers"] = m
    return out

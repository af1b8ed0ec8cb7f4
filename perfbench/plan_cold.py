"""``plan-cold``: closed loop, one client, one fresh ``repro plan`` per op.

This is what a CLI user pays on every invocation: interpreter start,
imports, the dataset build, the precompute and the search, all in a new
process. One city keeps the op cost unimodal.
"""

from __future__ import annotations

import os
import re
import time

import layers
from common import (
    SETUP_REPEATS,
    closed_loop_setup_s,
    end_to_end,
    inf_if_failed,
    run_program,
)
from inputs import PLAN_CITY, PROFILE, plan_inputs
from reference import Reference, check_route, quality
from stats import nearest_rank

TRACED_OPS = 5
"""Traced ops per run: a fixed count, so the work counts repeat for a seed;
fewer than the 9 inputs, so a traced run stays well inside its time limit."""

_STOPS = re.compile(r"^\|\s*stops\s*\|\s*([0-9 \->]+?)\s*\|", re.M)
_EDGES = re.compile(r"^\|\s*#edges \(#new\)\s*\|\s*(\d+)", re.M)


def parse_plan_output(text: str):
    """``(stops, n_edges)`` from ``repro plan``'s table, or ``(None, 0)``."""
    stops, edges = _STOPS.search(text), _EDGES.search(text)
    if not stops or not edges:
        return None, 0
    return [int(s) for s in stops.group(1).split("->")], int(edges.group(1))


def _plan_argv(k: int, w: float) -> list:
    return ["plan", "--city", PLAN_CITY, "--profile", PROFILE,
            "--k", str(k), "--w", str(w)]


def _ops(ctx, inputs, until=None, count=None, spans_dir=None, tag="op"):
    """Run ops in input order until the deadline or the op count."""
    done = []
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None and i >= count:
            break
        if until is not None and time.perf_counter() - start >= until:
            break
        k, w = inputs[i % len(inputs)]
        done.append(((k, w), run_program(
            ctx, ctx.repro(_plan_argv(k, w), spans_dir), f"{tag}{i}")))
        i += 1
    return done


def _check(ops, ref):
    latencies, failures = [], []
    for (k, w), fin in ops:
        plan = ref.plan(PLAN_CITY, "eta-pre", {"k": k, "w": w})
        stops, n_edges = parse_plan_output(fin.stdout)
        reason = (
            f"exit {fin.returncode}: {fin.stderr[-300:]}" if fin.returncode
            else check_route(stops is not None, stops, n_edges, k, plan)
        )
        if reason:
            failures.append(f"plan k={k} w={w}: {reason}")
        latencies.append(inf_if_failed(fin.wall, reason is None))
    return latencies, failures


def run(ctx) -> dict:
    inputs = plan_inputs(ctx.seed)
    setup_s = closed_loop_setup_s(ctx, lambda: plan_inputs(ctx.seed))
    ops = _ops(ctx, inputs, until=ctx.seconds)
    traced = []
    if ctx.trace:
        spans_dir = ctx.path("spans")
        os.makedirs(spans_dir, exist_ok=True)
        traced = _ops(ctx, inputs, count=TRACED_OPS, spans_dir=spans_dir,
                      tag="traced")

    # Outside every timed region: reference plans for each distinct input.
    ref = Reference(PROFILE)
    plans = [ref.plan(PLAN_CITY, "eta-pre", {"k": k, "w": w}) for k, w in inputs]
    latencies, failures = _check(ops, ref)
    traced_lat, traced_fail = _check(traced, ref)
    ok = sum(1 for x in latencies if x != float("inf"))
    metrics, summary = end_to_end(
        setup_s, latencies, ok, len(ops), sum(f.wall for _, f in ops),
        max(f.maxrss_mb for _, f in ops), quality(plans),
    )
    result = {
        "attempted": len(ops) + len(traced),
        "failed": len(failures) + len(traced_fail),
        "failures": failures + traced_fail,
        "metrics": metrics,
        "samples": {"latency": summary, "setup_repeats": SETUP_REPEATS,
                    "distinct_inputs": len(plans)},
    }
    if ctx.trace:
        spans = layers.read_spans(ctx.path("spans"))
        m = layers.layer_metrics(spans, n_ops=len(traced))
        m["trace.overhead_s"] = (
            nearest_rank(traced_lat, 50) - nearest_rank(latencies, 50)
        )
        m["trace.uncovered_share"] = layers.uncovered_share(
            spans, [(f.start, f.end) for _, f in traced]
        )
        result["layers"] = m
    return result

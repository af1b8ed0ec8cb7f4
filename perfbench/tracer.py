"""Traced launcher: ``python perfbench/tracer.py SPANS_DIR <repro args>``.

Runs ``repro.cli.main(<repro args>)`` exactly like ``python -m repro``,
after wrapping the program's public layer functions with spans. Nothing
under ``src/`` changes: each wrapped function is replaced at every
module that binds it by name (``dijkstra`` alone is bound in eight), and
methods are replaced on their class.

A span records its name, start and end on ``time.perf_counter`` (the
system-wide monotonic clock on Linux, so spans from the benchmark and
from every program process share one time axis), its parent span, an op
id and optional counters. Spans stay in memory and are written as JSON
lines to ``SPANS_DIR/spans-<pid>.jsonl`` when the process exits; forked
sweep workers never run exit handlers, so they write theirs when each
task finishes.
"""

from __future__ import annotations

import atexit
import collections
import functools
import itertools
import json
import os
import sys
import threading
import time

_now = time.perf_counter
_spans: list = []
_ids = itertools.count(1)
_local = threading.local()
_out_dir = ""
_flush_lock = threading.Lock()


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


class _Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "counters")

    def __init__(self, name: str, op=None):
        stack = _stack()
        parent = stack[-1] if stack else None
        self.sid = next(_ids)
        self.name = name
        self.parent = parent.sid if parent else 0
        self.op = op if op is not None else (parent.op if parent else None)
        self.counters = None
        self.end = 0.0
        stack.append(self)
        self.start = _now()

    def close(self) -> None:
        self.end = _now()
        _stack().pop()
        _spans.append(self)

    def count(self, **values) -> None:
        self.counters = dict(self.counters or {}, **values)


def _record(span: _Span) -> dict:
    return {
        "name": span.name, "start": span.start, "end": span.end,
        "id": span.sid, "parent": span.parent, "op": span.op,
        "pid": os.getpid(), "counters": span.counters,
    }


def flush() -> None:
    """Append this process's finished spans to its spans file."""
    with _flush_lock:
        done = [_record(s) for s in _spans]
        _spans.clear()
    if not done or not _out_dir:
        return
    path = os.path.join(_out_dir, f"spans-{os.getpid()}.jsonl")
    with open(path, "a") as f:
        for rec in done:
            f.write(json.dumps(rec) + "\n")


def _after_fork_in_child() -> None:
    global _ids
    _spans.clear()
    _ids = itertools.count(1)
    _local.__dict__.clear()


def _wrap(fn, name: str, counter=None, new_op=None, flush_after=False):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = _Span(name, op=new_op(args) if new_op else None)
        try:
            out = fn(*args, **kwargs)
            if counter is not None:
                counter(span, out, args, kwargs)
            return out
        finally:
            span.close()
            if flush_after and not _stack():
                flush()
    return traced


def _rebind_everywhere(original, replacement) -> None:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``replacement`` (covers ``from x import f`` copies)."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def patch_function(module: str, attr: str, name: str, **kw) -> None:
    mod = sys.modules[module]
    original = getattr(mod, attr)
    _rebind_everywhere(original, _wrap(original, name, **kw))


def patch_method(module: str, cls: str, attr: str, name: str, **kw) -> None:
    klass = getattr(sys.modules[module], cls)
    raw = klass.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(klass, attr, classmethod(_wrap(raw.__func__, name, **kw)))
    else:
        setattr(klass, attr, _wrap(raw, name, **kw))


# ----------------------------------------------------------------------
# Counters kept at the span boundaries
# ----------------------------------------------------------------------
def _count_candidates(span, universe, args, kwargs) -> None:
    span.count(candidate_edges=sum(1 for e in universe.edges if e.is_new))


def _count_block_lanczos(span, out, args, kwargs) -> None:
    V = args[1]
    steps = args[2] if len(args) > 2 else kwargs["steps"]
    span.count(columns=int(V.shape[1]) * min(int(steps), int(V.shape[0])))


def _count_lanczos(span, out, args, kwargs) -> None:
    v = args[1]
    steps = args[2] if len(args) > 2 else kwargs["steps"]
    span.count(columns=min(int(steps), int(v.shape[0])))


def _count_search(span, result, args, kwargs) -> None:
    span.count(
        iterations=int(result.iterations),
        evaluations=int(result.connectivity_evaluations),
    )


def _count_pool(span, out, args, kwargs) -> None:
    span.count(hit=int(out[1] == "pool"))


# ----------------------------------------------------------------------
# Serve: request ids and queue wait across the planner-thread handoff
# ----------------------------------------------------------------------
_request_ids = itertools.count(1)
_submitted: "collections.deque" = collections.deque()


def _patch_serve() -> None:
    server = sys.modules["repro.serve.server"]
    base_job = server._PlanJob

    class _TimedJob(base_job):
        __slots__ = ()

        def __init__(self, scenario, base_config):
            super().__init__(scenario, base_config)
            # One planner thread drains the queue in FIFO order, so the
            # n-th job submitted is the n-th one executed.
            stack = _stack()
            _submitted.append((_now(), stack[-1].op if stack else None))

    server._PlanJob = _TimedJob
    execute = server.execute_scenario

    @functools.wraps(execute)
    def planner_execute(*args, **kwargs):
        queued_at, op = _submitted.popleft()
        span = _Span("serve.execute", op=op)
        span.count(queue_wait_s=span.start - queued_at)
        try:
            return execute(*args, **kwargs)
        finally:
            span.close()

    server.execute_scenario = planner_execute
    patch_method("repro.serve.server", "PlanServer", "plan_request",
                 "serve.request", new_op=lambda args: next(_request_ids))
    patch_function("repro.serve.server", "outcome_wire_record", "serve.encode")
    patch_method("repro.serve.http", "_Handler", "_send_json", "serve.encode")
    patch_method("repro.serve.pool", "ArtifactPool", "fetch", "serve.pool",
                 counter=_count_pool)


def _patch_sweep() -> None:
    patch_function(
        "repro.sweep.runner", "execute_scenario", "sweep.execute",
        new_op=lambda args: args[0].name,
        flush_after=True,
    )
    patch_method("repro.sweep.runner", "SweepRunner", "_prewarm", "sweep.parent")
    patch_method("repro.sweep.cache", "PrecomputationCache", "store", "sweep.save")
    patch_method("repro.core.precompute", "Precomputation", "load", "sweep.load")


def install(command: str) -> None:
    """Import what ``command`` needs and wrap every traced layer."""
    import repro.core.planner  # noqa: F401 — loads the planning stack
    import repro.core.precompute  # noqa: F401
    import repro.data.datasets  # noqa: F401
    import repro.spectral.lanczos  # noqa: F401

    if command == "serve":
        import repro.serve.http  # noqa: F401
        import repro.serve.server  # noqa: F401
    if command == "sweep":
        import repro.sweep.backends  # noqa: F401
        import repro.sweep.runner  # noqa: F401
    for mod in ("repro.trajectory.trips", "repro.trajectory.matching",
                "repro.eval.metrics", "repro.baselines.connectivity_first",
                "repro.baselines.demand_first"):
        __import__(mod)

    patch_function("repro.data.datasets", "build_dataset", "data.dataset")
    patch_function("repro.data.synth", "generate_road_network", "data.road")
    patch_function("repro.data.synth", "generate_transit_network", "data.transit")
    patch_function("repro.data.synth", "generate_trips", "data.trips")
    patch_function("repro.trajectory.demand", "aggregate_trip_demand",
                   "trajectory.demand")
    for fn in ("dijkstra", "bidirectional_dijkstra", "shortest_path",
               "shortest_path_tree_demand"):
        patch_function("repro.network.shortest_path", fn, "network.sp")
    patch_function("repro.core.precompute", "precompute", "core.precompute")
    patch_function("repro.core.seeding", "build_edge_universe",
                   "core.candidates", counter=_count_candidates)
    patch_function("repro.spectral.eigs", "top_k_eigenvalues", "spectral.eigs")
    patch_method("repro.spectral.connectivity", "NaturalConnectivityEstimator",
                 "estimate", "spectral.estimate")
    patch_function("repro.core.precompute", "compute_edge_increments",
                   "spectral.increments")
    patch_function("repro.spectral.lanczos", "block_expm_lanczos",
                   "spectral.lanczos", counter=_count_block_lanczos)
    patch_function("repro.spectral.lanczos", "lanczos_tridiagonalize",
                   "spectral.lanczos", counter=_count_lanczos)
    patch_function("repro.core.planner", "run_method", "core.search",
                   counter=_count_search)
    patch_function("repro.core.precompute", "rebind", "core.rebind")
    if command == "serve":
        _patch_serve()
    if command == "sweep":
        _patch_sweep()


def main(argv: list) -> int:
    global _out_dir
    _out_dir = argv[0]
    args = argv[1:]
    os.register_at_fork(after_in_child=_after_fork_in_child)
    atexit.register(flush)
    span = _Span("cli.import")
    import repro.cli

    span.close()
    install(args[0] if args else "")
    return repro.cli.main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Shared plumbing: the run context, program processes, metric assembly."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from stats import json_number, latency_summary, ok_ratio, rate

OP_TIMEOUT_S = 120.0
"""A program process still running after this long is killed (op fails)."""

SETUP_REPEATS = 3
"""Set-ups per closed-loop run; ``setup_s`` is their median."""


@dataclass
class Context:
    root: str
    run_dir: str
    seed: int
    seconds: float
    trace: bool
    env: dict = field(default_factory=dict)

    @property
    def tracer(self) -> str:
        return os.path.join(self.root, "perfbench", "tracer.py")

    def path(self, *parts) -> str:
        return os.path.join(self.run_dir, *parts)

    def repro(self, args, spans_dir: "str | None" = None) -> list:
        """argv that runs ``repro <args>``, traced when ``spans_dir`` is set."""
        if spans_dir is None:
            return [sys.executable, "-m", "repro", *args]
        return [sys.executable, self.tracer, spans_dir, *args]


@dataclass
class Finished:
    """One program process that ran to completion (or was killed)."""

    start: float
    end: float
    returncode: int
    stdout: str
    stderr: str
    maxrss_mb: float

    @property
    def wall(self) -> float:
        return self.end - self.start


def run_program(ctx: Context, argv, tag: str, timeout: float = OP_TIMEOUT_S) -> Finished:
    """Run one program process to completion, with its peak RSS.

    ``os.wait4`` reports the largest resident set of the process and of
    every descendant it waited for (a sweep's pool workers included).
    """
    out_path, err_path = ctx.path(f"{tag}.out"), ctx.path(f"{tag}.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ctx.env,
                                cwd=ctx.run_dir)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        stdout = f.read()
    with open(err_path) as f:
        stderr = f.read()
    return Finished(start, end, proc.returncode, stdout, stderr,
                    usage.ru_maxrss / 1024.0)


def closed_loop_setup_s(ctx: Context, make_inputs) -> float:
    """Set-up time of a closed-loop workload: input generation plus one
    untimed ``import repro.cli`` in a fresh process, which warms the OS
    file cache but none of the program's own caches. The median of
    ``SETUP_REPEATS`` set-ups."""
    def once() -> float:
        start = time.perf_counter()
        make_inputs()
        done = run_program(ctx, [sys.executable, "-c", "import repro.cli"], "import")
        if done.returncode != 0:
            raise RuntimeError(f"import repro.cli failed: {done.stderr[-2000:]}")
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(SETUP_REPEATS))


def end_to_end(setup_s, latencies, ok, attempted, busy_s, peak_rss_mb, quality):
    """The eight end-to-end metrics plus the sample counts behind them.

    ``latencies`` holds one sample per op, ``math.inf`` for a failed op.
    ``busy_s`` is the wall time the ops were in flight.
    """
    summary = latency_summary(latencies, tail=95.0)
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (rate(ok, busy_s), "1/s"),
        "latency_p50_s": (summary["p50"], "s"),
        "latency_p95_s": (summary["tail"], "s"),
        "ok_ratio": (ok_ratio(ok, attempted), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "route_demand": (quality["route_demand"], "trips"),
        "route_conn_gain": (quality["route_conn_gain"], "lambda"),
    }
    metrics = {k: {"value": json_number(v), "unit": u} for k, (v, u) in values.items()}
    return metrics, summary


def inf_if_failed(latency: float, ok: bool) -> float:
    return latency if ok else math.inf

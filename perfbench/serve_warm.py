"""``serve-warm``: closed loop, two clients, one ``repro serve`` daemon.

Set-up starts the daemon and loads the working set (one request per
city) into its artifact pool; that is what ``setup_s`` times. Then two
clients, each on its own keep-alive HTTP connection (one per CPU), send
the seeded request sequence: each sends its next request as soon as its
previous reply arrived. A request is timed from send to reply, which
includes its wait behind the other client's request on the daemon's
single planner thread.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import threading
import time

import layers
from common import end_to_end, inf_if_failed
from inputs import (
    PROFILE,
    SERVE_CLIENTS,
    request_doc,
    serve_pool,
    serve_requests,
    warm_inputs,
)
from reference import Reference, check_route, quality
from stats import nearest_rank

MIN_REQUESTS = 200
"""Enough for a p95 with 10 samples beyond it."""
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


class Daemon:
    """One ``repro serve`` process with its HTTP door on an ephemeral port."""

    def __init__(self, ctx, tag: str, spans_dir: "str | None" = None):
        self.launched = time.perf_counter()
        argv = ctx.repro(
            ["serve", "--port", "0", "--http-port", "0",
             "--cache-dir", ctx.path(f"{tag}-cache")],
            spans_dir,
        )
        self.err = open(ctx.path(f"{tag}.err"), "w")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self.err, text=True,
            env=ctx.env, cwd=ctx.run_dir,
        )
        self.port = self._wait_ready()

    def _wait_ready(self) -> int:
        timer = threading.Timer(READY_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            for line in self.proc.stdout:
                if line.startswith("serve http listening on "):
                    return int(line.rsplit(":", 1)[1])
        finally:
            timer.cancel()
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.err.close()
        raise RuntimeError("repro serve exited before its HTTP door was ready")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Ask the daemon to shut down; kill it if it does not exit."""
        if self.proc.poll() is None:
            try:
                conn = self.connect()
                conn.request("POST", "/shutdown")
                conn.getresponse().read()
                conn.close()
            except (OSError, http.client.HTTPException):
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


def _post(conn, doc: dict):
    body = json.dumps(doc).encode()
    conn.request("POST", "/plan", body, {"Content-Type": "application/json"})
    resp = conn.getresponse()
    data = resp.read()
    return resp.status, data


def _closed_loop(daemon, requests, seconds: float, count=None) -> list:
    """Each of ``SERVE_CLIENTS`` clients sends the next request of the
    seeded sequence as soon as its previous reply arrived: exactly
    ``count`` requests, or else until ``seconds`` passed and at least
    ``MIN_REQUESTS`` were sent. Returns ``[(item, ready, sent, done,
    status, reply)]`` in sequence order, where ``ready`` is when the
    client was free to send (its previous reply arrived)."""
    results = []
    lock = threading.Lock()
    start = time.perf_counter()

    def take():
        with lock:
            i = len(results)
            if count is not None:
                if i >= count:
                    return None
            elif time.perf_counter() - start >= seconds and i >= MIN_REQUESTS:
                return None
            results.append(None)
            return i

    def client():
        conn = daemon.connect()
        ready = time.perf_counter()
        try:
            while (i := take()) is not None:
                item = requests[i % len(requests)]
                sent = time.perf_counter()
                try:
                    status, data = _post(conn, request_doc(item, f"r{i}"))
                    reply = json.loads(data) if status == 200 else data[-300:]
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    status, reply = 0, repr(exc)
                    conn.close()
                    conn = daemon.connect()
                done = time.perf_counter()
                results[i] = (item, ready, sent, done, status, reply)
                ready = done
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def _phase(ctx, tag: str, spans_dir=None, count=None) -> dict:
    """Start a daemon, load the working set, run the clients, stop it."""
    daemon = Daemon(ctx, tag, spans_dir)
    try:
        conn = daemon.connect()
        for i, item in enumerate(warm_inputs(ctx.seed)):
            status, data = _post(conn, request_doc(item, f"warm{i}"))
            if status != 200:
                raise RuntimeError(f"working-set load failed: {data[-300:]!r}")
        conn.close()
        ready = time.perf_counter()
        results = _closed_loop(daemon, serve_requests(ctx.seed), ctx.seconds,
                               count)
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    return {"setup_s": ready - daemon.launched, "ready": ready,
            "results": results, "rss": rss}


def _check(results, ref):
    latencies, failures = [], []
    for item, _, sent, done, status, reply in results:
        reason = None
        if status != 200:
            reason = f"HTTP {status}: {reply}"
        else:
            plan = ref.plan(item["city"], item["method"], item["overrides"])
            record = reply["record"]
            res = record["results"][0] if record.get("ok") and record["results"] else {}
            reason = check_route(res.get("found", False), res.get("stops"),
                                 res.get("n_edges", 0), item["k"], plan)
        if reason:
            failures.append(f"{item['method']} {item['city']} k={item['k']} "
                            f"w={item['w']}: {reason}")
        latencies.append(inf_if_failed(done - sent, reason is None))
    return latencies, failures


def run(ctx) -> dict:
    phase = _phase(ctx, "serve")
    traced = None
    if ctx.trace:
        os.makedirs(ctx.path("spans"), exist_ok=True)
        traced = _phase(ctx, "traced", ctx.path("spans"), count=MIN_REQUESTS)

    # Outside every timed region: reference plans for each distinct input.
    ref = Reference(PROFILE)
    results = phase["results"]
    eta_pre, eta = serve_pool(ctx.seed)
    plans = [ref.plan(i["city"], i["method"], i["overrides"]) for i in eta_pre + eta]
    latencies, failures = _check(results, ref)
    traced_lat, traced_fail = _check(traced["results"], ref) if traced else ([], [])
    ok = sum(1 for x in latencies if x != float("inf"))
    busy = max(r[3] for r in results) - min(r[2] for r in results)
    metrics, summary = end_to_end(
        phase["setup_s"], latencies, ok, len(results), busy, phase["rss"],
        quality(plans),
    )
    out = {
        "attempted": len(results) + (len(traced["results"]) if traced else 0),
        "failed": len(failures) + len(traced_fail),
        "failures": failures + traced_fail,
        "metrics": metrics,
        "samples": {"latency": summary, "requests": len(results),
                    "distinct_inputs": len(plans)},
    }
    if traced:
        res = traced["results"]
        spans = layers.read_spans(ctx.path("spans"))
        m = layers.layer_metrics(spans, n_ops=len(res), since=traced["ready"])
        client = sum(r[3] - r[2] for r in res) / len(res)
        m["client.http_s"] = client - m["serve.request_s"]
        m["client.late_p95_s"] = nearest_rank([r[2] - r[1] for r in res], 95)
        m["trace.overhead_s"] = (
            nearest_rank(traced_lat, 50) - nearest_rank(latencies, 50)
        )
        m["trace.uncovered_share"] = layers.uncovered_share(
            [s for s in spans if s["start"] >= traced["ready"]],
            [(r[2], r[3]) for r in res],
        )
        out["layers"] = m
    return out

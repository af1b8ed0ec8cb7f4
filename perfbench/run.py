"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds nothing (the program is pure
Python under ``src/``), generates the workload's inputs from ``--seed``,
drives the program only from outside (CLI subprocesses, the ``repro
serve`` HTTP door, ``repro sweep --grid --json``), checks every op's
output against an in-process reference plan, and prints as its last
stdout line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
from a traced run with ``--trace 1``). Lines before it carry the
provenance and the sample counts behind every number.

The benchmark sets no BLAS or threading environment variable for the
program; it records the ones it finds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_ROOT = os.path.join(ROOT, ".bench_run")

sys.path.insert(0, HERE)

WORKLOADS = ("plan-cold", "serve-warm", "sweep-grid")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _src_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def _git_rev() -> "str | None":
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 — provenance is best effort
        openblas = None
    from inputs import SERVE_CLIENTS

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "offered_load": (
            f"closed loop, {SERVE_CLIENTS} clients" if args.workload == "serve-warm"
            else "closed loop, 1 client"
        ),
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from common import Context

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    run_dir = os.path.join(RUN_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    ctx = Context(root=ROOT, run_dir=run_dir, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace), env=env)
    try:
        if args.workload == "plan-cold":
            import plan_cold as workload
        elif args.workload == "serve-warm":
            import serve_warm as workload
        else:
            import sweep_grid as workload
        result = workload.run(ctx)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass

    import layers

    print("# provenance " + json.dumps(provenance(args), sort_keys=True))
    print("# samples " + json.dumps(result["samples"], sort_keys=True))
    for failure in result["failures"][:20]:
        print(f"# failed: {failure}")
    if args.trace:
        metrics = layers.finish(result["layers"])
    else:
        metrics = result["metrics"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

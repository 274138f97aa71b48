"""zonofit benchmark entry point.

    python3 perfbench/run.py --workload plane-fit --seed 1 --seconds 20 --trace 0

Run from the repository root. Each workload runs in a worker process
(``worker.py``) with ``src`` on its import path and BLAS/OpenMP pinned to one
thread. ``--trace 0`` starts the worker ``SETUPS`` times to time set-up
(``setup_s`` is their median) and lets the last one measure the end-to-end
metrics; ``--trace 1`` starts one worker that reports per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Exits non-zero, without that line, when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5
WORKER_TIMEOUT = 170.0  # seconds per worker; a run must end within 180 s


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # an exported checkout
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def start_worker(args, setup_only: bool, deadline: float):
    """Start a worker and wait for READY; returns (process, setup seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (said {line.strip()!r})")
    if time.perf_counter() > deadline:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker set-up ran past the deadline")
    return proc, setup


def finish_worker(proc, deadline: float) -> list[str]:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out.splitlines()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "zonofit" / "__init__.py").is_file():
        print(f"error: no zonofit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"env nproc={os.cpu_count()} commit={git_commit()} seed={args.seed} "
          f"workload={args.workload} seconds={args.seconds} trace={args.trace} "
          f"threads=OMP/OPENBLAS/MKL=1", flush=True)
    deadline = time.perf_counter() + WORKER_TIMEOUT
    try:
        setups = []
        for k in range(1 if args.trace else SETUPS):
            last = k == (0 if args.trace else SETUPS - 1)
            proc, setup = start_worker(args, setup_only=not last, deadline=deadline)
            setups.append(setup)
            if not last:
                finish_worker(proc, deadline)
        lines = finish_worker(proc, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not lines:
        print("error: worker printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        setup_s = statistics.median(setups)
        print(f"setup_s = {setup_s:.6g} s (median of {SETUPS}: "
              + ", ".join(f"{s:.4f}" for s in setups) + ")")
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

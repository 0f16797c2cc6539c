"""Benchmark entry point: run one cylvar workload and print its metrics.

    python3 perfbench/run.py --workload scan-b0 --seed 1 --seconds 36 --trace 0

Run from anywhere inside a checkout that has ``src/cylvar``; nothing needs to
be installed or built.  The workload runs in a fresh interpreter (worker.py)
with the checkout's src/ on PYTHONPATH and one BLAS/OpenMP thread, so a
``--jobs 2`` scan never has more runnable threads than cores.  With
``--trace 0`` the end-to-end metrics are measured, including ``setup_s`` from
fresh interpreters; with ``--trace 1`` one traced pass gives the per-layer
metrics.  Every metric is printed as ``name value unit``; the last line of
standard output is the JSON result.  Run outputs go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan-readme", "scan-b0", "point-eval")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TIME_LIMIT_S = 170.0

# setup_s: fresh interpreter, import, and one pinned request (the first call
# pays for lazy imports and caches).  The median over several spawns.
SETUP_SPAWNS = 3
SETUP_CODE = "import sys, cylvar.cli; sys.exit(cylvar.cli.main(sys.argv[1:]))"
SETUP_ARGV = ["binding", "--B", "0.4", "--rho0", "2", "--alpha", "1.1",
              "--beta", "0.1", "--nu", "3"]


def workload_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CYLVAR_JOBS"}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env.update({k: "1" for k in THREAD_VARS})
    return env


def run_child(cmd: list[str], env: dict, deadline: float, **kwargs) -> int:
    """Run ``cmd`` in its own process group; kill the group at the deadline."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True,
                            **kwargs)
    try:
        return proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def measure_setup(env: dict, deadline: float) -> float:
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        rc = run_child([sys.executable, "-c", SETUP_CODE, *SETUP_ARGV], env,
                       deadline, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"setup run exited {rc}")
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "cylvar", "cli.py")):
        print(f"perfbench: no cylvar sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    env = workload_env()
    out_dir = os.path.join(ROOT, ".perfbench_out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    try:
        setup_s = None if args.trace else measure_setup(env, deadline)
        rc = run_child([sys.executable, os.path.join(HERE, "worker.py"),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--out", out_dir],
                       env, deadline, stdout=sys.stderr)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if rc != 0 or not os.path.exists(result_path):
        print(f"perfbench: worker exited {rc}", file=sys.stderr)
        return 1
    with open(result_path) as fh:
        result = json.load(fh)
    metrics = result["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace}")
    for line in result["notes"]:
        print(line)
    for name in sorted(metrics):
        print(f"{name} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(json.dumps({k: result[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

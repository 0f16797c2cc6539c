"""Run one benchmark workload in this process and write its raw result.

run.py starts this script in a fresh interpreter with the checkout's src/ on
PYTHONPATH and every BLAS/OpenMP pool at one thread.  Only the generated
inputs reach the program, through ``cylvar.cli.main`` and the public API.

    python3 perfbench/worker.py --workload scan-b0 --seed 1 --seconds 36 \\
        --trace 0 --out .perfbench_out/scan-b0

writes ``<out>/result.json`` (and ``<out>/spans.json`` when traced).

    PYTHONPATH=src python3 perfbench/worker.py --write-reference

reruns both scans once and rewrites ``perfbench/reference/<scan>.csv``, the
committed seed baseline that every later run is checked against.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter
from typing import NamedTuple

import numpy
import scipy
from scipy.special import hyp1f1, jn_zeros

import cylvar.cli
from cylvar import hamiltonian, hydrogen2d, optimizer
from cylvar.quadrature import QuadratureSpec
from cylvar.trialfn import SystemConfig, TrialParams

from tracing import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

SCANS = {
    # The README's user path: 3 free parameters at B > 0, grid rebuilds at
    # their largest share at 64 nodes, and the only use of the process pool.
    "scan-readme": dict(B="0,0.4,0.8,1.0", rho0="0.8,1.0,1.5,2.0,3.0,5.0",
                        nodes=64, jobs=2),
    # The 13-row acceptance grid at the acceptance rule plus large radii,
    # where the radial quadrature bias prints E < -1/2 (kept on purpose).
    "scan-b0": dict(B="0", rho0="0.8,1.0,1.2,1.4,1.6,1.8,2.0,2.5,3.0,3.5,"
                    "4.0,4.5,5.0,8,10,15,inf", nodes=96, jobs=1),
}

# point-eval: pinned `cylvar binding` requests, drawn per seed.
POINT_REQUESTS = 1200
POINT_B0_SHARE = 0.25
POINT_RHO0 = (0.8, 60.0)      # log-uniform
POINT_B_MAX = 2.0             # uniform on (0, B_MAX] for B > 0
POINT_NODES = 64
RATIO_RHO0_MAX = 5.0          # the default 800-point disc grid resolves here
GRID_2D = hydrogen2d.RadialGrid(800)
KUMMER_Z_CAP = 1500.0         # specfun.KummerArgs refuses z above this
BIASED_RHO0 = 5.0             # beyond, the radial rule's bias gives E < -1/2
# Served in every run, so the extremes (the largest quadrature defect sits
# on the z cap at rho0 = 60) do not depend on the draws.  The last corner
# is refused.
POINT_CORNERS = [(0.0, 0.8), (0.0, 60.0), (2.0, 0.8), (2.0, 38.7298),
                 (0.833333, 60.0), (2.0, 60.0)]

J01 = float(jn_zeros(0, 1)[0])
E0_RTOL = 2e-8                # E0 is printed with 9 significant digits
LISTED_FAILURES = 10


class Point(NamedTuple):
    B: float
    rho0: float
    alpha: float
    beta: float
    nu: float


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _strata(rng: random.Random, n: int) -> list[float]:
    """One uniform draw in each of n equal strata of [0, 1), shuffled."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def point_requests(seed: int) -> list[Point]:
    """Latin-hypercube draws plus the domain's corners.

    The B = 0 share is exact, and rho0 and B are stratified within each
    group, so seeds change the points but not the mix.  Pinned parameters
    follow the B = 0 optima's trend in rho0, so the requests look like what
    a scan reports.
    """
    rng = random.Random(seed)
    n_zero = round(POINT_B0_SHARE * POINT_REQUESTS)
    n_field = POINT_REQUESTS - n_zero
    lo, hi = POINT_RHO0
    pairs = [(0.0, lo * (hi / lo) ** u) for u in _strata(rng, n_zero)]
    pairs += [(POINT_B_MAX * (1.0 - b), lo * (hi / lo) ** u)
              for b, u in zip(_strata(rng, n_field), _strata(rng, n_field))]
    pairs += POINT_CORNERS
    rng.shuffle(pairs)
    points = []
    for b, rho0 in pairs:
        rho0 = float(_fmt(rho0))
        points.append(Point(B=float(_fmt(b)), rho0=rho0,
                            alpha=float(_fmt(1.0 + 0.25 / rho0**2)),
                            beta=0.1 if b > 0 else 0.0,
                            nu=float(_fmt(1.3 + 1.3 * rho0))))
    return points


def call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cylvar.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


def scan_pass(name: str, jobs: int, path: str):
    """One `cylvar scan`: a single (seconds, (exit code, CSV bytes)) sample."""
    w = SCANS[name]
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)
    argv = ["scan", "--B-list", w["B"], "--rho0-list", w["rho0"],
            "--nodes", str(w["nodes"]), "--jobs", str(jobs), "--out", path]
    t0 = time.perf_counter()
    rc, _ = call_cli(argv)
    dt = time.perf_counter() - t0
    data = b""
    if rc == 0:
        with open(path, "rb") as fh:
            data = fh.read()
    return [(dt, (rc, data))]


def point_request(p: Point):
    """`cylvar binding` with every parameter pinned, plus the 3D/2D ratio."""
    t0 = time.perf_counter()
    rc, out = call_cli(["binding", "--B", _fmt(p.B), "--rho0", _fmt(p.rho0),
                        "--alpha", _fmt(p.alpha), "--beta", _fmt(p.beta),
                        "--nu", _fmt(p.nu)])
    ratio = None
    if rc == 0 and p.rho0 <= RATIO_RHO0_MAX:
        try:
            ratio = hydrogen2d.ratio_3d_2d(p.B, p.rho0,
                                           _binding_values(out)["E"], GRID_2D)
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            ratio = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, (rc, out, ratio)


def point_pass(points: list[Point]):
    return [point_request(p) for p in points]


def _binding_values(out: str) -> dict:
    vals = {}
    for line in out.splitlines():
        key, _, value = line.partition("=")
        vals[key.strip()] = float(value)
    return vals


# ---------------------------------------------------------------- checks

def _kummer_step(B: float, rho0: float, e0: float) -> float:
    """Newton step |M/M'| of the root condition under scipy, relative to E0."""
    z = 0.5 * B * rho0**2

    def m(e):
        return float(hyp1f1(-(e / B - 0.5), 1.0, z))

    h = 1e-7 * e0
    with numpy.errstate(all="ignore"):
        slope = (m(e0 + h) - m(e0 - h)) / (2.0 * h)
    if not (math.isfinite(slope) and slope != 0.0):
        # hyp1f1 overflows for z above ~700, where the root lies within
        # exp(-z) of B/2: E0 must equal B/2 to print precision.
        return abs(e0 / (0.5 * B) - 1.0)
    return abs(m(e0) / slope) / e0


def e0_checks(B: float, rho0: float, e0: float) -> list[str]:
    """Coulomb-free energy E0: at least B/2, and a root under scipy."""
    if not e0 >= 0.5 * B:
        return ["e0_below_landau"]
    if math.isinf(rho0):
        err = abs(e0 - 0.5 * B) / max(1.0, B)
    elif B == 0:
        err = abs(e0 / (J01**2 / (2.0 * rho0**2)) - 1.0)
    else:
        err = _kummer_step(B, rho0, e0)
    return [] if err <= E0_RTOL else ["e0_residual"]


def refined_energy(params: TrialParams, B: float, rho0: float,
                   nodes: int) -> float:
    spec = QuadratureSpec(n_rho=nodes, n_z=nodes).refined()
    return hamiltonian.energy(params, SystemConfig(B=B, rho0=rho0), spec).total


def read_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, name + ".csv"), newline="") as fh:
        return {(r["B"], r["rho0"]): r for r in csv.DictReader(fh)}


def check_scan(name: str, data: bytes, reference: dict | None):
    """Per row: ((B, rho0) as printed, failed checks, checks the seed
    already failed, refined-grid energy at the reported parameters,
    |E - refined|)."""
    w = SCANS[name]
    tol = optimizer.default_request(SystemConfig()).tol_energy
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    expected = [(b, r) for b in w["B"].split(",")
                for r in w["rho0"].split(",")]
    if len(rows) != len(expected):
        return [((b, r), ["exit"], [], None, None) for b, r in expected]
    out = []
    for row in rows:
        key = (row["B"], row["rho0"])
        B, rho0, E, E0 = (float(row[k]) for k in ("B", "rho0", "E", "E0"))
        ref = reference.get(key) if reference else None
        known = ref["seed_failures"].split(";") if ref else []
        if math.isnan(E) or math.isnan(E0):
            out.append((key, ["nan"], known, None, None))
            continue
        checks = ["bound_b0"] if B == 0 and not E > -0.5 else []
        checks += e0_checks(B, rho0, E0)
        gamma = float(row["gamma"]) if row["gamma"] else None
        params = TrialParams(alpha=float(row["alpha"]),
                             beta=float(row["beta"]), nu=float(row["nu"]),
                             gamma=gamma)
        fine = refined_energy(params, B, rho0, w["nodes"])
        if ref is not None and fine > float(ref["E_refined"]) + tol:
            checks.append("reference")
        out.append((key, checks, known, fine, abs(E - fine)))
    return out


def check_points(points: list[Point], outcomes: list):
    """Per request, as check_scan.  Known defects: the z cap refusal and
    E <= -1/2 at B = 0 beyond BIASED_RHO0."""
    out = []
    for p, (rc, text, ratio) in zip(points, outcomes):
        key = (_fmt(p.B), _fmt(p.rho0))
        known = []
        if 0.5 * p.B * p.rho0**2 > KUMMER_Z_CAP:
            known.append("exit")
        if p.B == 0 and p.rho0 > BIASED_RHO0:
            known.append("bound_b0")
        if rc != 0:
            out.append((key, ["exit"], known, None, None))
            continue
        v = _binding_values(text)
        if any(math.isnan(v[k]) for k in ("E0", "E", "Eb")):
            out.append((key, ["nan"], known, None, None))
            continue
        checks = ["bound_b0"] if p.B == 0 and not v["E"] > -0.5 else []
        checks += e0_checks(p.B, p.rho0, v["E0"])
        if isinstance(ratio, str):
            checks.append("e2d_error")
        elif ratio is not None and not v["E"] / ratio > -2.0:
            checks.append("e2d_bound")
        params = TrialParams(alpha=p.alpha, beta=p.beta, nu=p.nu)
        fine = refined_energy(params, p.B, p.rho0, POINT_NODES)
        out.append((key, checks, known, fine, abs(v["E"] - fine)))
    return out


# ---------------------------------------------------------------- runs

def measure(run_pass, seconds: float):
    """As many whole passes as fit in ``seconds`` at the first pass's pace,
    and at least one."""
    passes = [run_pass()]
    first = max(sum(dt for dt, _ in passes[0]), 1e-3)
    for _ in range(max(1, int(seconds / first)) - 1):
        passes.append(run_pass())
    return passes


def _latency_ms(samples: list[float]) -> tuple[float, float]:
    if len(samples) == 1:
        return 1e3 * samples[0], 1e3 * samples[0]
    q = statistics.quantiles(samples, n=10, method="inclusive")
    return 1e3 * statistics.median(samples), 1e3 * q[8]


def _peak_rss_mb() -> float:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: str) -> dict:
    notes = [f"env nproc={os.cpu_count()} python={platform.python_version()} "
             f"numpy={numpy.__version__} scipy={scipy.__version__} "
             f"blas_threads={os.environ.get('OPENBLAS_NUM_THREADS')}"]
    problems = []
    if name in SCANS:
        jobs = SCANS[name]["jobs"]
        n_points = len(SCANS[name]["B"].split(",")) * len(
            SCANS[name]["rho0"].split(","))

        def run_pass(jobs=jobs, tag="untraced"):
            return scan_pass(name, jobs, os.path.join(out_dir,
                                                      f"{tag}-jobs{jobs}.csv"))
    else:
        jobs = 1
        points = point_requests(seed)
        n_points = len(points)

        def run_pass(jobs=1, tag=None):
            return point_pass(points)

    metrics = {}
    if trace:
        # Pool workers' spans are lost, so the traced pass runs --jobs 1;
        # the untraced pass at the same jobs gives the tracing overhead.
        parallel = run_pass() if jobs > 1 else None
        before = resource.getrusage(resource.RUSAGE_SELF)
        serial = run_pass(jobs=1)
        after = resource.getrusage(resource.RUSAGE_SELF)
        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(jobs=1, tag="traced")
        tracer.dump(os.path.join(out_dir, "spans.json"))
        outcomes = [o for _, o in traced]
        t_serial = sum(dt for dt, _ in serial)
        t_traced = sum(dt for dt, _ in traced)
        efficiency = 1.0
        if parallel is not None:
            efficiency = t_serial / (jobs * sum(dt for dt, _ in parallel))
            if parallel[0][1] != outcomes[0]:
                problems.append(f"--jobs {jobs} output differs from the "
                                "--jobs 1 traced output")
        if [o for _, o in serial] != outcomes:
            problems.append("traced output differs from untraced output")
        metrics = layer_metrics(tracer, n_points, t_traced, t_serial,
                                efficiency)
        # Kernel time of the untraced serial pass: numpy temporaries that
        # glibc hands back to the OS are faulted in again on the next call.
        metrics["process.sys_s"] = (after.ru_stime - before.ru_stime, "s")
        metrics["process.minor_faults"] = (after.ru_minflt - before.ru_minflt,
                                           "count")
    else:
        passes = measure(run_pass, seconds)
        outcomes = [o for _, o in passes[0]]
        if any([o for _, o in p] != outcomes for p in passes[1:]):
            problems.append("repeated passes gave different output")
        samples = [dt for p in passes for dt, _ in p]
        p50, p90 = _latency_ms(samples)
        metrics["points_per_s"] = (statistics.median(
            n_points / sum(dt for dt, _ in p) for p in passes), "1/s")
        metrics["latency_p50_ms"] = (p50, "ms")
        metrics["latency_p90_ms"] = (p90, "ms")
        metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
        notes.append(f"latency samples {len(samples)} over {len(passes)} "
                     f"pass(es) of {n_points} point(s)")

    if name in SCANS:
        rc, data = outcomes[0]
        if rc != 0:
            problems.append(f"cylvar scan exited {rc}")
        rows = check_scan(name, data, read_reference(name))
    else:
        rows = check_points(points, outcomes)

    failed = [(f"{name} B={b} rho0={r}", checks, known)
              for (b, r), checks, known, _, _ in rows if checks]
    unexpected = [label for label, checks, known in failed
                  if not set(checks) <= set(known)]
    defects = [d for *_, d in rows if d is not None]
    notes.append(f"failed_frac {len(failed)}/{n_points} = "
                 f"{len(failed) / n_points:.6g}")
    by_check = Counter((c, c in known) for _, checks, known in failed
                       for c in checks)
    for (check, is_known), count in sorted(by_check.items()):
        notes.append(f"  {check}: {count} "
                     f"({'known defect' if is_known else 'UNEXPECTED'})")
    for label, checks, _ in failed[:LISTED_FAILURES]:
        notes.append(f"  failed {label}: {','.join(checks)}")
    if len(failed) > LISTED_FAILURES:
        notes.append(f"  ... and {len(failed) - LISTED_FAILURES} more")
    problems += [f"unexpected failure at {label}" for label in unexpected]
    if not defects:
        problems.append("no point produced an energy")
    if not trace:
        metrics["ok_frac"] = ((n_points - len(failed)) / n_points, "ratio")
        metrics["energy_defect_max_uHa"] = (
            1e6 * max(defects, default=0.0), "uHa")
    return {"correct": not problems, "attempted": n_points,
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "notes": notes + [f"PROBLEM {p}" for p in problems]}


def write_reference():
    """Seed baseline: refined-grid energy and failed checks of every row."""
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name, w in SCANS.items():
        path = os.path.join(REFERENCE_DIR, name + ".csv")
        [(_, (rc, data))] = scan_pass(name, w["jobs"], path + ".tmp")
        os.remove(path + ".tmp")
        if rc != 0:
            raise SystemExit(f"{name}: cylvar scan exited {rc}")
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["B", "rho0", "E_refined", "seed_failures"])
            for (b, r), checks, _, fine, _ in check_scan(name, data, None):
                out.writerow([b, r, repr(fine), ";".join(checks)])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*SCANS, "point-eval"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=".perfbench_out")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    os.makedirs(args.out, exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.out)
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Gradient-based minimization of the Rayleigh quotient.

Bounded L-BFGS-B over the selected free parameters, on the analytic energy
gradient of a quadrature rule held fixed for each solve, multi-start, with
deterministic tie-breaking.  Bounds taken from ``trialfn.admissible_bounds``
keep every proposal admissible.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, replace
from typing import ClassVar, Mapping, Sequence

import scipy.optimize

from . import hamiltonian
from .hamiltonian import EnergyBreakdown
from .quadrature import QuadratureSpec
from .records import ScanRecord
from .trialfn import (SystemConfig, TrialParams, admissible_bounds,
                      check_admissible)

__all__ = [
    "OptimizeRequest",
    "OptimizeResult",
    "DEFAULT_STARTS",
    "minimize",
    "scan",
    "default_request",
    "point_record",
]

_PARAM_NAMES = ("alpha", "beta", "nu", "gamma")

# Brackets the optima observed across the production grid, including the
# negative-beta region at moderate radii.
DEFAULT_STARTS = (
    TrialParams(alpha=1.0, beta=0.1, nu=2.0),
    TrialParams(alpha=1.2, beta=-0.1, nu=3.0),
    TrialParams(alpha=0.8, beta=0.25, nu=1.5),
)

# Starts for the unconfined variant; the Landau factor needs beta > 0 there
# and the exact field-only limit sits at beta = 1/4.
INF_STARTS = (
    TrialParams(alpha=1.0, beta=0.2, nu=2.0, gamma=0.1),
    TrialParams(alpha=0.9, beta=0.25, nu=2.0, gamma=0.5),
    TrialParams(alpha=1.1, beta=0.15, nu=2.0, gamma=0.0),
)

# L-BFGS-B stopping rule.  An ftol near double precision settles E to about
# 1e-12; with gtol at 1e-10 the line search stalls short of it at some
# points and the solve ends without success.
_FTOL = 1e-14
_GTOL = 1e-8
_MAX_EVALS = 2000  # objective evaluations per solve
# L-BFGS-B takes closed bounds: a strict one moves this far inside.
_STRICT_MARGIN = 1e-8


@dataclass(frozen=True)
class OptimizeRequest:
    cfg: SystemConfig
    free_params: tuple[str, ...]
    fixed_values: Mapping[str, float]
    starts: tuple[TrialParams, ...] = DEFAULT_STARTS
    # Starts whose energies lie this close to the lowest are tied.
    tol_energy: ClassVar[float] = 1e-6

    def __post_init__(self):
        if not self.starts:
            raise ValueError("at least one start is required")
        unknown = set(self.free_params) - set(_PARAM_NAMES)
        if unknown:
            raise ValueError(f"unknown parameter names: {sorted(unknown)}")
        check_admissible(self.fixed_values, self.cfg)
        for name in ("alpha", "beta", "nu"):
            if name not in self.free_params and name not in self.fixed_values:
                raise ValueError(f"parameter {name!r} is neither free nor fixed")
        if self.cfg.B == 0:
            if "beta" in self.free_params or self.fixed_values.get("beta") != 0.0:
                raise ValueError("at B = 0 beta must be fixed to 0")
        if "gamma" in self.free_params and not math.isinf(self.cfg.rho0):
            raise ValueError("gamma only applies to the rho0 = inf variant")
        if "nu" in self.free_params and math.isinf(self.cfg.rho0):
            raise ValueError("nu has no effect at rho0 = inf; fix it")

    def build_params(self, x: Sequence[float]) -> TrialParams:
        vals = dict(self.fixed_values)
        vals.update(zip(self.free_params, x))
        gamma = vals.get("gamma")
        return TrialParams(alpha=vals["alpha"], beta=vals["beta"],
                           nu=vals["nu"], gamma=gamma)

    def start_vector(self, start: TrialParams) -> list[float]:
        vec = []
        for name in self.free_params:
            v = getattr(start, name)
            vec.append(0.0 if v is None else v)
        return vec

    def lower_bounds(self) -> list[float | None]:
        """L-BFGS-B lower bound of each free parameter (none above)."""
        bounds = admissible_bounds(self.cfg)
        return [bounds[name][0] + _STRICT_MARGIN * bounds[name][1]
                if name in bounds else None for name in self.free_params]


@dataclass(frozen=True)
class OptimizeResult:
    params: TrialParams
    energy: EnergyBreakdown
    evals: int
    converged: bool
    start_index: int


def _solve(req: OptimizeRequest, spec: QuadratureSpec, x0: Sequence[float]):
    """One L-BFGS-B run on the rule adapted to the parameters at ``x0``."""
    rule = hamiltonian.fixed_rule(req.build_params(x0), req.cfg, spec)

    def objective(x):
        return hamiltonian.energy_gradient(req.build_params(x), req.cfg, rule,
                                           req.free_params)

    return scipy.optimize.minimize(
        objective, x0, jac=True, method="L-BFGS-B",
        bounds=[(lo, None) for lo in req.lower_bounds()],
        options=dict(ftol=_FTOL, gtol=_GTOL, maxfun=_MAX_EVALS))


def _run_single_start(req: OptimizeRequest, spec: QuadratureSpec,
                      start_index: int) -> OptimizeResult:
    x0 = [v if lo is None else max(v, lo) for v, lo in
          zip(req.start_vector(req.starts[start_index]), req.lower_bounds())]
    first = _solve(req, spec, x0)
    # The rule was adapted to the start; solve again on one adapted to the
    # first optimum.
    final = _solve(req, spec, first.x)
    params = req.build_params(final.x)
    return OptimizeResult(params=params,
                          energy=hamiltonian.energy(params, req.cfg, spec),
                          evals=first.nfev + final.nfev,
                          converged=bool(final.success),
                          start_index=start_index)


def _select_best(candidates: Sequence[OptimizeResult],
                 tol_energy: float) -> OptimizeResult:
    e_min = min(c.energy.total for c in candidates)
    tied = [c for c in candidates if c.energy.total <= e_min + tol_energy]
    # Ties broken by smallest nu, then smallest |beta|, then start order.
    return min(tied, key=lambda c: (c.params.nu, abs(c.params.beta),
                                    c.start_index))


def minimize(req: OptimizeRequest, spec: QuadratureSpec) -> OptimizeResult:
    """Best result over all starts (lowest energy, deterministic ties).

    ``evals`` counts objective evaluations over every start; a request with
    no free parameter is one energy evaluation.
    """
    if not req.free_params:
        params = req.build_params(())
        return OptimizeResult(params=params,
                              energy=hamiltonian.energy(params, req.cfg, spec),
                              evals=1, converged=True, start_index=0)
    candidates = [_run_single_start(req, spec, i)
                  for i in range(len(req.starts))]
    best = _select_best(candidates, req.tol_energy)
    return replace(best, evals=sum(c.evals for c in candidates))


def default_request(
        cfg: SystemConfig,
        fixed: Mapping[str, float] | None = None) -> OptimizeRequest:
    """Standard request for one config: optimize whatever is not pinned.

    ``fixed`` pins parameters to user-supplied values; beta is forced to 0
    at B = 0 and the cut-off exponent is inert for rho0 = inf.
    """
    fixed = dict(fixed or {})
    if math.isinf(cfg.rho0):
        candidates = ["alpha", "beta", "gamma"]
        fixed.setdefault("nu", 2.0)  # cut-off absent; value is inert
        starts = INF_STARTS
    else:
        candidates = ["alpha", "beta", "nu"]
        starts = DEFAULT_STARTS
    if cfg.B == 0:
        fixed["beta"] = 0.0
    free = tuple(name for name in candidates if name not in fixed)
    return OptimizeRequest(cfg=cfg, free_params=free, fixed_values=fixed,
                           starts=starts)


def point_record(cfg: SystemConfig, spec: QuadratureSpec,
                 fixed: Mapping[str, float] | None = None,
                 warm: TrialParams | None = None) -> ScanRecord:
    """Output row for one config under ``default_request(cfg, fixed)``.

    ``warm``, a previous optimum, is tried as one more start.  The
    reference energy comes first, since it refuses some inputs outright;
    then ``minimize``, then the observables at the optimum.
    """
    req = default_request(cfg, fixed)
    if warm is not None:
        if not math.isinf(cfg.rho0):
            warm = replace(warm, gamma=None)
        req = replace(req, starts=req.starts + (warm,))
    e0 = hamiltonian.reference_energy(cfg)
    result = minimize(req, spec)
    obs = hamiltonian.observables(result.params, cfg, spec)
    e = result.energy.total
    return ScanRecord(B=cfg.B, rho0=cfg.rho0, E=e,
                      alpha=result.params.alpha, beta=result.params.beta,
                      nu=result.params.nu, gamma=result.params.gamma,
                      E0=e0, Eb=e0 - e,
                      mean_rho=obs.mean_rho, mean_abs_z=obs.mean_abs_z,
                      aspect_ratio=obs.aspect_ratio,
                      shannon_r=obs.shannon_r, cusp_Z=obs.cusp_Z,
                      converged=result.converged, evals=result.evals)


def _failed_record(cfg: SystemConfig) -> ScanRecord:
    nan = float("nan")
    return ScanRecord(B=cfg.B, rho0=cfg.rho0, E=nan, alpha=nan, beta=nan,
                      nu=nan, gamma=None, E0=nan, Eb=nan, mean_rho=nan,
                      mean_abs_z=nan, aspect_ratio=nan, shannon_r=nan,
                      cusp_Z=nan, converged=False, evals=0)


def _scan_row(row: Sequence[SystemConfig],
              spec: QuadratureSpec) -> list[ScanRecord]:
    """Records of one B row, each warm-started from the previous optimum."""
    records: list[ScanRecord] = []
    warm: TrialParams | None = None
    for cfg in row:
        try:
            rec = point_record(cfg, spec, warm=warm)
            warm = TrialParams(alpha=rec.alpha, beta=rec.beta, nu=rec.nu,
                               gamma=rec.gamma)
        except Exception:
            rec = _failed_record(cfg)
        records.append(rec)
    return records


def scan(grid: Sequence[SystemConfig], spec: QuadratureSpec,
         jobs: int = 1) -> list[ScanRecord]:
    """One record per grid config under its own ``default_request``.

    Configs with the same B form a row, in grid order; each row's points
    are warm-started from the previous optimum in that row only.  Rows are
    independent, so ``jobs > 1`` runs them in a process pool and the
    records do not depend on ``jobs``.
    """
    if not grid:
        raise ValueError("scan grid must be non-empty")
    rows: dict[float, list[int]] = {}
    for i, cfg in enumerate(grid):
        rows.setdefault(cfg.B, []).append(i)
    tasks = [([grid[i] for i in index], spec) for index in rows.values()]
    workers = min(jobs, len(tasks))
    if workers > 1:
        # The default start method: under spawn each worker re-imports numpy
        # and scipy, which costs more than a whole row at 64 nodes.
        pool = multiprocessing.Pool(workers)
        try:
            done = pool.starmap(_scan_row, tasks, chunksize=1)
        finally:
            pool.close()
            pool.join()
    else:
        done = [_scan_row(*task) for task in tasks]
    records: list[ScanRecord | None] = [None] * len(grid)
    for index, row_records in zip(rows.values(), done):
        for i, rec in zip(index, row_records):
            records[i] = rec
    return records

"""Derivative-free minimization of the Rayleigh quotient.

Nelder-Mead over the selected free parameters, restarted once from its own
optimum, multi-start, with deterministic tie-breaking.  Inadmissible
proposals (alpha <= 0, nu < 1, non-normalizable Landau factor) are rejected
with an infinite objective rather than clamped.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from scipy.optimize import minimize as _nelder_mead

from . import hamiltonian
from .hamiltonian import EnergyBreakdown
from .quadrature import QuadratureSpec
from .records import ScanRecord
from .trialfn import SystemConfig, TrialParams

__all__ = [
    "OptimizeRequest",
    "OptimizeResult",
    "DEFAULT_STARTS",
    "minimize",
    "scan",
    "default_request",
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

_BIG = 1e12


@dataclass(frozen=True)
class OptimizeRequest:
    cfg: SystemConfig
    free_params: tuple[str, ...]
    fixed_values: Mapping[str, float]
    starts: tuple[TrialParams, ...] = DEFAULT_STARTS
    tol_energy: float = 1e-6
    tol_param: float = 1e-5
    max_evals: int = 2000

    def __post_init__(self):
        if not self.starts:
            raise ValueError("at least one start is required")
        if self.tol_energy <= 0:
            raise ValueError("tol_energy must be positive")
        unknown = set(self.free_params) - set(_PARAM_NAMES)
        if unknown:
            raise ValueError(f"unknown parameter names: {sorted(unknown)}")
        for name in ("alpha", "beta", "nu"):
            if name not in self.free_params and name not in self.fixed_values:
                raise ValueError(f"parameter {name!r} is neither free nor fixed")
        if self.cfg.B == 0:
            if "beta" in self.free_params or self.fixed_values.get("beta") != 0.0:
                raise ValueError("at B = 0 beta must be fixed to 0")
        if "gamma" in self.free_params and not math.isinf(self.cfg.rho0):
            raise ValueError("gamma only applies to the rho0 = inf variant")

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


@dataclass(frozen=True)
class OptimizeResult:
    params: TrialParams
    energy: EnergyBreakdown
    evals: int
    converged: bool
    start_index: int


def _run_single_start(req: OptimizeRequest, spec: QuadratureSpec,
                      start_index: int) -> OptimizeResult:
    count = 0

    def objective(x):
        nonlocal count
        count += 1
        total = hamiltonian.energy(req.build_params(x), req.cfg, spec).total
        return total if math.isfinite(total) else _BIG

    x0 = req.start_vector(req.starts[start_index])
    if not req.free_params:
        params = req.build_params(())
        return OptimizeResult(params=params,
                              energy=hamiltonian.energy(params, req.cfg, spec),
                              evals=1, converged=True,
                              start_index=start_index)

    options = dict(xatol=req.tol_param, fatol=req.tol_energy,
                   maxfev=req.max_evals)
    res = _nelder_mead(objective, x0, method="Nelder-Mead", options=options)
    # One restart from the optimum re-expands the simplex and guards against
    # premature contraction.
    res = _nelder_mead(objective, res.x, method="Nelder-Mead", options=options)
    params = req.build_params(res.x)
    return OptimizeResult(params=params,
                          energy=hamiltonian.energy(params, req.cfg, spec),
                          evals=count, converged=bool(res.success),
                          start_index=start_index)


def _select_best(candidates: Sequence[OptimizeResult],
                 tol_energy: float) -> OptimizeResult:
    finite = [c for c in candidates if math.isfinite(c.energy.total)]
    pool = finite or list(candidates)
    e_min = min(c.energy.total for c in pool)
    tied = [c for c in pool if c.energy.total <= e_min + tol_energy]
    # Ties broken by smallest nu, then smallest |beta|, then start order.
    return min(tied, key=lambda c: (c.params.nu, abs(c.params.beta),
                                    c.start_index))


def minimize(req: OptimizeRequest, spec: QuadratureSpec,
             pool=None) -> OptimizeResult:
    """Best result over all starts (lowest energy, deterministic ties)."""
    if pool is None:
        candidates = [_run_single_start(req, spec, i)
                      for i in range(len(req.starts))]
    else:
        candidates = pool.starmap(
            _run_single_start,
            [(req, spec, i) for i in range(len(req.starts))])
    return _select_best(candidates, req.tol_energy)


def default_request(cfg: SystemConfig,
                    fixed: Mapping[str, float] | None = None,
                    **kwargs) -> OptimizeRequest:
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
                           starts=starts, **kwargs)


def _record_for(cfg: SystemConfig, result: OptimizeResult,
                spec: QuadratureSpec) -> ScanRecord:
    obs = hamiltonian.observables(result.params, cfg, spec)
    e0 = hamiltonian.reference_energy(cfg)
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


def scan(grid: Sequence[SystemConfig], spec: QuadratureSpec,
         jobs: int = 1) -> list[ScanRecord]:
    """One record per grid config under its own ``default_request``,
    warm-started from the previous optimum.

    ``jobs > 1`` runs the independent starts of each config in a process
    pool; the start set and the deterministic reduction are identical to
    the serial path, so results do not depend on ``jobs``.
    """
    if not grid:
        raise ValueError("scan grid must be non-empty")
    pool = multiprocessing.Pool(jobs) if jobs > 1 else None
    records: list[ScanRecord] = []
    prev_params: TrialParams | None = None
    try:
        for cfg in grid:
            req = default_request(cfg)
            starts = req.starts
            if prev_params is not None:
                warm = prev_params
                if not math.isinf(cfg.rho0) and warm.gamma is not None:
                    warm = replace(warm, gamma=None)
                if cfg.B == 0:
                    warm = replace(warm, beta=0.0)
                starts = starts + (warm,)
            req = replace(req, starts=starts)
            try:
                result = minimize(req, spec, pool=pool)
                records.append(_record_for(cfg, result, spec))
                prev_params = result.params
            except Exception:
                records.append(_failed_record(cfg))
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    return records

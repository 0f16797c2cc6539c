"""Gradient-based minimization of the Rayleigh quotient.

Bounded L-BFGS-B over the free parameters, on the analytic energy gradient
of one radial quadrature rule held fixed for each point.  A request names
only what it pins; every other parameter that acts at its (B, rho0) is free
(``OptimizeRequest.free_params``), and one that acts on nothing there keeps
its ``TrialParams`` default.  Each point is one solve per basin of the
energy (two when beta and nu are both free, else one), each from its own
start; the other starts run only when one of those solves ends unconverged
or on a bound.  Bounds taken from ``trialfn.admissible_bounds`` keep every
proposal admissible.

L-BFGS-B depends on how its coordinates are scaled (Byrd, Lu, Nocedal & Zhu,
SIAM J. Sci. Comput. 16, 1995), so the solver steps in alpha, beta*B, ln nu
and gamma.  psi depends on beta only through beta*B; in beta the gradient
shrinks with B, and at small B it passes gtol far from the optimum.  In nu
the curvature of E falls as nu grows (its Hessian's eigenvalues in linear nu
are 1.2e-4, 0.43 and 3.3 at the sharp optimum at (B, rho0) = (0.4, 2)), so
the solves crept, and at large rho0 stopped at their start's nu; ln nu needs
no tuning constant, and nu >= 1 is the box bound ln nu >= 0.
"""

from __future__ import annotations

import math
import multiprocessing
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import ClassVar, Mapping, Sequence

import numpy as np
import scipy.linalg
import scipy.optimize

from . import hamiltonian
from .hamiltonian import EnergyBreakdown
from .quadrature import QuadratureSpec
from .records import ScanRecord, format_float
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

# Once beta is free (B > 0) at finite rho0, two shapes of the cut-off
# compete: a soft one (nu near 2, often with a Gaussian rising towards the
# wall) and a sharp one (large nu, beta*B near 0, the B = 0 shape).  Which
# is lower changes with B and rho0, and each solve stays in the basin it
# starts in, so the first two starts are one in each.  The others run only
# as a fallback.
DEFAULT_STARTS = (
    TrialParams(alpha=1.0, beta=0.1, nu=2.0),
    TrialParams(alpha=1.0, beta=0.0, nu=4.0),
    TrialParams(alpha=1.2, beta=-0.1, nu=3.0),
    TrialParams(alpha=0.8, beta=0.25, nu=1.5),
)

# Starts for the unconfined variant; the Landau factor needs beta > 0 there
# and the exact field-only limit sits at beta = 1/4.
INF_STARTS = (
    TrialParams(alpha=1.0, beta=0.2, nu=2.0, gamma=0.1),
    TrialParams(alpha=0.9, beta=0.25, nu=2.0, gamma=0.5),
)

# L-BFGS-B stopping rule.  An ftol near double precision settles E to about
# 1e-12.  At large rho0 E hardly depends on nu (by about 1e-9 at rho0 = 13),
# and a gtol of 1e-8 stops nu far from its optimum there.
_FTOL = 1e-14
_GTOL = 1e-10
# A gtol of 1e-10 is below what double precision certifies for E of order
# 1, so a solve may instead end in a failed line search (L-BFGS-B status 2)
# at a point where rounding hides every descent direction.  Such a stall
# counts as converged when the quadratic model of E there is convex and its
# decrease is within the rounding of E (see _stalled_at_minimum).
_LINE_SEARCH_FAILED = 2
_HESSIAN_STEP = 1e-6  # forward difference, relative to max(1, |x|)
_ROUNDING_DECREASE = 64 * np.finfo(float).eps  # relative to max(|E|, 1)
_MAX_EVALS = 2000  # objective evaluations per solve
_MIN_BETA_SCALE = 1e-150  # see OptimizeRequest._layout
# L-BFGS-B takes closed bounds: a strict one moves this far inside.
_STRICT_MARGIN = 1e-8


@dataclass(frozen=True)
class OptimizeRequest:
    """Minimize E at ``cfg`` over every parameter that acts there and is not
    pinned in ``fixed_values``; see ``free_params``."""

    cfg: SystemConfig
    fixed_values: Mapping[str, float]
    starts: tuple[TrialParams, ...] = DEFAULT_STARTS
    # Starts whose energies lie this close to the lowest are tied.
    tol_energy: ClassVar[float] = 1e-6

    def __post_init__(self):
        if not self.starts:
            raise ValueError("at least one start is required")
        unknown = set(self.fixed_values) - set(_PARAM_NAMES)
        if unknown:
            raise ValueError(f"unknown parameter names: {sorted(unknown)}")
        check_admissible(self.fixed_values, self.cfg)

    @cached_property
    def free_params(self) -> tuple[str, ...]:
        """The parameters the solves vary: those of alpha, beta, nu and
        gamma that act at ``cfg`` and are not pinned.  beta acts only as
        beta*B, so at B > 0; nu only through the cut-off, at finite rho0;
        gamma only at rho0 = inf.  One that does not act keeps its pinned
        value, else its ``TrialParams`` default."""
        acting = ("alpha", "beta",
                  "gamma" if math.isinf(self.cfg.rho0) else "nu")
        return tuple(name for name in acting
                     if name not in self.fixed_values
                     and (name != "beta" or self.cfg.B > 0))

    @cached_property
    def _layout(self) -> tuple[tuple[str, float | None], ...]:
        """(name, scale) of each free parameter: its solver coordinate is
        scale times the parameter, or ln nu for a scale of None.  Resolved
        once, since ``build_params`` runs on every objective evaluation.
        The floor on B in beta's scale keeps beta = x/B finite."""
        beta_scale = max(self.cfg.B, _MIN_BETA_SCALE)
        return tuple((name, None if name == "nu" else
                      beta_scale if name == "beta" else 1.0)
                     for name in self.free_params)

    def build_params(self, x: Sequence[float]) -> TrialParams:
        """Trial state at solver coordinates ``x``."""
        return TrialParams(**self.fixed_values, **{
            name: math.exp(v) if s is None else v / s
            for (name, s), v in zip(self._layout, x)})

    def start_vector(self, start: TrialParams) -> list[float]:
        """Solver coordinates of ``start``."""
        vec = []
        for name, s in self._layout:
            v = getattr(start, name)
            vec.append(_to_coordinate(0.0 if v is None else v, s))
        return vec

    def lower_bounds(self) -> list[float | None]:
        """L-BFGS-B lower bound of each solver coordinate (none above)."""
        bounds = admissible_bounds(self.cfg)
        return [_to_coordinate(bounds[name][0]
                               + _STRICT_MARGIN * bounds[name][1], s)
                if name in bounds else None
                for name, s in self._layout]

    def chain_factors(self, params: TrialParams) -> np.ndarray:
        """d(parameter)/d(solver coordinate) of each free parameter at
        ``params``: 1/scale, or nu for ln nu."""
        return np.array([params.nu if s is None else 1.0 / s
                         for _, s in self._layout])


def _to_coordinate(value: float, scale: float | None) -> float:
    return math.log(value) if scale is None else value * scale


@dataclass(frozen=True)
class OptimizeResult:
    params: TrialParams
    energy: EnergyBreakdown
    evals: int
    converged: bool
    start_index: int
    # The rule the solves ran on, for the observables at the optimum.
    rule: hamiltonian.FixedRule | None = field(default=None, compare=False,
                                               repr=False)


def _stalled_at_minimum(objective, res) -> bool:
    """Whether the point where L-BFGS-B's line search failed is a minimum
    to rounding: the forward-difference Hessian H of the analytic gradient
    g is positive definite, and the Newton decrease g^T H^-1 g / 2 is within
    the rounding of E.  Costs one objective evaluation per coordinate."""
    x, g = res.x, res.jac
    steps = _HESSIAN_STEP * np.maximum(1.0, np.abs(x))
    hess = np.array([(objective(x + h * unit)[1] - g) / h
                     for h, unit in zip(steps, np.eye(len(x)))])
    try:
        chol = np.linalg.cholesky(0.5 * (hess + hess.T))
    except np.linalg.LinAlgError:
        return False
    w = scipy.linalg.solve_triangular(chol, g, lower=True)
    return bool(0.5 * (w @ w) <= _ROUNDING_DECREASE * max(abs(res.fun), 1.0))


def _objective(req: OptimizeRequest, rule: hamiltonian.FixedRule):
    """E on ``rule`` and its gradient in solver coordinates, as a function
    of those coordinates."""
    def objective(x):
        params = req.build_params(x)
        e, grad = hamiltonian.energy_gradient(params, req.cfg, rule,
                                              req.free_params)
        return e, grad * req.chain_factors(params)
    return objective


def _run_single_start(req: OptimizeRequest, spec: QuadratureSpec,
                      start_index: int,
                      rule: hamiltonian.FixedRule
                      ) -> tuple[OptimizeResult, bool]:
    """One L-BFGS-B solve on ``rule``, and whether it ended with a free
    parameter on its lower bound."""
    lows = req.lower_bounds()
    x0 = [v if lo is None else max(v, lo) for v, lo in
          zip(req.start_vector(req.starts[start_index]), lows)]
    objective = _objective(req, rule)

    # Trial points with a huge |beta B| overflow exp and f^2 on the way to
    # a finite optimum; the reported energy below is checked as usual.
    with np.errstate(over="ignore", invalid="ignore"):
        res = scipy.optimize.minimize(
            objective, x0, jac=True, method="L-BFGS-B",
            bounds=[(lo, None) for lo in lows],
            options=dict(ftol=_FTOL, gtol=_GTOL, maxfun=_MAX_EVALS))
        evals, converged = res.nfev, bool(res.success)
        if res.status == _LINE_SEARCH_FAILED:
            converged = _stalled_at_minimum(objective, res)
            evals += len(res.x)
    params = req.build_params(res.x)
    result = OptimizeResult(
        params=params, energy=hamiltonian.energy(params, req.cfg, spec, rule),
        evals=evals, converged=converged, start_index=start_index, rule=rule)
    return result, any(lo is not None and v <= lo
                       for v, lo in zip(res.x, lows))


def _select_best(candidates: Sequence[OptimizeResult],
                 tol_energy: float) -> OptimizeResult:
    e_min = min(c.energy.total for c in candidates)
    tied = [c for c in candidates if c.energy.total <= e_min + tol_energy]
    # Ties broken by smallest nu, then smallest |beta|, then start order.
    return min(tied, key=lambda c: (c.params.nu, abs(c.params.beta),
                                    c.start_index))


def _basins(req: OptimizeRequest) -> int:
    """Starts ``minimize`` always solves from: one per basin of the energy
    (see ``DEFAULT_STARTS``).  With beta inert (B = 0) or pinned, or nu
    inert (rho0 = inf) or pinned, every start reaches the same optimum."""
    return 2 if {"beta", "nu"} <= set(req.free_params) else 1


def minimize(req: OptimizeRequest, spec: QuadratureSpec) -> OptimizeResult:
    """Lowest energy over one solve from each basin's start, ties to the
    rounding of E broken as in ``_select_best``; the best over every start
    (ties within ``tol_energy``) when one of those solves ends unconverged
    or with a free parameter on its lower bound.

    ``evals`` counts objective evaluations over every start run; a request
    with no free parameter is one energy evaluation.
    """
    # One rule for every solve.  It depends on the first start only through
    # the radius beyond which that start's density is negligible, which
    # ``energy`` checks at each optimum.
    rule = hamiltonian.fixed_rule(
        req.build_params(req.start_vector(req.starts[0])), req.cfg, spec)
    if not req.free_params:
        params = req.build_params(())
        return OptimizeResult(
            params=params, energy=hamiltonian.energy(params, req.cfg, spec,
                                                     rule),
            evals=1, converged=True, start_index=0, rule=rule)
    n = min(_basins(req), len(req.starts))
    runs = [_run_single_start(req, spec, i, rule) for i in range(n)]
    candidates = [result for result, _ in runs]
    if all(result.converged and not on_bound for result, on_bound in runs):
        # Basin solves that end at one optimum tie to rounding.
        e_min = min(c.energy.total for c in candidates)
        tol = _ROUNDING_DECREASE * max(abs(e_min), 1.0)
    else:
        candidates += [_run_single_start(req, spec, i, rule)[0]
                       for i in range(n, len(req.starts))]
        tol = req.tol_energy
    best = _select_best(candidates, tol)
    return replace(best, evals=sum(c.evals for c in candidates))


def default_request(
        cfg: SystemConfig,
        fixed: Mapping[str, float] | None = None) -> OptimizeRequest:
    """Standard request for one config: optimize whatever acts there and is
    not pinned in ``fixed``, from the starts for finite or infinite rho0."""
    return OptimizeRequest(
        cfg=cfg, fixed_values=dict(fixed or {}),
        starts=INF_STARTS if math.isinf(cfg.rho0) else DEFAULT_STARTS)


def point_record(cfg: SystemConfig, spec: QuadratureSpec,
                 fixed: Mapping[str, float] | None = None) -> ScanRecord:
    """Output row for one config under ``default_request(cfg, fixed)``.

    The reference energy comes first, so that an input whose E0 cannot be
    computed fails before any solve; then ``minimize``, then the
    observables at the optimum on the rule its solves ran on.
    """
    e0 = hamiltonian.reference_energy(cfg)
    result = minimize(default_request(cfg, fixed), spec)
    obs = hamiltonian.observables(result.params, cfg, spec, result.rule)
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


def _scan_point(cfg: SystemConfig,
                spec: QuadratureSpec) -> tuple[ScanRecord, str | None]:
    """``point_record(cfg, spec)``; a config that raises gives a NaN row and
    the reason, ``"<exception class>: <message>"``."""
    try:
        return point_record(cfg, spec), None
    except Exception as exc:
        return _failed_record(cfg), f"{type(exc).__name__}: {exc}"


def scan(grid: Sequence[SystemConfig], spec: QuadratureSpec,
         jobs: int = 1) -> list[ScanRecord]:
    """One record per grid config under its own ``default_request``, in grid
    order, with one line on stderr for each row that failed and came out
    NaN, saying why.

    Each record depends on its config alone, so ``jobs > 1`` runs the
    configs in a process pool and the records do not depend on ``jobs`` or
    on the rest of the grid.
    """
    if not grid:
        raise ValueError("scan grid must be non-empty")
    tasks = [(cfg, spec) for cfg in grid]
    workers = min(jobs, len(tasks))
    if workers <= 1:
        outcomes = [_scan_point(*task) for task in tasks]
    else:
        # The default start method: under spawn each worker re-imports numpy
        # and scipy, which costs more than a whole scan row at 64 nodes.
        pool = multiprocessing.Pool(workers)
        try:
            outcomes = pool.starmap(_scan_point, tasks, chunksize=1)
        finally:
            pool.close()
            pool.join()
    for record, reason in outcomes:
        if reason is not None:
            print(f"cylvar: warning: scan row B={format_float(record.B)} "
                  f"rho0={format_float(record.rho0)} failed: {reason}",
                  file=sys.stderr)
    return [record for record, _ in outcomes]

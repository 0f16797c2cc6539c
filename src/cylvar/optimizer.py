"""Projected Newton minimization of the Rayleigh quotient.

Newton steps on the exact gradient and Hessian of E
(``hamiltonian.energy_derivatives``) on one radial quadrature rule held
fixed for each point, unless a solve's density outruns it.  A request
names only what it pins; every other parameter that acts at its (B, rho0)
is free (``OptimizeRequest.free_params``), and one that acts on nothing
there keeps its ``TrialParams`` default.  Each point is one solve per basin
of the energy (two when beta and nu are both free, else one), each from its
own start (``OptimizeRequest.starts``), and the lowest of them.  Lower
bounds from ``trialfn.admissible_bounds`` keep every step admissible.

The solver steps in alpha, beta*B, ln nu and gamma, the coordinates the
kernel differentiates in: psi depends on beta only through beta*B, and E
flattens in nu as nu grows, so a step in ln nu reaches further where E is
flat; nu >= 1 is the bound ln nu >= 0.  scipy offers no bounded method on
an exact Hessian at this cost (``trust-exact`` has no bounds and spends
several kernel evaluations' time per iteration outside the objective), so
the loop is hand-written on Python floats.
"""

from __future__ import annotations

import math
import multiprocessing
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import ClassVar, Mapping, Sequence

import numpy as np

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
# starts in, so there is one start in each: the soft one first.
DEFAULT_STARTS = (
    TrialParams(alpha=1.0, beta=0.1, nu=2.0),
    TrialParams(alpha=1.0, beta=0.0, nu=4.0),
)

# The start for the unconfined variant; the Landau factor needs beta > 0
# there.
INF_STARTS = (TrialParams(alpha=1.0, beta=0.2, nu=2.0, gamma=0.1),)

# A solve stops at a point where the Hessian of E over the free coordinates
# is positive definite and the Newton decrement g^T H^-1 g / 2 is within
# the rounding of E.
_ROUNDING_DECREASE = 64 * sys.float_info.epsilon  # relative to max(|E|, 1)
_MAX_EVALS = 2000  # objective evaluations per solve
_ARMIJO = 1e-4  # accepted decrease, as a fraction of g^T (x_new - x)
_MAX_HALVINGS = 30  # of one Newton step before the solve gives up
_MAX_RULES = 16  # per solve, see _run_single_start
# Largest step in ln nu, and in beta*B times rho_max^2 (the Gaussian's
# exponent at the rule's edge): far from its optimum E can be flat in
# either, and a Newton step there unbounded.
_MAX_LN_NU_STEP = 1.0
_MAX_GAUSS_STEP = 64.0
# The box is closed: a strict bound moves this far inside.
_STRICT_MARGIN = 1e-8


@dataclass(frozen=True)
class OptimizeRequest:
    """Minimize E at ``cfg`` over every parameter that acts there and is not
    pinned in ``fixed_values``; see ``free_params``."""

    cfg: SystemConfig
    fixed_values: Mapping[str, float]
    # Not used by the solves: perfbench/worker.py reads it as the energy
    # tolerance of its checks.
    tol_energy: ClassVar[float] = 1e-6

    def __post_init__(self):
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
    def starts(self) -> tuple[TrialParams, ...]:
        """One start per basin of E, as ``free_params`` derived from
        (B, rho0) and the pins: the unconfined start at rho0 = inf, the
        soft and the sharp start when beta and nu are both free, else the
        soft start alone, since with beta inert (B = 0) or pinned, or nu
        pinned, both reach the same optimum."""
        if math.isinf(self.cfg.rho0):
            return INF_STARTS
        return DEFAULT_STARTS[:2 if {"beta", "nu"} <= set(self.free_params)
                              else 1]

    @cached_property
    def _layout(self) -> tuple[tuple[str, float | None], ...]:
        """(name, scale) of each free parameter: its solver coordinate is
        scale times the parameter, or ln nu for a scale of None.  Resolved
        once, since ``build_params`` runs on every objective evaluation."""
        return tuple((name, None if name == "nu" else
                      self.cfg.B if name == "beta" else 1.0)
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
        """Lower bound of each solver coordinate (none above)."""
        bounds = admissible_bounds(self.cfg)
        return [_to_coordinate(bounds[name][0]
                               + _STRICT_MARGIN * bounds[name][1], s)
                if name in bounds else None
                for name, s in self._layout]


def _to_coordinate(value: float, scale: float | None) -> float:
    return math.log(value) if scale is None else value * scale


@dataclass(frozen=True)
class OptimizeResult:
    params: TrialParams
    energy: EnergyBreakdown
    evals: int
    converged: bool
    # Which of ``req.starts`` the reported solve ran from: nothing in the
    # package reads it, but a trace of the solves names the winner by it.
    start_index: int
    # The rule the solves ran on, for the observables at the optimum.
    rule: hamiltonian.FixedRule | None = field(default=None, compare=False,
                                               repr=False)


def _cholesky(a, tau):
    """Lower Cholesky factor of a + tau I on Python floats, or None if that
    is not positive definite."""
    chol = []
    for i, row in enumerate(a):
        ci = []
        for j, cj in enumerate(chol):
            ci.append((row[j] - sum(ci[k] * cj[k] for k in range(j))) / cj[j])
        v = row[i] + tau - sum(c * c for c in ci)
        if not v > 0:
            return None
        chol.append(ci + [math.sqrt(v)])
    return chol


def _newton_step(h, g):
    """-(H + tau/D^2)^-1 g for D = |diag H|^(-1/2) and the least tau in 0,
    then tau0 2^k, that makes DHD + tau I positive definite (Nocedal &
    Wright, Numerical Optimization, 2006, Alg. 3.3, Jacobi-scaled so that a
    flat coordinate does not set a steep one's shift), and the Newton
    decrement g^T H^-1 g / 2 if tau = 0; (None, None) if H or g is not
    finite."""
    if not math.isfinite(sum(g) + sum(map(sum, h))):
        return None, None
    n = len(g)
    d = [1.0 / math.sqrt(abs(h[i][i])) if h[i][i] else 1.0 for i in range(n)]
    h = [[h[i][j] * d[i] * d[j] for j in range(n)] for i in range(n)]
    tau = 0.0
    while (chol := _cholesky(h, tau)) is None:
        tau = max(2.0 * tau, 1e-3, 1e-3 - min(h[i][i] for i in range(n)))
    w = []  # chol w = D g, then chol^T D^-1 step = -w
    for i, ci in enumerate(chol):
        w.append((g[i] * d[i] - sum(ci[k] * w[k] for k in range(i))) / ci[i])
    step = [0.0] * n
    for i in reversed(range(n)):
        step[i] = (-w[i] - sum(chol[k][i] * step[k]
                               for k in range(i + 1, n))) / chol[i][i]
    return ([v * di for v, di in zip(step, d)],
            0.5 * sum([v * v for v in w]) if tau == 0.0 else None)


def _newton(req: OptimizeRequest, rule: hamiltonian.FixedRule,
            x: list[float], lows: list[float | None], evals: int
            ) -> tuple[list[float], int, bool]:
    """Projected Newton iterations on E on ``rule`` from ``x`` (Bertsekas,
    SIAM J. Control Optim. 20, 221, 1982): the end point, ``evals`` plus
    the evaluations taken, and whether the end is a minimum.  A coordinate
    on its bound with E rising inward, or one E does not depend on at all,
    is held; the others take a Newton step on the exact Hessian, capped in
    ln nu and beta*B, projected onto the bounds and halved until E falls
    by _ARMIJO of what g predicts, a point where g predicts no fall left
    untried."""
    caps = [_MAX_LN_NU_STEP if s is None else
            _MAX_GAUSS_STEP / rule.rho_max**2 if name == "beta" else math.inf
            for name, s in req._layout]

    def objective(x):  # E, gradient and Hessian in the solver coordinates
        return hamiltonian.energy_derivatives(req.build_params(x), req.cfg,
                                              rule, req.free_params)
    e, g, h = objective(x)
    evals, converged, accepted = evals + 1, False, True
    while accepted and evals < _MAX_EVALS:
        held = [lo is not None and v <= lo and gi >= 0 or not (gi or hi[i])
                for i, (v, lo, gi, hi) in enumerate(zip(x, lows, g, h))]
        d, decrement = _newton_step(
            [[float(i == j) if held[i] or held[j] else v
              for j, v in enumerate(row)] for i, row in enumerate(h)],
            [0.0 if hold else v for hold, v in zip(held, g)])
        converged = (decrement is not None and decrement
                     <= _ROUNDING_DECREASE * max(abs(e), 1.0))
        if d is None or converged:
            break
        t = min([1.0] + [cap / abs(v) for v, cap in zip(d, caps) if v])
        accepted = False
        for _ in range(_MAX_HALVINGS):
            trial = [v + t * dv if lo is None else max(v + t * dv, lo)
                     for v, dv, lo in zip(x, d, lows)]
            fall = sum(gi * (a - b) for gi, a, b in zip(g, trial, x))
            if fall < 0:
                e_t, g_t, h_t = objective(trial)
                evals += 1
                if e_t - e <= _ARMIJO * fall:
                    x, e, g, h, accepted = trial, e_t, g_t, h_t, True
                    break
            t *= 0.5
    return x, evals, converged


def _run_single_start(req: OptimizeRequest, spec: QuadratureSpec,
                      start: TrialParams, rule: hamiltonian.FixedRule,
                      start_index: int) -> OptimizeResult:
    """One solve from ``start``, reported as start ``start_index``.  It
    runs on ``rule``; one that ends where the rule does not resolve E
    minimized a truncated E, and goes on from there on the rule
    ``hamiltonian.rule_for`` gives that point, up to _MAX_RULES rules.  It
    converges only on a rule that resolves E at its end."""
    lows = req.lower_bounds()
    x = [v if lo is None else max(v, lo) for v, lo in
         zip(req.start_vector(start), lows)]
    evals = 0
    # Trial points with a huge |beta B| overflow exp and f^2 on the way to
    # a finite optimum; the reported energy below is checked as usual.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_RULES):
            x, evals, converged = _newton(req, rule, x, lows, evals)
            params = req.build_params(x)
            served = hamiltonian.rule_for(params, req.cfg, spec, rule)
            if served is rule:
                break
            rule, converged = served, False
    return OptimizeResult(
        params=params, energy=hamiltonian.energy(params, req.cfg, spec, rule),
        evals=evals, converged=converged, start_index=start_index, rule=rule)


def _select_best(candidates: Sequence[OptimizeResult]) -> OptimizeResult:
    """The lowest E; solves that end at one optimum tie to the rounding of
    E, and ties go to the smallest nu, then the smallest |beta|, then start
    order."""
    e_min = min(c.energy.total for c in candidates)
    tol = _ROUNDING_DECREASE * max(abs(e_min), 1.0)
    tied = [c for c in candidates if c.energy.total <= e_min + tol]
    return min(tied, key=lambda c: (c.params.nu, abs(c.params.beta),
                                    c.start_index))


def minimize(req: OptimizeRequest, spec: QuadratureSpec) -> OptimizeResult:
    """The best, by ``_select_best``, of one solve from each of
    ``req.starts``.

    ``evals`` counts objective evaluations over every solve; a request with
    no free parameter is one energy evaluation.
    """
    # One rule for every solve.  It depends on the first start only through
    # the radius beyond which that start's density is negligible; a solve
    # whose density ends beyond it goes on on a wider one.
    rule = hamiltonian.rule_for(
        req.build_params(req.start_vector(req.starts[0])), req.cfg, spec)
    if not req.free_params:
        params = req.build_params(())
        return OptimizeResult(
            params=params, energy=hamiltonian.energy(params, req.cfg, spec,
                                                     rule),
            evals=1, converged=True, start_index=0, rule=rule)
    candidates = [_run_single_start(req, spec, start, rule, i)
                  for i, start in enumerate(req.starts)]
    best = _select_best(candidates)
    return replace(best, evals=sum(c.evals for c in candidates))


def default_request(
        cfg: SystemConfig,
        fixed: Mapping[str, float] | None = None) -> OptimizeRequest:
    """Request for one config: optimize whatever acts there and is not
    pinned in ``fixed``."""
    return OptimizeRequest(cfg=cfg, fixed_values=dict(fixed or {}))


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


def _scan_share(grid: Sequence[SystemConfig], spec: QuadratureSpec,
                conn) -> None:
    """A child's share of ``scan``: its outcomes, sent once over ``conn``."""
    conn.send([_scan_point(cfg, spec) for cfg in grid])


def scan(grid: Sequence[SystemConfig], spec: QuadratureSpec,
         jobs: int = 1) -> list[ScanRecord]:
    """One record per grid config under its own ``default_request``, in grid
    order, with one line on stderr for each row that failed and came out
    NaN, saying why.

    ``jobs`` processes run at once, this one and ``jobs - 1`` children (at
    most one per config), and each takes every ``jobs``-th config.  Each
    record depends on its config alone, so the records do not depend on
    ``jobs`` or on the rest of the grid.  No child outlives the call; one
    that exits without sending its records is a RuntimeError naming its
    exit code.
    """
    if not grid:
        raise ValueError("scan grid must be non-empty")
    workers = max(1, min(jobs, len(grid)))
    children = []
    try:
        for w in range(1, workers):
            recv, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(
                target=_scan_share, args=(grid[w::workers], spec, send))
            child.start()
            children.append((child, recv))
            send.close()  # else recv never sees the child's end close
        outcomes = [None] * len(grid)
        outcomes[::workers] = [_scan_point(cfg, spec)
                               for cfg in grid[::workers]]
        for w, (child, recv) in enumerate(children, 1):
            try:
                outcomes[w::workers] = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"scan process {w} of {workers} exited with code "
                    f"{child.exitcode} without sending its rows") from None
            child.join()
    finally:
        for child, recv in children:
            child.terminate()  # a no-op on a child already joined
            child.join()
            recv.close()
    for record, reason in outcomes:
        if reason is not None:
            print(f"cylvar: warning: scan row B={format_float(record.B)} "
                  f"rho0={format_float(record.rho0)} failed: {reason}",
                  file=sys.stderr)
    return [record for record, _ in outcomes]

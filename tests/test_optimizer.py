import math
import multiprocessing
import os
import time
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylvar import hamiltonian, optimizer
from cylvar.optimizer import (DEFAULT_STARTS, INF_STARTS, OptimizeRequest,
                              OptimizeResult, _ROUNDING_DECREASE,
                              _select_best, default_request, minimize,
                              point_record, scan)
from cylvar.quadrature import QuadratureSpec
from cylvar.records import format_row
from cylvar.trialfn import SystemConfig, TrialParams, check_admissible

SPEC = QuadratureSpec(64, 64)


def solve_from(req, spec, start):
    """One solve of ``req`` from ``start`` alone, on the rule that
    ``minimize`` would build were ``start`` its first."""
    rule = hamiltonian.rule_for(req.build_params(req.start_vector(start)),
                                req.cfg, spec)
    return optimizer._run_single_start(req, spec, start, rule, 0)


@pytest.fixture(scope="module")
def free_nu_rho2():
    cfg = SystemConfig(B=0.0, rho0=2.0)
    return minimize(default_request(cfg), SPEC)


def test_confined_optimum(free_nu_rho2):
    res = free_nu_rho2
    assert res.converged
    assert res.energy.total == pytest.approx(-0.2767, abs=1e-3)
    assert res.params.alpha == pytest.approx(1.1058, abs=0.01)
    assert res.params.nu == pytest.approx(3.4951, abs=0.05)


def test_fixed_nu_is_never_better(free_nu_rho2):
    cfg = SystemConfig(B=0.0, rho0=2.0)
    for nu in (1.0, 2.0, 3.0):
        res = minimize(default_request(cfg, fixed={"nu": nu}), SPEC)
        assert free_nu_rho2.energy.total <= res.energy.total + 1e-6


def test_determinism(free_nu_rho2):
    again = minimize(default_request(SystemConfig(B=0.0, rho0=2.0)), SPEC)
    assert again == free_nu_rho2


# Optima of a multi-start Nelder-Mead search, as the optimizer this one
# replaced ran it, on the 64-node radial rule: scipy's Nelder-Mead from each
# of the finite-rho0 starts then in use (FORMER_STARTS[:4] below), restarted
# twice at xatol 1e-12, the lowest kept.
# (B, rho0) -> E.  Acceptance criteria 1 and 4 use these points.  On the
# 64^2 tensor rule that the radial rule replaced they were 5.7e-7 to 7.7e-7
# lower, that rule's bias at the cusp.
NELDER_MEAD_OPTIMA = {
    (0.0, 2.0): -0.27675568302343634,
    (0.4, 0.8): 2.659210574104845,
    (0.8, 2.0): -0.22339400978696972,
    (1.0, 5.0): -0.33018622298071176,
}


@pytest.mark.parametrize("point", sorted(NELDER_MEAD_OPTIMA))
def test_same_optimum_as_nelder_mead(point):
    res = minimize(default_request(SystemConfig(*point)), SPEC)
    assert res.converged
    assert abs(res.energy.total - NELDER_MEAD_OPTIMA[point]) <= 1e-9


def test_evals_count_every_objective_evaluation(monkeypatch):
    # One evaluation is one kernel call at one point (E, gradient and
    # Hessian), Armijo trials included.
    calls = 0
    derivatives = hamiltonian.energy_derivatives

    def counted(*args):
        nonlocal calls
        calls += 1
        return derivatives(*args)

    monkeypatch.setattr(hamiltonian, "energy_derivatives", counted)
    req = default_request(SystemConfig(B=0.4, rho0=2.0))
    res = minimize(req, SPEC)
    assert res.evals == calls
    assert calls > len(req.starts)


# Every start the optimizer has solved from at finite rho0: the two basin
# starts, two more that once ran as a fallback, and the two unconfined
# starts (gamma does not act at finite rho0).
FORMER_STARTS = (
    TrialParams(alpha=1.0, beta=0.1, nu=2.0),
    TrialParams(alpha=1.0, beta=0.0, nu=4.0),
    TrialParams(alpha=1.2, beta=-0.1, nu=3.0),
    TrialParams(alpha=0.8, beta=0.25, nu=1.5),
    TrialParams(alpha=1.0, beta=0.2, nu=2.0, gamma=0.1),
    TrialParams(alpha=0.9, beta=0.25, nu=2.0, gamma=0.5),
)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)), st.floats(0.8, 15.0),
       st.one_of(st.just({}), st.builds(dict, alpha=st.floats(0.5, 2.0)),
                 st.builds(dict, nu=st.floats(1.0, 8.0))),
       st.booleans())
def test_minimize_is_as_low_as_every_start(B, rho0, fixed, coulomb_on):
    # One solve per basin finds the optimum: no start the optimizer has
    # used, run alone, ends lower, free or partly pinned, with the Coulomb
    # term on or off.
    spec = QuadratureSpec(48, 48)
    req = default_request(SystemConfig(B=B, rho0=rho0, coulomb_on=coulomb_on),
                          fixed)
    e = minimize(req, spec).energy.total
    alone = [solve_from(req, spec, s).energy.total for s in FORMER_STARTS]
    assert e <= min(alone) + 1e-10


def count_solves(monkeypatch, first_unconverged=False) -> list:
    """Record the evals of each ``optimizer._run_single_start`` solve; with
    ``first_unconverged``, report the first solve as unconverged."""
    evals = []
    solve = optimizer._run_single_start

    def counted(*args):
        result = solve(*args)
        if first_unconverged and not evals:
            result = replace(result, converged=False)
        evals.append(result.evals)
        return result

    monkeypatch.setattr(optimizer, "_run_single_start", counted)
    return evals


@pytest.mark.parametrize("cfg", [SystemConfig(B=0.4, rho0=2.0),
                                 SystemConfig(B=0.0, rho0=2.0),
                                 SystemConfig(B=0.4, rho0=math.inf)])
def test_unconverged_solve_runs_no_other_start(cfg, monkeypatch):
    # One solve per start of the request, whether or not one of them ends
    # unconverged; the point then reports the other one or, alone, that.
    evals = count_solves(monkeypatch, first_unconverged=True)
    req = default_request(cfg)
    res = minimize(req, SPEC)
    assert len(evals) == len(req.starts)
    assert res.evals == sum(evals)
    assert res.converged == (res.start_index > 0)


def test_coulomb_off_point_reports_its_lowest_solve():
    # With the Coulomb term off at (0.8, 10), E = 0.4 = B/2 at the optimum;
    # a tie window of 1e-6 that preferred the smaller nu printed 0.400000296.
    res = minimize(default_request(SystemConfig(B=0.8, rho0=10.0,
                                                coulomb_on=False)), SPEC)
    assert res.energy.total <= 0.4 + 1e-12


def test_readme_scan_takes_one_solve_per_basin(monkeypatch):
    evals = count_solves(monkeypatch)
    grid = [SystemConfig(B=b, rho0=r) for b in (0.0, 0.4, 0.8, 1.0)
            for r in (0.8, 1.0, 1.5, 2.0, 3.0, 5.0)]
    records = scan(grid, SPEC)
    assert all(r.converged for r in records)
    # one basin at B = 0 (beta inert), two at B > 0
    assert len(evals) == 6 * 1 + 18 * 2
    # 119 evaluations on 64 nodes from the start table (308 from the fixed
    # starts), the same with E and its derivatives scaled by each 1 + eps
    # of test_convergence_does_not_depend_on_rounding (847 under L-BFGS-B,
    # which spread over 820-913)
    assert sum(r.evals for r in records) <= 6 * len(records)


def test_zero_field_scan_evals_per_point():
    # The 17-row B = 0 acceptance grid at 96 nodes: 96 evaluations from the
    # start table inside rho0 <= 5 (132 from the fixed start), the same
    # with E and its derivatives scaled by each 1 + eps of
    # test_convergence_does_not_depend_on_rounding (269 under L-BFGS-B,
    # which spread over 269-318).
    grid = [SystemConfig(B=0.0, rho0=r) for r in
            (0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0,
             8.0, 10.0, 15.0, math.inf)]
    records = scan(grid, QuadratureSpec(96))
    assert all(r.converged for r in records)
    assert sum(r.evals for r in records) <= 6 * len(records)


# The nodes of the optimizer's start table (optimizer._BASIN_OPTIMA): the
# B -> 0+ row is solved at B = 1e-9.
TABLE_B = (1e-9, 0.25, 0.5, 0.75, 1.0)
TABLE_RHO0 = tuple(0.8 * 6.25 ** (k / 6) for k in range(7))


def table_entries():
    """(B, rho0, basin, entry) for each entry of the start table."""
    for basin, rows in enumerate(optimizer._BASIN_OPTIMA):
        for B, row in zip(TABLE_B, rows):
            for rho0, entry in zip(TABLE_RHO0, row):
                yield B, rho0, basin, entry
    for rho0, entry in zip(TABLE_RHO0, optimizer._ZERO_FIELD_OPTIMA):
        yield 0.0, rho0, 0, entry


def fixed_start_solve(B, rho0, basin):
    """The solve from ``DEFAULT_STARTS[basin]`` at (B, rho0) on 64 nodes,
    whose end is that basin's entry in the start table."""
    req = default_request(SystemConfig(B=B, rho0=rho0))
    return solve_from(req, SPEC, DEFAULT_STARTS[basin])


def start_table_source() -> str:
    """The source of ``optimizer._BASIN_OPTIMA`` and ``_ZERO_FIELD_OPTIMA``
    from ``fixed_start_solve``, to 9 digits: after a change to the kernel
    that moves the optima, ``python tests/test_optimizer.py`` prints it."""
    def entry(B, rho0, basin):
        p = fixed_start_solve(B, rho0, basin).params
        coords = ((p.alpha, p.beta * B, math.log(p.nu)) if B
                  else (p.alpha, math.log(p.nu)))
        return "(" + ", ".join(f"{v:.9g}" for v in coords) + "),"
    lines = ["_BASIN_OPTIMA = ("]
    for basin, name in enumerate(("soft", "sharp")):
        lines.append(f"    (  # {name}")
        for B in TABLE_B:
            lines.append(f"        (  # B = {B if B >= 0.25 else '0+'}")
            lines += ["            " + entry(B, r, basin) for r in TABLE_RHO0]
            lines.append("        ),")
        lines.append("    ),")
    lines += [")", "_ZERO_FIELD_OPTIMA = ("]
    lines += ["    " + entry(0.0, r, 0) for r in TABLE_RHO0]
    return "\n".join(lines + [")"])


def test_start_table_holds_each_basins_optimum():
    # At each node the start is the entry, and from it the basin's solve
    # converges within 2 evaluations (each converges at its first; an entry
    # 1% off in alpha takes 3) at the E that the solve from the fixed start
    # reaches, to rounding: a change to the kernel that moves an optimum
    # leaves no stale entry unnoticed.
    for B, rho0, basin, entry in table_entries():
        req = default_request(SystemConfig(B=B, rho0=rho0))
        start = req.starts[basin]
        assert req.start_vector(start) == pytest.approx(list(entry),
                                                        rel=1e-7, abs=1e-8)
        res = solve_from(req, SPEC, start)
        e = fixed_start_solve(B, rho0, basin).energy.total
        assert res.converged and res.evals <= 2, (B, rho0, basin)
        assert abs(res.energy.total - e) <= _ROUNDING_DECREASE * max(abs(e),
                                                                    1.0)


@pytest.mark.parametrize("cfg,starts", [
    (SystemConfig(B=1.0001, rho0=2.0), DEFAULT_STARTS),
    (SystemConfig(B=0.5, rho0=0.79), DEFAULT_STARTS),
    (SystemConfig(B=0.5, rho0=5.01), DEFAULT_STARTS),
    (SystemConfig(B=0.0, rho0=200.0), DEFAULT_STARTS[:1]),
    (SystemConfig(B=0.5, rho0=2.0, coulomb_on=False), DEFAULT_STARTS),
    (SystemConfig(B=0.5, rho0=math.inf), INF_STARTS),
])
def test_start_table_serves_only_the_papers_box(cfg, starts):
    # Outside B <= 1, 0.8 <= rho0 <= 5 with the Coulomb term on the solves
    # start from the fixed values, not from the table's edge.
    assert default_request(cfg).starts == starts


def solver_objective(req, rule):
    """The function of the solver coordinates x that the Newton steps
    take: E, gradient and Hessian from the kernel at ``build_params(x)``."""
    return lambda x: hamiltonian.energy_derivatives(
        req.build_params(x), req.cfg, rule, req.free_params)


@pytest.mark.parametrize("cfg,names", [
    (SystemConfig(B=0.0, rho0=2.0), ("alpha", "nu")),
    (SystemConfig(B=0.4, rho0=2.0), ("alpha", "beta", "nu")),
    (SystemConfig(B=0.5, rho0=math.inf), ("alpha", "beta", "gamma")),
    (SystemConfig(B=0.0, rho0=math.inf), ("alpha", "gamma")),
])
def test_objective_gradient_is_in_solver_coordinates(cfg, names):
    # The solver steps in alpha, beta*B, ln nu and gamma: the gradient it
    # sees is dE/dx in those coordinates, ln nu's the nu-derivative times nu.
    req = default_request(cfg)
    assert req.free_params == names
    x = np.array(req.start_vector(req.starts[0])) + 0.05
    rule = hamiltonian.fixed_rule(req.build_params(x), cfg, SPEC)
    objective = solver_objective(req, rule)
    _, grad, _ = objective(x)
    h = 1e-6
    fd = [(objective(x + h * unit)[0] - objective(x - h * unit)[0]) / (2 * h)
          for unit in np.eye(len(x))]
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-10)
    if "nu" in names:
        nu = req.build_params(x).nu
        assert nu == pytest.approx(math.exp(x[-1]), rel=1e-15)
        assert req.lower_bounds()[-1] == 0.0  # nu >= 1


@pytest.mark.parametrize("cfg,names", [
    (SystemConfig(B=0.0, rho0=2.0), ("alpha", "nu")),
    (SystemConfig(B=0.4, rho0=2.0), ("alpha", "beta", "nu")),
    (SystemConfig(B=0.5, rho0=math.inf), ("alpha", "beta", "gamma")),
    (SystemConfig(B=0.0, rho0=math.inf), ("alpha", "gamma")),
])
def test_objective_hessian_is_in_solver_coordinates(cfg, names):
    # The exact Hessian the Newton steps take, against central differences
    # of the analytic gradient in alpha, beta*B, ln nu and gamma; in ln nu
    # it carries the nu dE/dnu of d2/d(ln nu)^2 = nu^2 d2/dnu2 + nu d/dnu.
    req = default_request(cfg)
    assert req.free_params == names
    x = np.array(req.start_vector(req.starts[0])) + 0.05
    rule = hamiltonian.fixed_rule(req.build_params(x), cfg, SPEC)
    objective = solver_objective(req, rule)
    _, _, hess = objective(x)
    h = 1e-5
    fd = [(np.array(objective(x + h * unit)[1])
           - np.array(objective(x - h * unit)[1])) / (2 * h)
          for unit in np.eye(len(x))]
    np.testing.assert_allclose(hess, fd, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("eps", [0.0, 1e-16, -1e-16, 3e-16, -3e-16, 1e-15,
                                 -1e-15])
def test_convergence_does_not_depend_on_rounding(monkeypatch, eps):
    # E and its derivatives scaled by (1 + eps) differ from the unscaled
    # ones by rounding alone, so both basin solves converge either way.
    derivatives = hamiltonian.energy_derivatives

    def scaled(*args):
        e, grad, hess = derivatives(*args)
        f = 1.0 + eps
        return e * f, [v * f for v in grad], [[v * f for v in row]
                                              for row in hess]

    monkeypatch.setattr(hamiltonian, "energy_derivatives", scaled)
    evals = count_solves(monkeypatch)
    outcome = {}
    for point in ((0.4, 2.0), (1.0, 3.0), (0.8, 0.8), (0.4, 0.8), (1.0, 1.0),
                  (0.4, 1.5)):
        evals.clear()
        res = minimize(default_request(SystemConfig(*point)), SPEC)
        outcome[point] = (len(evals), res.converged)
    assert outcome == {point: (2, True) for point in outcome}


def test_flat_nu_moves_off_its_start():
    # At B = 0 and rho0 = 200 dE/dnu is about 1e-11 at the start's nu = 2.
    # L-BFGS-B stopped there (nu = 2.0000003, E = -0.49999999874962836 at
    # 64 nodes); a Newton step on the exact Hessian goes on to nu ~ 3.4.
    res = minimize(default_request(SystemConfig(B=0.0, rho0=200.0)), SPEC)
    assert res.converged
    assert res.params.nu > 3.0
    assert -0.5 < res.energy.total <= -0.49999999874962836


def test_tiny_field_moves_beta():
    # The solver steps in beta*B, whose scale does not depend on B, so the
    # solve reaches the B -> 0 limit of the B > 0 family, as at B = 1e-6,
    # down to 1e-300, the least B > 0 a SystemConfig takes.
    ref = minimize(default_request(SystemConfig(B=1e-6, rho0=2.0)), SPEC)
    for B in (1e-160, 1e-300):
        res = minimize(default_request(SystemConfig(B=B, rho0=2.0)), SPEC)
        assert res.converged
        assert res.energy.total == pytest.approx(ref.energy.total, abs=1e-12)


def test_off_basin_start_does_not_overflow(monkeypatch):
    # From this start at (0.5, 15) E is flat in nu to 1e-10 and concave
    # there; an unbounded step in ln nu overflowed exp in build_params.
    # Each step, and so each point tried, moves ln nu by at most 1.
    req = default_request(SystemConfig(B=0.5, rho0=15.0))
    best = minimize(req, SPEC).energy.total
    nus = []
    derivatives = hamiltonian.energy_derivatives

    def recorded(params, *args):
        nus.append(params.nu)
        return derivatives(params, *args)

    monkeypatch.setattr(hamiltonian, "energy_derivatives", recorded)
    res = solve_from(req, SPEC, TrialParams(alpha=0.624, beta=-0.088,
                                            nu=14.5))
    assert res.converged
    assert res.energy.total <= best + 1e-12
    assert max(abs(math.log(b / a)) for a, b in zip(nus, nus[1:])) <= 1.0001


def test_line_search_gives_up_after_max_halvings(monkeypatch):
    # E raised by 1 everywhere but at the start: no trial passes the
    # Armijo test, and the one solve ends unconverged after at most
    # _MAX_HALVINGS trials.
    derivatives = hamiltonian.energy_derivatives
    calls = []

    def raised(*args):
        e, g, h = derivatives(*args)
        calls.append(e)
        return (e if len(calls) == 1 else e + 1.0), g, h

    monkeypatch.setattr(hamiltonian, "energy_derivatives", raised)
    req = default_request(SystemConfig(B=0.4, rho0=2.0))
    res = solve_from(req, SPEC, req.starts[0])
    assert not res.converged
    assert 1 < res.evals <= 1 + optimizer._MAX_HALVINGS


def test_solve_from_a_truncated_minimum_goes_on_on_a_wider_rule():
    # alpha pinned at (0.0145, 92.3): at beta B = -0.0157 psi^2 at the wall
    # is e^64 of its value at the nucleus, beyond the rule built at the
    # first start (rho_max 60.7).  E on that rule has a minimum there,
    # which is no minimum of E.
    spec = QuadratureSpec(48)
    req = default_request(SystemConfig(B=0.0145, rho0=92.3), {"alpha": 1.1})
    start = TrialParams(alpha=1.1, beta=-1.0853743, nu=2.5075873)
    rule = hamiltonian.fixed_rule(
        req.build_params(req.start_vector(req.starts[0])), req.cfg, spec)
    assert rule.rho_max < 61.0
    assert not rule.resolves(start, req.cfg)
    result = optimizer._run_single_start(req, spec, start, rule, 0)
    assert result.converged
    assert result.rule.resolves(result.params, req.cfg)
    assert result.energy.total <= -0.495213505


def count_rules(monkeypatch) -> list:
    """Record each ``hamiltonian.fixed_rule`` call's parameters."""
    built = []
    build = hamiltonian.fixed_rule

    def counted(params, *args):
        built.append(params)
        return build(params, *args)

    monkeypatch.setattr(hamiltonian, "fixed_rule", counted)
    return built


def test_basin_starts_share_one_rule(monkeypatch):
    # At finite rho0 the rule depends on (rho0, nodes): both basin solves
    # and the energies at their optima share the one rule minimize builds.
    built = count_rules(monkeypatch)
    res = minimize(default_request(SystemConfig(B=0.4, rho0=2.0)), SPEC)
    assert len(built) == 1
    assert res.rule is not None


def test_wide_cavity_point_record_builds_one_rule(monkeypatch):
    # The solves, the energies at their ends and the observables all keep
    # the rule minimize builds while it resolves E.
    built = count_rules(monkeypatch)
    point_record(SystemConfig(B=0.4, rho0=60.0), SPEC)
    assert len(built) == 1


def test_pinned_point_record_builds_one_rule(monkeypatch):
    built = count_rules(monkeypatch)
    fixed = {"alpha": 1.1, "beta": 0.1, "nu": 2.5}
    rec = point_record(SystemConfig(B=0.5, rho0=2.0), SPEC, fixed=fixed)
    assert built == [TrialParams(**fixed)]
    assert math.isfinite(rec.E) and math.isfinite(rec.shannon_r)


def test_each_basin_start_can_win():
    # Both cut-off shapes are local minima here.  The sharp one is lower by
    # 4.7e-5 at (B, rho0) = (0.05, 5), the soft one by 9.6e-5 at (0.4, 3),
    # and a solve from the other start stays in the other basin.
    spec = QuadratureSpec(48, 48)
    for B, rho0, winner in ((0.05, 5.0, 1), (0.4, 3.0, 0)):
        req = default_request(SystemConfig(B=B, rho0=rho0))
        res = minimize(req, spec)
        assert res.start_index == winner
        other = solve_from(req, spec, req.starts[1 - winner])
        assert res.energy.total < other.energy.total - 1e-6


def test_all_fixed_degenerates_to_single_evaluation(monkeypatch):
    # One evaluation of E at the pins; the start table is never read.
    cfg = SystemConfig(B=0.0, rho0=2.0)
    fixed = {"alpha": 1.1, "beta": 0.0, "nu": 3.5}
    calls = 0
    energy = hamiltonian.energy

    def counted(*args):
        nonlocal calls
        calls += 1
        return energy(*args)

    def lookup(cfg):
        raise AssertionError("the start table was read")

    monkeypatch.setattr(hamiltonian, "energy", counted)
    monkeypatch.setattr(optimizer, "_basin_starts", lookup)
    res = minimize(default_request(cfg, fixed=fixed), SPEC)
    monkeypatch.undo()
    assert res.evals == calls == 1
    assert res.converged
    direct = hamiltonian.energy(TrialParams(**fixed), cfg, SPEC)
    assert res.energy.total == direct.total


@pytest.mark.parametrize("cfg,fixed", [
    (SystemConfig(B=0.0, rho0=2.0), {}),
    (SystemConfig(B=0.5, rho0=2.0), {"alpha": 1.1, "beta": 0.1, "nu": 2.5}),
    (SystemConfig(B=0.5, rho0=math.inf), {}),
])
def test_point_record_forms_no_2d_field_of_psi(cfg, fixed, monkeypatch):
    # The energy, its gradient and the observables all come from radial
    # moments; trialfn.evaluate is the tests' oracle only.
    def evaluate(*args):
        raise RuntimeError("hamiltonian.evaluate was called")

    monkeypatch.setattr(hamiltonian, "evaluate", evaluate)
    rec = point_record(cfg, QuadratureSpec(32, 32), fixed=fixed)
    assert math.isfinite(rec.E) and math.isfinite(rec.shannon_r)


def test_unconfined_zero_field_reaches_free_atom():
    cfg = SystemConfig(B=0.0, rho0=math.inf)
    res = minimize(default_request(cfg), SPEC)
    assert res.energy.total == pytest.approx(-0.5, abs=1e-4)
    assert res.params.alpha == pytest.approx(1.0, abs=0.01)


def test_request_validation():
    cfg = SystemConfig(B=0.0, rho0=2.0)
    # the starts follow from the config and the pins; a caller sets none
    with pytest.raises(TypeError):
        OptimizeRequest(cfg=cfg, fixed_values={}, starts=DEFAULT_STARTS)
    with pytest.raises(ValueError, match="zeta"):
        default_request(cfg, fixed={"zeta": 1.0})
    # beta acts only at B > 0: pinning alpha leaves nu alone free
    assert default_request(cfg, fixed={"alpha": 1.1}).free_params == ("nu",)
    # pinned values outside the admissible set
    for fixed in ({"alpha": 0.0}, {"nu": 0.5}, {"gamma": 0.3},
                  {"beta": 0.3}):
        with pytest.raises(ValueError, match=next(iter(fixed))):
            default_request(cfg, fixed=fixed)
    with pytest.raises(ValueError, match="beta"):
        default_request(SystemConfig(B=1.0, rho0=math.inf),
                        fixed={"beta": 0.0})
    assert default_request(cfg, fixed={"beta": 0.0}).fixed_values["beta"] == 0


def test_select_best_tiebreak():
    def cand(e, nu, beta, idx):
        params = TrialParams(alpha=1.0, beta=beta, nu=nu)
        br = hamiltonian.EnergyBreakdown(0, 0, 0, e, 1.0)
        return OptimizeResult(params=params, energy=br, evals=1,
                              converged=True, start_index=idx)

    # the tie window is the rounding of E: 64 eps * max(|E|, 1)
    window = _ROUNDING_DECREASE
    picked = _select_best([cand(-0.5 - 0.7 * window, 3.0, 0.1, 0),
                           cand(-0.5, 2.0, 0.2, 1)])
    assert picked.params.nu == 2.0  # inside the tie window: smallest nu wins
    for gap in (2 * window, 5e-7):
        picked = _select_best([cand(-0.5 - gap, 3.0, 0.1, 0),
                               cand(-0.5, 2.0, 0.2, 1)])
        assert picked.params.nu == 3.0  # beyond it: the lowest E wins
    picked = _select_best([cand(-0.5, 2.0, 0.2, 0),
                           cand(-0.5, 2.0, 0.1, 1)])
    assert picked.params.beta == 0.1
    picked = _select_best([cand(-0.5, 2.0, 0.1, 0),
                           cand(-0.5, 2.0, -0.1, 1)])
    assert picked.start_index == 0
    picked = _select_best([cand(-0.5, 2.0, 0.1, 0),
                           cand(-0.4, 1.0, 0.0, 1)])
    assert picked.start_index == 0


def test_basin_solves_tied_to_rounding_pick_smallest_nu(monkeypatch):
    # Both basin solves end at one optimum, with E one ulp apart either
    # way: the printed parameters must not depend on which is lower.
    e = 1.29824144
    for energies in ((e, math.nextafter(e, 0.0)), (math.nextafter(e, 0.0), e)):
        def solve(req, spec, start, rule, i):
            params = TrialParams(alpha=1.3, beta=0.32, nu=2.75 + 1e-7 * i)
            br = hamiltonian.EnergyBreakdown(0, 0, 0, energies[i], 1.0)
            return OptimizeResult(params=params, energy=br, evals=10,
                                  converged=True, start_index=i)

        monkeypatch.setattr(optimizer, "_run_single_start", solve)
        res = minimize(default_request(SystemConfig(B=0.4, rho0=1.0)), SPEC)
        assert (res.start_index, res.evals) == (0, 20)


def test_scan_produces_one_record_per_config():
    spec = QuadratureSpec(48, 48)
    grid = [SystemConfig(B=0.0, rho0=r) for r in (2.0, 2.5)]
    records = scan(grid, spec)
    assert [r.rho0 for r in records] == [2.0, 2.5]
    assert all(r.converged for r in records)
    assert records[0].E > records[1].E  # energy decreases with the radius
    assert all(r.Eb > 0 for r in records)
    assert records[0].bound_state and records[1].bound_state


def test_scan_optimizes_gamma_at_infinite_radius():
    # The unconfined row follows a finite-radius one, as in a CLI scan.
    cfg = SystemConfig(B=0.5, rho0=math.inf)
    _, row = scan([SystemConfig(B=0.5, rho0=2.0), cfg], SPEC)
    req = default_request(cfg)
    assert row.gamma is not None
    assert row.nu == 2.0
    assert row.E <= minimize(req, SPEC).energy.total + req.tol_energy


SCAN_GRID = [SystemConfig(B=b, rho0=r) for b, r in
             ((0.0, 1.5), (0.0, 2.5), (0.5, 1.5), (0.5, 2.5), (0.5, math.inf))]


def test_scan_does_not_depend_on_jobs():
    # Strides of 2 and 3 split the 5 rows unevenly; past 5 jobs the scan
    # starts one process per row.
    spec = QuadratureSpec(48, 48)
    serial = scan(SCAN_GRID, spec, jobs=1)
    for jobs in (2, 3, len(SCAN_GRID) + 2):
        assert scan(SCAN_GRID, spec, jobs=jobs) == serial, jobs
        assert multiprocessing.active_children() == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="a child sees the patched _scan_point only when "
                           "it is forked")
@pytest.mark.parametrize("error,match", [
    (RuntimeError, "scan process 1 of 2 exited with code 3 without"),
    (KeyboardInterrupt, None)])
def test_scan_leaves_no_child_behind_on_error(error, match, monkeypatch):
    # A child that exits without sending its rows is an error naming its
    # exit code; an interrupt in this process stops a child still at work.
    parent, scan_point = os.getpid(), optimizer._scan_point

    def fails(cfg, spec):
        if os.getpid() == parent:
            if error is KeyboardInterrupt:
                raise KeyboardInterrupt
            return scan_point(cfg, spec)
        if error is RuntimeError:
            os._exit(3)
        time.sleep(60)
    monkeypatch.setattr(optimizer, "_scan_point", fails)
    t0 = time.monotonic()
    with pytest.raises(error, match=match):
        scan(SCAN_GRID[:3], QuadratureSpec(48, 48), jobs=2)
    assert time.monotonic() - t0 < 30
    assert multiprocessing.active_children() == []


def test_scan_rejects_empty_grid():
    with pytest.raises(ValueError):
        scan([], SPEC)


def test_default_starts_are_admissible():
    for starts, cfg in ((DEFAULT_STARTS, SystemConfig(B=0.5, rho0=2.0)),
                        (INF_STARTS, SystemConfig(B=0.5, rho0=math.inf))):
        for p in starts:
            check_admissible(asdict(p), cfg)


def test_scan_failed_row_is_nan_and_skipped_by_warm_start():
    # At rho0 = 1e-200 the confinement energy j01^2 / (2 rho0^2) exceeds
    # the largest double, so the row cannot be computed.
    spec = QuadratureSpec(48, 48)
    grid = [SystemConfig(B=1.0, rho0=r) for r in (2.0, 1e-200, 3.0)]
    records = scan(grid, spec)
    failed = records[1]
    assert math.isnan(failed.E) and math.isnan(failed.E0)
    assert not failed.converged and failed.evals == 0
    rows = [format_row(r) for r in records]
    clean = scan([grid[0], grid[2]], spec)
    assert [rows[0], rows[2]] == [format_row(r) for r in clean]
    assert [format_row(r) for r in scan(grid, spec, jobs=2)] == rows


@pytest.mark.parametrize("rho0", [8.0, 10.0, 15.0, 20.0, 30.0])
def test_zero_field_optimum_is_above_free_atom(rho0):
    # The exact E(B = 0, rho0) lies above the free atom's -1/2 at every
    # finite radius, by 2e-11 at rho0 = 15 and by 1e-13 or less beyond 20.
    res = minimize(default_request(SystemConfig(B=0.0, rho0=rho0)),
                   QuadratureSpec(48))
    assert res.energy.total > -0.5


@pytest.mark.parametrize("B,rho0", [(2.0, 60.0), (1.0, 200.0),
                                    (2.0, 1000.0), (0.1, 1000.0)])
def test_wide_cavity_energy_is_converged_in_nodes(B, rho0):
    # z = B rho0^2 / 2 from 3600 to 1e6: the rule stops where the density
    # underflows, so its nodes stay on the atom however wide the cavity.
    cfg = SystemConfig(B=B, rho0=rho0)
    res = minimize(default_request(cfg), QuadratureSpec(64))
    assert res.converged
    fine = hamiltonian.energy(res.params, cfg, QuadratureSpec(128)).total
    assert abs(res.energy.total - fine) <= 1e-9


@pytest.mark.parametrize("B", [1.0, 2.0])
def test_wide_cavity_energy_approaches_its_unconfined_limit(B):
    # As rho0 grows, (1 - (rho/rho0)^nu) -> 1 on the atom, and the trial
    # state tends to exp(-alpha r - beta B rho^2): the rho0 = inf state at
    # gamma = 0.  The cut-off's freedom is worth 1.3e-6 at rho0 = 60, 9e-8
    # at 200 and 2.5e-9 to 2.9e-9 at 1000, so E rises towards that limit,
    # but never above it, and the gap shrinks about 34-fold from 200 to 1000.
    limit = minimize(default_request(SystemConfig(B=B, rho0=math.inf),
                                     fixed={"gamma": 0.0}), SPEC).energy.total
    cfgs = [SystemConfig(B=B, rho0=rho0) for rho0 in (60.0, 200.0, 1000.0)]
    results = [minimize(default_request(cfg), SPEC) for cfg in cfgs]
    e = [res.energy.total for res in results]
    assert e[0] < e[1] < e[2] <= limit + 1e-12
    assert limit - e[2] <= (limit - e[1]) / 10.0
    # ... and what the cut-off gains at rho0 = 1000 is no quadrature effect
    fine = hamiltonian.energy(results[2].params, cfgs[2],
                              QuadratureSpec(128)).total
    assert abs(e[2] - fine) <= 1e-12


if __name__ == "__main__":
    print(start_table_source())

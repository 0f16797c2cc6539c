import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st, target

from cylvar.hamiltonian import (binding_energy, energy, energy_derivatives,
                                fit_large_rho0_tail, fixed_rule, observables,
                                reference_energy)
from cylvar.quadrature import QuadratureSpec
from cylvar.specfun import J01, landau_cylinder_energy
from cylvar.trialfn import SystemConfig, TrialParams, evaluate

SPEC = QuadratureSpec(64)
FREE_H = SystemConfig(B=0.0, rho0=math.inf)
EXACT_1S = TrialParams(alpha=1.0, beta=0.0, gamma=0.0)


def test_free_atom_ground_state():
    br = energy(EXACT_1S, FREE_H, SPEC)
    assert br.total == pytest.approx(-0.5, abs=1e-6)
    assert br.kinetic == pytest.approx(0.5, abs=1e-5)
    assert br.coulomb == pytest.approx(-1.0, abs=1e-5)
    assert br.zeeman_quadratic == 0.0


def test_landau_limit():
    # alpha -> 0, beta = 1/4 approaches the lowest Landau level B/2.
    cfg = SystemConfig(B=1.0, rho0=math.inf, coulomb_on=False)
    br = energy(TrialParams(alpha=1e-3, beta=0.25, gamma=0.0), cfg, SPEC)
    assert br.total == pytest.approx(0.5, abs=2e-3)


def test_confined_fixed_point():
    cfg = SystemConfig(B=0.0, rho0=2.0)
    br = energy(TrialParams(alpha=0.7497, beta=0.0, nu=1.0), cfg, SPEC)
    assert br.total == pytest.approx(-0.1745, abs=5e-4)


def test_breakdown_additivity_and_signs():
    cfg = SystemConfig(B=0.7, rho0=2.5)
    br = energy(TrialParams(alpha=1.05, beta=0.12, nu=3.0), cfg, SPEC)
    parts = br.kinetic + br.coulomb + br.zeeman_quadratic
    assert abs(parts - br.total) <= 1e-12
    assert br.kinetic >= 0.0
    assert br.coulomb <= 0.0
    assert br.zeeman_quadratic >= 0.0
    assert br.norm > 0.0


def test_invalid_params_raise():
    with pytest.raises(ValueError, match="alpha"):
        energy(TrialParams(alpha=-1.0), FREE_H, SPEC)
    # unconfined in a field requires beta > 0
    cfg = SystemConfig(B=1.0, rho0=math.inf)
    with pytest.raises(ValueError, match="beta"):
        energy(TrialParams(alpha=1.0, beta=0.0, gamma=0.0), cfg, SPEC)
    # admissible, but psi vanishes on every node: the norm is checked
    # before any sum is divided by it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="norm"):
            energy(TrialParams(alpha=1e300, beta=0.0, gamma=0.0), FREE_H,
                   SPEC)


@st.composite
def coulomb_off_states(draw):
    """Admissible pinned states of the Coulomb-free problem; beta = 0 at
    B = 0, as ``default_request`` pins it."""
    B = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    rho0 = draw(st.floats(0.5, 30.0))
    params = TrialParams(alpha=math.exp(draw(st.floats(-6.0, 1.5))),
                         beta=draw(st.floats(-0.3, 0.6)) if B > 0 else 0.0,
                         nu=draw(st.floats(1.0, 40.0)))
    return params, SystemConfig(B=B, rho0=rho0, coulomb_on=False)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(coulomb_off_states())
def test_coulomb_off_energy_is_above_kummer_root(state):
    # The Kummer root E0 is the exact Coulomb-free ground energy, so every
    # trial energy bounds it from above.  Steering the search towards E0/E
    # -> 1 brings the smallest margin drawn to about 2e-4; a 0.1% cut in
    # the kinetic energy then fails.
    params, cfg = state
    e = energy(params, cfg, SPEC).total
    e0 = landau_cylinder_energy(cfg.B, cfg.rho0)
    target(e0 / e, label="E0/E")
    assert e >= e0


def test_pure_confinement_scaling():
    # With the Coulomb term off and B = 0, scaling rho0 -> s*rho0 together
    # with alpha -> alpha/s multiplies the energy by 1/s^2; every value
    # upper-bounds the drum mode.
    drum = J01**2
    vals = []
    for rho0 in (1.0, 2.0, 4.0):
        cfg = SystemConfig(B=0.0, rho0=rho0, coulomb_on=False)
        br = energy(TrialParams(alpha=0.5 / rho0, beta=0.0, nu=2.0), cfg, SPEC)
        assert br.total >= drum / (2.0 * rho0**2)
        vals.append(br.total * rho0**2)
    assert vals[0] == pytest.approx(vals[1], rel=1e-6)
    assert vals[0] == pytest.approx(vals[2], rel=1e-6)


GRADIENT_STATES = [
    (TrialParams(alpha=1.2, beta=0.15, nu=2.5), SystemConfig(B=0.4, rho0=2.0),
     ("alpha", "beta", "nu")),
    (TrialParams(alpha=0.9, beta=0.3, gamma=0.4),
     SystemConfig(B=0.5, rho0=math.inf), ("alpha", "beta", "gamma")),
    (TrialParams(alpha=1.3, beta=0.0, nu=2.5), SystemConfig(B=0.0, rho0=2.0),
     ("alpha", "nu")),
    (TrialParams(alpha=0.6, beta=0.2, nu=2.5),
     SystemConfig(B=0.7, rho0=3.0, coulomb_on=False), ("alpha", "beta", "nu")),
    # nu is flat here: dE/dnu = -4.1e-4.  Nearer the optimum (nu ~ 19) it
    # is about 1e-11, below what a central difference in E resolves.
    (TrialParams(alpha=1.2, beta=0.0, nu=3.0), SystemConfig(B=0.0, rho0=15.0),
     ("alpha", "nu")),
    (TrialParams(alpha=1.1, beta=0.0, gamma=0.3),
     SystemConfig(B=0.0, rho0=math.inf), ("alpha", "gamma")),
    # A tiny field: beta*B = -0.088 is an ordinary width, though beta is
    # -8.8e197.
    (TrialParams(alpha=1.1, beta=-0.088 / 1e-200, nu=2.5),
     SystemConfig(B=1e-200, rho0=2.0), ("alpha", "beta", "nu")),
]


def moved(params, cfg, name, step):
    """``params`` moved by ``step`` along the solver coordinate of
    ``name`` that ``energy_derivatives`` differentiates in: beta*B, ln nu,
    or the parameter itself."""
    v = getattr(params, name)
    return replace(params, **{name: v * math.exp(step) if name == "nu" else
                              v + step / cfg.B if name == "beta" else
                              v + step})


@pytest.mark.parametrize("params,cfg,wrt", GRADIENT_STATES)
def test_energy_gradient_matches_central_differences(params, cfg, wrt):
    rule = fixed_rule(params, cfg, SPEC)
    e, grad, _ = energy_derivatives(params, cfg, rule, wrt)
    # On the rule energy() would build at these parameters, the same number.
    assert e == pytest.approx(energy(params, cfg, SPEC).total, rel=1e-13)
    h = 1e-6
    fd = []
    for name in wrt:
        up, dn = (energy_derivatives(moved(params, cfg, name, step), cfg,
                                     rule, ())[0] for step in (h, -h))
        fd.append((up - dn) / (2.0 * h))
    np.testing.assert_allclose(grad, fd, rtol=1e-6)


@pytest.mark.parametrize("params,cfg,wrt", GRADIENT_STATES)
def test_energy_hessian_matches_central_differences(params, cfg, wrt):
    # The exact Hessian, against central differences of the analytic
    # gradient on the same rule, both in the solver coordinates.
    rule = fixed_rule(params, cfg, SPEC)
    _, _, hess = energy_derivatives(params, cfg, rule, wrt)
    h = 1e-5
    fd = []
    for name in wrt:
        up, dn = (energy_derivatives(moved(params, cfg, name, step), cfg,
                                     rule, wrt)[1] for step in (h, -h))
        fd.append((np.array(up) - np.array(dn)) / (2.0 * h))
    np.testing.assert_allclose(hess, fd, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("params,cfg,wrt", GRADIENT_STATES)
def test_energy_is_the_gradient_kernel_with_no_derivatives(params, cfg, wrt):
    # energy() and energy_derivatives() take E from one matrix of moment
    # sums.
    rule = fixed_rule(params, cfg, SPEC)
    br = energy(params, cfg, SPEC, rule)
    e, grad, hess = energy_derivatives(params, cfg, rule, wrt)
    assert br.total == pytest.approx(e, rel=1e-14)
    assert br.kinetic + br.coulomb + br.zeeman_quadratic == br.total
    assert np.shape(grad) == (len(wrt),)
    assert np.shape(hess) == (len(wrt), len(wrt))


def graded_grid(params, cfg, n=400):
    """An independent oracle rule: a 2-D tensor Gauss-Legendre rule in
    (rho, z >= 0), doubled by parity, graded by t^4 towards the axis and the
    nucleus in both directions (rho = rho0 t^4, or s t^4 / (1 - t) on the
    half line, s = 2/alpha).  Its values at 200^2 and 400^2 nodes agree to
    5e-13 relative or better on every quantity of GRADIENT_STATES."""
    x, w = np.polynomial.legendre.leggauss(n)
    t, dt = 0.5 * (x + 1.0), 0.5 * w
    s = 2.0 / params.alpha
    half_line = (s * t**4 / (1.0 - t),
                 s * t**3 * (4.0 - 3.0 * t) / (1.0 - t)**2 * dt)
    if math.isinf(cfg.rho0):
        rho, drho = half_line
    else:
        rho, drho = cfg.rho0 * t**4, 4.0 * cfg.rho0 * t**3 * dt
    z, dz = half_line
    R, Z = np.meshgrid(rho, z, indexing="ij")
    return R, Z, 4.0 * np.pi * np.outer(rho * drho, dz)


def grid_rayleigh_quotient(params, cfg):
    """The energy terms as 2-D sums of psi and its partials over
    ``graded_grid``: the kinetic term from |grad psi|^2 node by node, with
    none of the radial-moment algebra and no closed-form z integral."""
    R, Z, W = graded_grid(params, cfg)
    s = evaluate(params, cfg, R, Z)
    psi2 = s.psi**2
    norm = np.sum(W * psi2)
    coulomb = (-np.sum(W * psi2 / np.hypot(R, Z)) / norm if cfg.coulomb_on
               else 0.0)
    return dict(
        kinetic=0.5 * np.sum(W * (s.dpsi_drho**2 + s.dpsi_dz**2)) / norm,
        coulomb=coulomb,
        zeeman_quadratic=(cfg.B**2 / 8.0) * np.sum(W * psi2 * R**2) / norm,
        norm=norm)


@pytest.mark.parametrize("params,cfg,wrt", GRADIENT_STATES)
def test_energy_terms_match_grid_rayleigh_quotient(params, cfg, wrt):
    # The radial rule at 64 nodes is within 6e-14 of the oracle here.
    br = energy(params, cfg, SPEC)
    for name, ref in grid_rayleigh_quotient(params, cfg).items():
        assert getattr(br, name) == pytest.approx(ref, rel=1e-12), name


def grid_observables(params, cfg):
    """<rho>, <|z|> and the Shannon entropy as 2-D sums of the density
    psi^2 / N over ``graded_grid``, node by node."""
    R, Z, W = graded_grid(params, cfg)
    psi2 = evaluate(params, cfg, R, Z).psi**2
    dens = psi2 / np.sum(W * psi2)
    # rho ln rho -> 0 at the wall; underflowed densities contribute 0.
    ln_dens = np.where(dens > 0, np.log(np.where(dens > 0, dens, 1.0)), 0.0)
    return dict(mean_rho=np.sum(W * dens * R),
                mean_abs_z=np.sum(W * dens * np.abs(Z)),
                shannon_r=-np.sum(W * dens * ln_dens))


# The entropy's ln(1 - (rho/rho0)^nu) is log-singular at the wall, where
# the radial rule is not graded: at 64 nodes it is within 2e-10 of the
# oracle at finite rho0, every other observable within 2e-14.
OBSERVABLE_RTOL = dict(mean_rho=1e-12, mean_abs_z=1e-12, shannon_r=1e-9)


@pytest.mark.parametrize("params,cfg,wrt", GRADIENT_STATES)
def test_observables_match_grid_sums(params, cfg, wrt):
    obs = observables(params, cfg, SPEC)
    for name, ref in grid_observables(params, cfg).items():
        assert getattr(obs, name) == pytest.approx(
            ref, rel=OBSERVABLE_RTOL[name]), name
    assert obs.aspect_ratio == obs.mean_rho / (2.0 * obs.mean_abs_z)


def test_observables_free_atom():
    obs = observables(EXACT_1S, FREE_H, SPEC)
    assert obs.mean_rho == pytest.approx(3.0 * math.pi / 8.0, abs=1e-9)
    assert obs.mean_abs_z == pytest.approx(0.75, abs=1e-9)
    assert obs.aspect_ratio == pytest.approx(math.pi / 4.0, abs=1e-9)
    assert obs.shannon_r == pytest.approx(3.0 + math.log(math.pi), abs=1e-9)
    assert obs.cusp_Z == 1.0


def test_observables_entropy_matches_dblquad(shannon_entropy_dblquad):
    # Confined B = 0 optimum tabulated at rho0 = 2 (acceptance criterion 1).
    params = TrialParams(alpha=1.1058, beta=0.0, nu=3.4951)
    obs = observables(params, SystemConfig(B=0.0, rho0=2.0), SPEC)
    ref = shannon_entropy_dblquad(1.1058, 3.4951, 2.0)
    assert obs.shannon_r == pytest.approx(ref, abs=1e-8)


def test_reference_energy_branches():
    assert reference_energy(SystemConfig(B=0.8, rho0=math.inf)) == 0.4
    drum = J01**2 / 8.0
    assert reference_energy(SystemConfig(B=0.0, rho0=2.0)) == pytest.approx(drum)
    cfg = SystemConfig(B=0.6, rho0=3.0)
    assert reference_energy(cfg) == landau_cylinder_energy(0.6, 3.0)


def test_binding_energy_positive_for_bound_atom():
    cfg = SystemConfig(B=0.0, rho0=2.0)
    e = energy(TrialParams(alpha=1.1, beta=0.0, nu=3.5), cfg, SPEC).total
    assert binding_energy(e, cfg) > 0.0
    assert binding_energy(e, cfg) == pytest.approx(reference_energy(cfg) - e)


def test_tail_fit_recovers_synthetic_model():
    records = [(r, -0.5 + 0.4 / r**2) for r in (2.5, 3.0, 3.5, 4.0, 5.0)]
    amp, expo = fit_large_rho0_tail(records)
    assert amp == pytest.approx(0.4, rel=1e-9)
    assert expo == pytest.approx(2.0, abs=1e-9)


def test_tail_fit_rejects_short_input():
    with pytest.raises(ValueError):
        fit_large_rho0_tail([(2.5, -0.4), (3.0, -0.45)])


def test_tail_fit_drops_points_below_free_limit():
    records = [(r, -0.5 + 0.4 / r**2) for r in (2.5, 3.0, 3.5, 4.0)]
    records.append((5.0, -0.51))
    records.append((math.inf, -0.4999))  # ln rho0 is not finite
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        amp, expo = fit_large_rho0_tail(records)
    assert sum("outside the tail model" in str(w.message)
               for w in caught) == 2
    assert expo == pytest.approx(2.0, abs=1e-9)


def test_rule_stops_where_the_density_is_negligible(monkeypatch):
    # exp(-2 alpha rho - 2 beta B rho^2) = eps^4 at rho_max, unless rho0 is
    # nearer or the Gaussian grows.
    ln_cut = -4.0 * math.log(np.finfo(float).eps)
    spec = QuadratureSpec(32)
    params = TrialParams(alpha=2.0, beta=0.25, nu=3.0)
    for cfg in (SystemConfig(B=4.0, rho0=1e3), SystemConfig(B=0.0, rho0=1e3),
                SystemConfig(B=4.0, rho0=math.inf)):
        rho_max = fixed_rule(params, cfg, spec).rho_max
        c = params.beta * cfg.B
        assert 2.0 * params.alpha * rho_max + 2.0 * c * rho_max**2 == \
            pytest.approx(ln_cut, rel=1e-14)
    narrow_cavity = SystemConfig(B=4.0, rho0=2.0)
    assert fixed_rule(params, narrow_cavity, spec).rho_max == 2.0
    growing = replace(params, beta=-0.25)
    assert fixed_rule(growing, SystemConfig(B=4.0, rho0=1e3),
                      spec).rho_max == 1e3
    # energy() rebuilds a rule that does not resolve the density it is
    # given, and takes one that reaches beyond it.  The rule built at
    # alpha = 3 ends where psi^2 at alpha = 1 is e^-48, not negligible.
    cfg = SystemConfig(B=0.0, rho0=1e3)
    narrow = TrialParams(alpha=2.0, beta=0.0, nu=3.0)
    wide = replace(narrow, alpha=1.0)
    short = fixed_rule(replace(narrow, alpha=3.0), cfg, SPEC)
    assert not short.resolves(wide, cfg)
    assert energy(wide, cfg, SPEC, short) == energy(wide, cfg, SPEC)
    assert energy(narrow, cfg, SPEC, fixed_rule(wide, cfg, SPEC)).total == \
        pytest.approx(energy(narrow, cfg, SPEC).total, abs=1e-12)


def test_rule_resolves_e_where_the_density_beyond_it_is_negligible():
    spec = QuadratureSpec(48)
    # beta B < 0 at finite rho0: psi^2 falls beyond the rule, then rises
    # towards the wall, so both ends decide.
    cfg = SystemConfig(B=0.0145, rho0=92.3)
    rule = fixed_rule(TrialParams(alpha=1.1, beta=0.1, nu=2.0), cfg, spec)
    assert rule.rho_max < cfg.rho0
    assert rule.resolves(TrialParams(alpha=1.1, beta=-0.3, nu=3.0), cfg)
    # psi^2 is e^-74 of its nucleus value at the rule's end, e^-67 at rho0
    assert not rule.resolves(TrialParams(alpha=1.1, beta=-0.552, nu=3.0),
                             cfg)
    assert not rule.resolves(TrialParams(alpha=0.4, beta=0.1, nu=2.0), cfg)
    # At rho0 = inf a huge gamma makes p a scale factor, gamma^2 rho^2:
    # psi^2 beyond the rule is negligible against its peak near 2/alpha,
    # not against its value at the nucleus.
    cfg = SystemConfig(B=0.0, rho0=math.inf)
    rule = fixed_rule(TrialParams(alpha=1.0, beta=0.0, gamma=0.0), cfg, spec)
    assert rule.resolves(TrialParams(alpha=1.0, beta=0.0, gamma=1e8), cfg)
    assert not rule.resolves(TrialParams(alpha=0.4, beta=0.0, gamma=1e8),
                             cfg)


def test_reused_rule_refuses_parameters_that_overflow_its_sums():
    # A rule built at alpha = 1 ends at rho = 72.1.  Reused at a gamma whose
    # f^2 ~ (gamma rho)^4 overflows there, or at an alpha whose z extent
    # 1/(2 alpha) enters the moments squared beyond a double, it refuses
    # with a ValueError naming that parameter, before any sum is formed.
    rule = fixed_rule(EXACT_1S, FREE_H, SPEC)
    with pytest.raises(ValueError, match=r"^gamma = 1e\+150 is too large"):
        rule.resolves(replace(EXACT_1S, gamma=1e150), FREE_H)
    with pytest.raises(ValueError, match=r"^alpha = 1e-300 is too small"):
        rule.resolves(replace(EXACT_1S, alpha=1e-300), FREE_H)
    assert rule.resolves(replace(EXACT_1S, gamma=1e73), FREE_H)


def test_rule_resolves_e_only_with_two_nodes_in_the_wall_layer():
    # 1 - x^nu falls to 1/2 at rho_w = rho0 2^(-1/nu).  At (0, 2), alpha = 1
    # and 64 nodes, the two outermost nodes lie in [rho_w, rho0] up to
    # nu = 126.1: E is 8e-11 from the 4096-node value at nu = 79.3, 4.6e-9
    # at nu = 128 with one node there.
    cfg = SystemConfig(B=0.0, rho0=2.0)
    for nu, resolved in ((79.3, True), (128.0, False), (1e300, False)):
        params = TrialParams(alpha=1.0, nu=nu)
        assert fixed_rule(params, cfg, SPEC).resolves(params, cfg) == resolved
    with pytest.raises(ArithmeticError, match="wall layer"):
        energy(TrialParams(alpha=1.0, nu=128.0), cfg, SPEC)
    # At rho0 = inf there is no wall and nu does not act: the refusal names
    # the density and the parameters that act there, gamma among them.
    cfg = SystemConfig(B=0.02, rho0=math.inf, coulomb_on=False)
    with pytest.raises(ArithmeticError) as exc:
        energy(TrialParams(alpha=1e-8, beta=0.43, gamma=1e8), cfg, SPEC)
    assert "misses the density at" in str(exc.value)
    assert "gamma = 1e+08" in str(exc.value)
    assert "nu" not in str(exc.value) and "wall" not in str(exc.value)
    # At rho0 = 60 psi^2 at the wall is e^-120 of its peak: any nu serves.
    cfg = SystemConfig(B=0.0, rho0=60.0)
    params = TrialParams(alpha=1.0, nu=1000.0)
    assert fixed_rule(params, cfg, SPEC).resolves(params, cfg)
    assert energy(params, cfg, SPEC).total == pytest.approx(-0.5, abs=1e-12)

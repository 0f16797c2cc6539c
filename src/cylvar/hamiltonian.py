"""Rayleigh quotient, term breakdown and derived observables.

psi = f(rho) exp(-alpha r), so the z integral of every term is a modified
Bessel function of 2 alpha rho in closed form, and every integral the energy
and the observables need is a sum over the radial nodes of a ``FixedRule``
of f, f' and a few such moments of exp(-2 alpha r).  ``energy`` and
``observables`` take them on a given rule or on the rule built at their
parameters, and ``energy_gradient`` on a rule held fixed for one point.  No
2-D field of psi is formed; ``trialfn.evaluate`` serves as the tests'
node-by-node oracle.
The kinetic energy uses the gradient form (1/2) int |grad psi|^2, which is
equivalent to -psi Lap psi / 2 under the Dirichlet wall and avoids second
derivatives of the cut-off factor.  All expectation values are taken with
the density normalized on the quadrature grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import k0, k1

from .quadrature import QuadratureSpec, cylinder_grid
from .specfun import landau_cylinder_energy
from .trialfn import SystemConfig, TrialParams, check_admissible
# perfbench/tracing.py patches this name; nothing in the package calls it.
from .trialfn import evaluate  # noqa: F401

__all__ = [
    "EnergyBreakdown",
    "Observables",
    "energy",
    "FixedRule",
    "fixed_rule",
    "energy_gradient",
    "observables",
    "reference_energy",
    "binding_energy",
    "fit_large_rho0_tail",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float
    coulomb: float
    zeeman_quadratic: float
    total: float
    norm: float


@dataclass(frozen=True)
class Observables:
    mean_rho: float
    mean_abs_z: float
    aspect_ratio: float
    shannon_r: float
    cusp_Z: float


# A rule stops where exp(-2 alpha r - 2 beta B rho^2) falls below eps^4 of
# its value at the nucleus: a solve's alpha may fall to a quarter of its
# start's, or the prefactor grow as (1 + gamma^2 rho^2)^2 at rho0 = inf,
# before the tail left out reaches the rounding of the sums.
_LN_CUT = -4.0 * math.log(np.finfo(float).eps)


def _radial_extent(params: TrialParams, cfg: SystemConfig) -> float:
    """The radius a rule built at ``params`` reaches: rho0, or the positive
    root of 2 beta B rho^2 + 2 alpha rho = _LN_CUT if that is nearer.  No
    such root bounds the density when beta B < 0."""
    c = params.beta * cfg.B
    if c < 0:
        return cfg.rho0
    return min(cfg.rho0, _LN_CUT / (params.alpha + math.hypot(
        params.alpha, math.sqrt(2.0 * c * _LN_CUT))))


@dataclass(frozen=True)
class FixedRule:
    """A radial quadrature rule with its parameter-free arrays, held fixed
    for one point's solves, or built for one ``energy`` or ``observables``
    call.

    The nodes lie on [0, rho_max], where rho_max is rho0 or, if nearer,
    the radius beyond which the density at the parameters the rule was
    built at is negligible (``_radial_extent``).
    """

    rho: np.ndarray       # radial nodes
    rho2: np.ndarray      # rho^2
    weight: np.ndarray    # 2 pi rho w_rho, times the 2 of z-parity
    x: np.ndarray | None  # rho/rho0 at finite rho0
    ln_x: np.ndarray | None
    zeeman: np.ndarray    # B^2 rho^2 / 8 on the radial nodes
    rho_max: float


def fixed_rule(params: TrialParams, cfg: SystemConfig,
               spec: QuadratureSpec) -> FixedRule:
    """The rule ``energy`` uses at ``params``, to hold fixed for a solve."""
    rho_max = _radial_extent(params, cfg)
    rho, weight = cylinder_grid(rho_max, spec)
    x = None if math.isinf(cfg.rho0) else rho / cfg.rho0
    rho2 = rho * rho
    return FixedRule(rho=rho, rho2=rho2, weight=2.0 * weight, x=x,
                     ln_x=None if x is None else np.log(x),
                     zeeman=(cfg.B**2 / 8.0) * rho2, rho_max=rho_max)


def _rule_for(params: TrialParams, cfg: SystemConfig, spec: QuadratureSpec,
              rule: FixedRule | None) -> FixedRule:
    """``rule`` if given and it reaches as far as the density at ``params``,
    else the rule built at ``params``."""
    if rule is None or _radial_extent(params, cfg) > rule.rho_max:
        return fixed_rule(params, cfg, spec)
    return rule


def _radial_factor(params: TrialParams, cfg: SystemConfig, rule: FixedRule,
                   wrt: tuple[str, ...]):
    """The prefactor p(rho), f = p exp(-beta*B*rho^2) and f' on the radial
    nodes, with (df/dtheta, df'/dtheta) for each theta in ``wrt`` other than
    alpha."""
    rho = rule.rho
    B = cfg.B
    gauss = np.exp((-params.beta * B) * rule.rho2)
    dlog = (-2.0 * params.beta * B) * rho
    if rule.x is None:
        g = 0.0 if params.gamma is None else params.gamma
        p, dp = 1.0 + g**2 * rule.rho2, (2.0 * g**2) * rho
    else:
        x_nu1 = rule.x ** (params.nu - 1.0)
        x_nu = x_nu1 * rule.x
        p, dp = 1.0 - x_nu, (-params.nu / cfg.rho0) * x_nu1
    f = p * gauss
    df = (dp + p * dlog) * gauss

    def prefactor_term(q, dq):
        # p moves by q = dp/dtheta, and p' by dq.
        return q * gauss, (dq + q * dlog) * gauss

    derivs = []
    for name in wrt:
        if name == "alpha":
            derivs.append(None)  # alpha enters through the moments alone
        elif name == "beta":
            derivs.append((-B * rule.rho2 * f,
                           -2.0 * B * rho * f - B * rule.rho2 * df))
        elif name == "nu":
            derivs.append(prefactor_term(-x_nu * rule.ln_x,
                                         dp * (rule.ln_x + 1.0 / params.nu)))
        elif name == "gamma":
            derivs.append(prefactor_term(2.0 * g * rule.rho2, 4.0 * g * rho))
        else:
            raise ValueError(f"unknown parameter name: {name!r}")
    return p, f, df, derivs


def _moments(alpha: float, rule: FixedRule):
    """The moments m_c = int c exp(-2 alpha r) dz over the whole z axis, times
    the node weight, for c = 1, rho/r, r and 1/r.  With a = 2 alpha
    (Gradshteyn-Ryzhik 3.961): m_1 = 2 rho K1(a rho), m_{rho/r} = 2 rho K0,
    m_r = 2 (rho^2 K0 + rho K1 / a) and m_{1/r} = 2 K0.  K0 and K1 cannot
    overflow at a rho > 0, and where they underflow so does the density."""
    a = 2.0 * alpha
    ar = a * rule.rho
    m_inv_r = k0(ar) * rule.weight
    m1 = rule.rho * (k1(ar) * rule.weight)
    m_rho = rule.rho * m_inv_r
    return m1, m_rho, rule.rho * m_rho + m1 / a, m_inv_r


def energy(params: TrialParams, cfg: SystemConfig, spec: QuadratureSpec,
           rule: FixedRule | None = None) -> EnergyBreakdown:
    """Term-by-term Rayleigh quotient for the (m=0, p=0) trial state: the
    moment sums of ``energy_gradient`` on ``rule`` when it reaches as far
    as the density at ``params``, else on the rule built at ``params``.

    Raises ValueError for parameters outside the admissible set, and
    ArithmeticError for a norm that is not finite and positive or a total
    that is not finite.
    """
    check_admissible(asdict(params), cfg)
    rule = _rule_for(params, cfg, spec, rule)
    m1, m_rho, _, m_inv_r = _moments(params.alpha, rule)
    _, f, df, _ = _radial_factor(params, cfg, rule, ())
    f2 = f * f
    norm = float(f2 @ m1)
    if not (math.isfinite(norm) and norm > 0):
        raise ArithmeticError(f"trial norm {norm:g} on the quadrature grid "
                              f"at {params}")

    a = params.alpha
    kinetic = float(0.5 * ((df * df + a * a * f2) @ m1)
                    - a * ((f * df) @ m_rho)) / norm
    coulomb = -float(f2 @ m_inv_r) / norm if cfg.coulomb_on else 0.0
    zeeman_quadratic = float(f2 @ (rule.zeeman * m1)) / norm
    total = kinetic + coulomb + zeeman_quadratic
    if not math.isfinite(total):
        raise ArithmeticError(f"non-finite energy {total} at {params}")
    return EnergyBreakdown(kinetic=kinetic, coulomb=coulomb,
                           zeeman_quadratic=zeeman_quadratic,
                           total=total, norm=norm)


def energy_gradient(params: TrialParams, cfg: SystemConfig, rule: FixedRule,
                    wrt: tuple[str, ...]) -> tuple[float, np.ndarray]:
    """Rayleigh quotient E on a fixed rule and dE/dtheta for theta in ``wrt``.

    |grad psi|^2 = h^2 [f'^2 - 2 alpha f f' rho/r + alpha^2 f^2] with
    h = exp(-alpha r), so N = sum f^2 m_1, K = sum (f'^2 + alpha^2 f^2) m_1
    - 2 alpha sum f f' m_{rho/r}, V = sum f^2 (B^2 rho^2/8 m_1 - m_{1/r})
    and E = (K/2 + V)/N, exact for the rule's nodes and weights.  Besides
    the explicit alpha in K, d/dalpha acts on the moments alone (dm_1 =
    -2 m_r, dm_{rho/r} = -2 rho m_1, dm_{1/r} = -2 m_1), and the other
    parameters act on f and f' alone.  Everything is O(n_rho).
    """
    a = params.alpha
    m1, m_rho, m_r, m_inv_r = _moments(a, rule)
    _, f, df, derivs = _radial_factor(params, cfg, rule, wrt)
    f2 = f * f
    f_df = f * df
    grad2 = df * df + a * a * f2
    u = rule.zeeman * m1
    if cfg.coulomb_on:
        u = u - m_inv_r
    norm = f2 @ m1
    e = (0.5 * (grad2 @ m1) - a * (f_df @ m_rho) + f2 @ u) / norm
    # N dE/df and N dE/df' at each radial node.
    e_f = a * a * f * m1 - a * df * m_rho + 2.0 * f * (u - e * m1)
    e_df = df * m1 - a * f * m_rho
    grad = []
    for d in derivs:
        if d is not None:
            grad.append(d[0] @ e_f + d[1] @ e_df)
            continue
        # N dE/dalpha = d(K/2 + V)/dalpha - E dN/dalpha
        d_alpha = (-(grad2 + 2.0 * f2 * (rule.zeeman - e)) @ m_r + a * norm
                   - f_df @ m_rho + 2.0 * a * (f_df * rule.rho) @ m1)
        if cfg.coulomb_on:
            d_alpha += 2.0 * norm  # -sum f^2 dm_{1/r}
        grad.append(d_alpha)
    return float(e), np.array(grad) / norm


def observables(params: TrialParams, cfg: SystemConfig, spec: QuadratureSpec,
                rule: FixedRule | None = None) -> Observables:
    """<rho>, <|z|>, their ratio, position-space Shannon entropy and cusp,
    from radial moments on the rule ``energy`` would take.

    The density is f^2 h^2 / N with N = sum f^2 m_1, so <rho> = sum f^2 rho
    m_1 / N, <|z|> = sum f^2 m_|z| / N with m_|z| = int |z| h^2 dz =
    2 exp(-a rho) (rho/a + 1/a^2), a = 2 alpha, and S = -<ln(f^2 h^2 / N)>
    = ln N - (2/N) sum f^2 ln f m_1 + (2 alpha/N) sum f^2 m_r.
    """
    rule = _rule_for(params, cfg, spec, rule)
    m1, _, m_r, _ = _moments(params.alpha, rule)
    p, f, _, _ = _radial_factor(params, cfg, rule, ())
    a = 2.0 * params.alpha
    m_abs_z = rule.weight * np.exp(-a * rule.rho) * (rule.rho / a + 1.0 / a**2)
    f2 = f * f
    norm = float(f2 @ m1)

    # ln f = ln p - beta B rho^2, never log(f): f underflows to 0 at outer
    # nodes, where f^2 ln f -> 0.
    ln_f = np.log(p) - params.beta * cfg.B * rule.rho2

    mean_rho = float(f2 @ (rule.rho * m1)) / norm
    mean_abs_z = float(f2 @ m_abs_z) / norm
    shannon_r = (math.log(norm) - 2.0 * float((f2 * ln_f) @ m1) / norm
                 + 2.0 * params.alpha * float(f2 @ m_r) / norm)
    return Observables(mean_rho=mean_rho,
                       mean_abs_z=mean_abs_z,
                       aspect_ratio=mean_rho / (2.0 * mean_abs_z),
                       shannon_r=shannon_r,
                       cusp_Z=params.alpha)


def reference_energy(cfg: SystemConfig) -> float:
    """Coulomb-free ground energy E0 of the same cavity and field."""
    if math.isinf(cfg.rho0):
        return 0.5 * cfg.B
    return landau_cylinder_energy(cfg.B, cfg.rho0)


def binding_energy(e_total: float, cfg: SystemConfig) -> float:
    """E_b = E0 - E: energy gained by switching on the Coulomb term."""
    return reference_energy(cfg) - e_total


def fit_large_rho0_tail(records):
    """Fit E(rho0) ~ -1/2 + A / rho0^exponent on large-radius B=0 data.

    ``records`` is an iterable of (rho0, E) pairs with rho0 >= 2.5.
    Returns (A, exponent).  Entries with E <= -1/2 (below the free-atom
    limit, hence outside the model) are dropped with a warning.
    """
    kept = []
    for rho0, e in records:
        if e <= -0.5:
            warnings.warn(f"dropping record (rho0={rho0}, E={e}): "
                          "E <= -0.5 is outside the tail model")
            continue
        kept.append((rho0, e))
    if len(kept) < 3:
        raise ValueError("tail fit needs at least 3 usable records")
    x = np.log([r for r, _ in kept])
    y = np.log([e + 0.5 for _, e in kept])
    slope, intercept = np.polyfit(x, y, 1)
    return float(np.exp(intercept)), float(-slope)

"""Rayleigh quotient, term breakdown and derived observables.

psi = f(rho) exp(-alpha r), so the z integral of every term is a modified
Bessel function of 2 alpha rho in closed form, and every integral the energy
and the observables need is a sum over the radial nodes of a ``FixedRule``
of f, f' and a few such moments of exp(-2 alpha r).  ``energy`` and
``energy_gradient`` take all their sums from one matrix product: the rows f,
f' and each (df/dtheta, df'/dtheta) against the moment rows, which are the
rule's parameter-free weights times one K0 and one K1 of 2 alpha rho; the
rest is scalar algebra.  ``observables`` takes its sums from the same moment
rows, with one more row for |z| built from their weights.  ``energy`` and
``observables`` work on a given rule or on the rule built at their
parameters, and ``energy_gradient`` on a rule held fixed for one point.
No 2-D field of psi is formed; ``trialfn.evaluate`` serves as the tests'
node-by-node oracle.
The kinetic energy uses the gradient form (1/2) int |grad psi|^2, which is
equivalent to -psi Lap psi / 2 under the Dirichlet wall and avoids second
derivatives of the cut-off factor.  All expectation values are taken with
the density normalized on the quadrature grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

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
    x: np.ndarray | None  # rho/rho0 at finite rho0
    rho_max: float
    # The moment rows (``_moment_rows``) are k0_weights K0(2 alpha rho),
    # then k1_weights K1(2 alpha rho).  Each weight row is a power of rho
    # times w = 2 pi rho w_rho, times the 2 of z-parity.
    k0_weights: np.ndarray
    k1_weights: np.ndarray

    @cached_property
    def ln_x(self) -> np.ndarray:
        """ln(rho/rho0), for dp/dnu: built once a solve with nu free asks."""
        return np.log(self.x)


# Rows of the moment matrix: the K0 part of m_r (m_r = M_R0 + m_1 /
# 2 alpha), m_{rho/r}, m_{1/r} and rho^2 M_R0; then m_1, rho^2 m_1 and
# rho m_1.  The Zeeman potential is B^2/8 times rho^2.
M_R0, M_RHO, M_INV_R, R2_MR0, M1, R2_M1, RHO_M1 = range(7)


def fixed_rule(params: TrialParams, cfg: SystemConfig,
               spec: QuadratureSpec) -> FixedRule:
    """The rule ``energy`` uses at ``params``, to hold fixed for a solve."""
    rho_max = _radial_extent(params, cfg)
    rho, weight = cylinder_grid(rho_max, spec)
    x = None if math.isinf(cfg.rho0) else rho / cfg.rho0
    rho2 = rho * rho
    weight = 2.0 * weight
    w_rho = weight * rho
    w_rho2 = w_rho * rho
    w_rho3 = w_rho2 * rho
    return FixedRule(
        rho=rho, rho2=rho2, x=x, rho_max=rho_max,
        k0_weights=np.array([w_rho2, w_rho, weight, w_rho3 * rho]),
        k1_weights=np.array([w_rho, w_rho3, w_rho2]))


def _rule_for(params: TrialParams, cfg: SystemConfig, spec: QuadratureSpec,
              rule: FixedRule | None) -> FixedRule:
    """``rule`` if given and it reaches as far as the density at ``params``,
    else the rule built at ``params``."""
    if rule is None or _radial_extent(params, cfg) > rule.rho_max:
        return fixed_rule(params, cfg, spec)
    return rule


def _radial_factor(params: TrialParams, cfg: SystemConfig, rule: FixedRule,
                   wrt: tuple[str, ...]):
    """The prefactor p(rho), and on the radial nodes the rows f, f' of
    f = p exp(-beta*B*rho^2) followed by df/dtheta, df'/dtheta for each
    theta in ``wrt`` other than alpha, as an array of shape (2k, n_rho).

    Each pair of rows is (q G, (q G)') for a prefactor q and
    G = exp(-beta*B*rho^2): q = p for f, and dp/dtheta for theta = nu or
    gamma.  beta acts through G, but since dG/dbeta = -B rho^2 G its q is
    -B rho^2 p."""
    rho = rule.rho
    B = cfg.B
    if rule.x is None:
        g = 0.0 if params.gamma is None else params.gamma
        p, dp = 1.0 + g**2 * rule.rho2, (2.0 * g**2) * rho
    else:
        x_nu1 = rule.x ** (params.nu - 1.0)
        x_nu = x_nu1 * rule.x
        p, dp = 1.0 - x_nu, (-params.nu / cfg.rho0) * x_nu1
    c = params.beta * B
    if c:
        gauss = np.exp(-c * rule.rho2)
        slope = (2.0 * c) * rho

        def times_gauss(q, dq):
            # (q G)' = (q' - 2 c rho q) G
            return q * gauss, (dq - slope * q) * gauss
    else:  # G = 1
        def times_gauss(q, dq):
            return q, dq

    rows = [*times_gauss(p, dp)]
    for name in wrt:
        if name == "alpha":
            continue  # alpha enters through the moments alone
        if name == "beta":
            rows += times_gauss(-B * rule.rho2 * p,
                                -B * (2.0 * rho * p + rule.rho2 * dp))
        elif name == "nu":
            rows += times_gauss(-x_nu * rule.ln_x,
                                dp * (rule.ln_x + 1.0 / params.nu))
        elif name == "gamma":
            rows += times_gauss(2.0 * g * rule.rho2, 4.0 * g * rho)
        else:
            raise ValueError(f"unknown parameter name: {name!r}")
    return p, np.array(rows)


def _moment_rows(alpha: float, rule: FixedRule) -> np.ndarray:
    """The rows M_R0 ... RHO_M1: moments m_c = int c exp(-2 alpha r) dz
    over the whole z axis, times the node weight.  With a = 2 alpha
    (Gradshteyn-Ryzhik 3.961): m_1 = 2 rho K1(a rho), m_{rho/r} = 2 rho K0,
    m_r = 2 (rho^2 K0 + rho K1 / a) and m_{1/r} = 2 K0.  K0 and K1 cannot
    overflow at a rho > 0, and where they underflow so does the density."""
    ar = (2.0 * alpha) * rule.rho
    return np.concatenate((rule.k0_weights * k0(ar),
                           rule.k1_weights * k1(ar)))


def _rayleigh_sums(params: TrialParams, cfg: SystemConfig, rule: FixedRule,
                   wrt: tuple[str, ...]):
    """N, the numerators of the kinetic, Coulomb and Zeeman terms, E and
    dE/dtheta for theta in ``wrt``, from one matrix of moment sums.

    |grad psi|^2 = h^2 [f'^2 - 2 alpha f f' rho/r + alpha^2 f^2] with
    h = exp(-alpha r), so N = sum f^2 m_1, K = sum (f'^2 + alpha^2 f^2) m_1
    - 2 alpha sum f f' m_{rho/r}, V = sum f^2 (B^2 rho^2/8 m_1 - m_{1/r})
    and E = (K/2 + V)/N, exact for the rule's nodes and weights.  Besides
    the explicit alpha in K, d/dalpha acts on the moments alone (dm_1 =
    -2 m_r, dm_{rho/r} = -2 rho m_1, dm_{1/r} = -2 m_1), and the other
    parameters act on f and f' alone, through N dE/df = alpha^2 f m_1
    - alpha f' m_{rho/r} + 2 f (B^2 rho^2/8 m_1 - m_{1/r} - E m_1) and
    N dE/df' = f' m_1 - alpha f m_{rho/r} at each node.  Every one of these
    is a sum of u v m over the nodes, u in (f, f') and v in (f, f' and each
    df/dtheta, df'/dtheta), for a moment row m: the product below forms all
    of them at once, and the rest is scalar algebra.
    """
    a = params.alpha
    moments = _moment_rows(a, rule)
    rows = _radial_factor(params, cfg, rule, wrt)[1]
    # s[u][v][m] = sum over the nodes of rows[u] rows[v] moments[m]
    s = ((rows[:2, None] * rows[None]) @ moments.T).tolist()
    (ff, fdf, *_), (_, dfdf, *_) = s
    norm = ff[M1]
    kinetic = 0.5 * (dfdf[M1] + a * a * norm) - a * fdf[M_RHO]
    coulomb = -ff[M_INV_R] if cfg.coulomb_on else 0.0
    z = cfg.B**2 / 8.0
    zeeman = z * ff[R2_M1]
    # A norm that underflows to 0 gives a non-finite E, as in numpy.
    inv_norm = 1.0 / norm if norm else math.inf
    e = (kinetic + coulomb + zeeman) * inv_norm
    grad = []
    k = 2
    for name in wrt:
        if name == "alpha":
            # N dE/dalpha = d(K/2 + V)/dalpha - E dN/dalpha, with
            # m_r = M_R0 + m_1 / (2 alpha)
            half_a = 0.5 / a
            mr = ff[M_R0] + half_a * norm
            n_grad = (-(dfdf[M_R0] + half_a * dfdf[M1]) - a * a * mr
                      - 2.0 * z * (ff[R2_MR0] + half_a * ff[R2_M1])
                      + 2.0 * e * mr
                      + a * norm - fdf[M_RHO] + 2.0 * a * fdf[RHO_M1])
            if cfg.coulomb_on:
                n_grad += 2.0 * norm  # -sum f^2 dm_{1/r}
        else:
            # sum d0 N dE/df + d1 N dE/df' for (d0, d1) = rows k, k + 1
            (f_d0, f_d1), (df_d0, df_d1) = (row[k:k + 2] for row in s)
            k += 2
            n_grad = (a * a * f_d0[M1] - a * df_d0[M_RHO]
                      + 2.0 * (z * f_d0[R2_M1] - e * f_d0[M1])
                      + df_d1[M1] - a * f_d1[M_RHO])
            if cfg.coulomb_on:
                n_grad -= 2.0 * f_d0[M_INV_R]
        grad.append(n_grad * inv_norm)
    return norm, kinetic, coulomb, zeeman, e, grad


def energy(params: TrialParams, cfg: SystemConfig, spec: QuadratureSpec,
           rule: FixedRule | None = None) -> EnergyBreakdown:
    """Term-by-term Rayleigh quotient for the (m=0, p=0) trial state: the
    moment sums of ``energy_gradient`` on ``rule`` when it reaches as far
    as the density at ``params``, else on the rule built at ``params``.

    Raises ValueError for parameters outside the admissible set, and
    ArithmeticError for a norm that is not finite and positive or a total
    that is not finite.
    """
    check_admissible(vars(params), cfg)
    rule = _rule_for(params, cfg, spec, rule)
    norm, kinetic, coulomb, zeeman, _, _ = _rayleigh_sums(params, cfg, rule,
                                                          ())
    if not (math.isfinite(norm) and norm > 0):
        raise ArithmeticError(f"trial norm {norm:g} on the quadrature grid "
                              f"at {params}")
    kinetic /= norm
    coulomb /= norm
    zeeman /= norm
    total = kinetic + coulomb + zeeman
    if not math.isfinite(total):
        raise ArithmeticError(f"non-finite energy {total} at {params}")
    return EnergyBreakdown(kinetic=kinetic, coulomb=coulomb,
                           zeeman_quadratic=zeeman, total=total, norm=norm)


def energy_gradient(params: TrialParams, cfg: SystemConfig, rule: FixedRule,
                    wrt: tuple[str, ...]) -> tuple[float, np.ndarray]:
    """Rayleigh quotient E on a fixed rule and dE/dtheta for theta in
    ``wrt``, from the sums of ``_rayleigh_sums``."""
    *_, e, grad = _rayleigh_sums(params, cfg, rule, wrt)
    return e, np.array(grad)


def observables(params: TrialParams, cfg: SystemConfig, spec: QuadratureSpec,
                rule: FixedRule | None = None) -> Observables:
    """<rho>, <|z|>, their ratio, position-space Shannon entropy and cusp,
    from the moment rows on the rule ``energy`` would take.

    The density is f^2 h^2 / N with N = sum f^2 m_1, so <rho> = sum f^2 rho
    m_1 / N, <|z|> = sum f^2 m_|z| / N with m_|z| = int |z| h^2 dz times the
    node weight w, = exp(-a rho) (w rho/a + w/a^2), a = 2 alpha, and
    S = -<ln(f^2 h^2 / N)> = ln N - (2/N) sum f^2 ln f m_1 + (2 alpha/N)
    sum f^2 m_r, where sum f^2 m_r = sum f^2 M_R0 + N / (2 alpha).
    """
    rule = _rule_for(params, cfg, spec, rule)
    moments = _moment_rows(params.alpha, rule)
    m1 = moments[M1]
    p, (f, _) = _radial_factor(params, cfg, rule, ())
    a = 2.0 * params.alpha
    m_abs_z = np.exp(-a * rule.rho) * (rule.k0_weights[M_RHO] / a
                                       + rule.k0_weights[M_INV_R] / a**2)
    f2 = f * f
    norm = float(f2 @ m1)

    # ln f = ln p - beta B rho^2, never log(f): f underflows to 0 at outer
    # nodes, where f^2 ln f -> 0.
    ln_f = np.log(p) - params.beta * cfg.B * rule.rho2

    mean_rho = float(f2 @ moments[RHO_M1]) / norm
    mean_abs_z = float(f2 @ m_abs_z) / norm
    shannon_r = (math.log(norm) - 2.0 * float((f2 * ln_f) @ m1) / norm
                 + a * (float(f2 @ moments[M_R0]) + norm / a) / norm)
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
    Returns (A, exponent).  Entries outside the model, with E <= -1/2
    (below the free-atom limit) or rho0 = inf (where ln rho0 is not
    finite), are dropped with a warning.
    """
    kept = []
    for rho0, e in records:
        if e <= -0.5 or not math.isfinite(rho0):
            warnings.warn(f"dropping record (rho0={rho0}, E={e}): outside "
                          "the tail model, which needs a finite rho0 and "
                          "E > -0.5")
            continue
        kept.append((rho0, e))
    if len(kept) < 3:
        raise ValueError("tail fit needs at least 3 usable records")
    x = np.log([r for r, _ in kept])
    y = np.log([e + 0.5 for _, e in kept])
    slope, intercept = np.polyfit(x, y, 1)
    return float(np.exp(intercept)), float(-slope)

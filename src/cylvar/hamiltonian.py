"""Rayleigh quotient, term breakdown and derived observables.

psi = f(rho) exp(-alpha r), f = (1 - x^nu)(1 + gamma^2 rho^2)
exp(-beta*B*rho^2) with x = rho/rho0 (0 at rho0 = inf), so the z integral
of every term is a modified Bessel function of 2 alpha rho in closed form,
and every integral the energy and the observables need is a sum over the
radial nodes of a ``FixedRule`` of f, f' and a few such moments of
exp(-2 alpha r).  ``energy`` and ``energy_derivatives`` (E, its gradient
and its Hessian in the solver's coordinates alpha, beta*B, ln nu and gamma)
take their sums from matrix products: f and f' times each of f, f' and
their first and second derivatives, and each first derivative times each,
against the moment rows, the rule's weights times one K0 and one K1 of
2 alpha rho.  ``observables`` takes its sums from the same moment rows, and
one more for |z|.  ``energy`` and ``observables`` work on the rule
``rule_for`` picks, the one place that decides which rule serves a point:
a given rule if it resolves E at their parameters, else the rule built
there, and an ArithmeticError if that does not resolve E either.
``energy_derivatives`` works on a rule held fixed for one point.
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
    "rule_for",
    "energy_derivatives",
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
# The largest log of a sum's term: 64^4 below a double's, for nodes and ln f.
_LN_MAX_TERM = math.log(np.finfo(float).max) - 4.0 * math.log(64.0)


def _check_terms(params: TrialParams, cfg: SystemConfig, rho_max: float,
                 n_rho: int):
    """Raise ValueError where a sum on an ``n_rho``-node rule out to
    ``rho_max`` would overflow at ``params``: in its largest weight row,
    w rho^4 at rho_max with w <= 4 pi rho rho_max, in p^2 at rho_max, or in
    its largest term, about w (rho^2 + 1/(2 alpha))^2 psi^2 (the z extent
    of the moments) at rho = min(rho_max, 2/alpha).  Names gamma where p^2
    alone overflows, else alpha, which sets the rule's extent."""
    if not rho_max:  # a rule without extent holds no terms
        return
    a, g = params.alpha, params.gamma or 0.0
    r = min(rho_max, 2.0 / a)
    ln_w = math.log(4.0 * math.pi * rho_max)
    ln_weight = ln_w + 5.0 * math.log(rho_max)
    ln_f2 = 2.0 * math.log1p((g * rho_max) * (g * rho_max))
    ln_term = (ln_w + math.log(r) + 2.0 * math.log(r * r + 0.5 / a)
               + 2.0 * (math.log1p((g * r) * (g * r))
                        - r * (a + params.beta * cfg.B * r)))
    if max(ln_weight, ln_f2, ln_term) <= _LN_MAX_TERM:
        return
    name, value, size = (("gamma", g, "large") if ln_weight <= _LN_MAX_TERM
                         < ln_f2 else ("alpha", a, "small"))
    raise ValueError(f"{name} = {value:g} is too {size}: the sums over the "
                     f"{n_rho}-node radial rule out to rho = {rho_max:g} "
                     f"would overflow a double")


@dataclass(frozen=True)
class FixedRule:
    """A radial quadrature rule with its parameter-free arrays, held fixed
    for one point's solves while it resolves E there (``rule_for``).

    The nodes lie on [0, rho_max], where rho_max is rho0 or, if nearer,
    the radius beyond which the density at the parameters the rule was
    built at is negligible (``fixed_rule``).
    """

    rho: np.ndarray       # radial nodes
    rho2: np.ndarray      # rho^2
    x: np.ndarray         # rho/rho0, 0 at rho0 = inf
    rho_max: float
    # The moment rows (``_moment_rows``) are k0_weights K0(2 alpha rho),
    # then k1_weights K1(2 alpha rho).  Each weight row is a power of rho
    # times w = 2 pi rho w_rho, times the 2 of z-parity.
    k0_weights: np.ndarray
    k1_weights: np.ndarray

    def resolves(self, params: TrialParams, cfg: SystemConfig) -> bool:
        """Whether E at ``params`` on the rule is E to rounding: psi^2 at
        z = 0 is below eps^2 of its value at the nucleus, or at rho = 2/alpha
        if that is higher (rho0 = inf, where p grows as gamma^2 rho^2), from
        the rule's end to rho0, and two nodes lie in the wall layer [rho_w,
        rho0], rho_w = rho0 2^(-1/nu) where 1 - x^nu falls to 1/2, unless
        psi^2 is that small at rho_w.  At finite rho0, where p <= 1, its log
        is at most -2 rho (alpha + beta B rho), convex or falling, so both
        ends decide; at rho0 = inf it falls beyond 2/alpha.  Raises
        ValueError where the sums on the rule would overflow."""
        _check_terms(params, cfg, self.rho_max, self.rho.size)
        g = params.gamma or 0.0
        c = params.beta * cfg.B

        def ln_psi2(r):
            return 2.0 * (math.log1p((g * r)**2) - r * (params.alpha + c * r))
        floor = max(0.0, ln_psi2(min(self.rho_max, 2.0 / params.alpha))
                    ) - 0.5 * _LN_CUT
        ends = (() if self.rho_max >= cfg.rho0 else (self.rho_max, cfg.rho0)
                if c < 0 else (self.rho_max,))
        if any(ln_psi2(r) > floor for r in ends):
            return False
        rho_w = cfg.rho0 * 2.0 ** (-1.0 / params.nu)
        return (math.isinf(cfg.rho0) or self.rho[-2] >= rho_w
                or ln_psi2(rho_w) <= floor)

    @cached_property
    def ln_x(self) -> np.ndarray:
        """ln(rho/rho0), for the rows in ln nu: built once a solve frees nu."""
        return np.log(self.x)


# Rows of the moment matrix: the K0 part of m_r (m_r = M_R0 + m_1 /
# 2 alpha), m_{rho/r}, m_{1/r} and rho^2 M_R0; then m_1, rho^2 m_1 and
# rho m_1.  The Zeeman potential is B^2/8 times rho^2.
M_R0, M_RHO, M_INV_R, R2_MR0, M1, R2_M1, RHO_M1 = range(7)


def fixed_rule(params: TrialParams, cfg: SystemConfig,
               spec: QuadratureSpec) -> FixedRule:
    """The rule built at ``params``: its nodes stop at rho0, or at the
    positive root of 2 beta B rho^2 + 2 alpha rho = _LN_CUT if that is
    nearer.  No such root bounds the density when beta B < 0.  Raises
    ValueError where the sums on it would overflow (``_check_terms``)."""
    a, c = params.alpha, params.beta * cfg.B
    rho_max = cfg.rho0 if c < 0 else min(
        cfg.rho0, _LN_CUT / (a + math.hypot(a, math.sqrt(2.0 * c * _LN_CUT))))
    _check_terms(params, cfg, rho_max, spec.n_rho)
    rho, weight = cylinder_grid(rho_max, spec)
    x = rho / cfg.rho0
    rho2 = rho * rho
    weight = 2.0 * weight
    w_rho = weight * rho
    w_rho2 = w_rho * rho
    w_rho3 = w_rho2 * rho
    return FixedRule(
        rho=rho, rho2=rho2, x=x, rho_max=rho_max,
        k0_weights=np.array([w_rho2, w_rho, weight, w_rho3 * rho]),
        k1_weights=np.array([w_rho, w_rho3, w_rho2]))


def rule_for(params: TrialParams, cfg: SystemConfig, spec: QuadratureSpec,
             rule: FixedRule | None = None) -> FixedRule:
    """``rule`` if given and it resolves E at ``params``
    (``FixedRule.resolves``), else the rule built at ``params``.  Raises
    ArithmeticError if that does not resolve E there either, and ValueError
    where the sums on a rule would overflow."""
    if rule is None or not rule.resolves(params, cfg):
        rule = fixed_rule(params, cfg, spec)
        if not rule.resolves(params, cfg):
            # the cut-off and nu act at finite rho0, gamma at rho0 = inf
            unconfined = math.isinf(cfg.rho0)
            at = ", ".join(f"{name} = {getattr(params, name) or 0.0:g}"
                           for name in ("alpha", "beta",
                                        "gamma" if unconfined else "nu"))
            layer = "" if unconfined else " or the cut-off's wall layer"
            raise ArithmeticError(f"the {spec.n_rho}-node radial rule misses "
                                  f"the density{layer} at {at}")
    return rule


def _radial_factor(params: TrialParams, cfg: SystemConfig, rule: FixedRule,
                   wrt: tuple[str, ...]):
    """The prefactor p(rho); on the radial nodes, as one array, the rows
    f, f' of f = p exp(-beta*B*rho^2), then df/dtheta_i, df'/dtheta_i for
    the k coordinates theta_i of ``wrt`` other than alpha (beta*B, ln nu,
    gamma), then d2f/dtheta_i dtheta_j, d2f'/dtheta_i dtheta_j for each
    (i, j), i <= j, of the list returned last.

    p is 1 - x^nu, x = rho/rho0, at finite rho0, and 1 + gamma^2 rho^2 at
    rho0 = inf, where 1 - x^nu is 1 (x = 0) and gamma is the one of the two
    that acts.  beta*B acts through G = exp(-beta*B*rho^2) alone, and each
    derivative in it multiplies f by -rho^2."""
    rho = rule.rho
    names = [name for name in wrt if name != "alpha"]
    if math.isinf(cfg.rho0):
        # (q, q') for q = p = 1 + gamma^2 rho^2 and its first and second
        # derivatives in gamma
        g = params.gamma or 0.0
        qs = [(1.0 + g**2 * rule.rho2, (2.0 * g**2) * rho) if g else
              (np.ones_like(rho), np.zeros_like(rho))]
        if "gamma" in names:
            qs += [((2.0 * g) * rule.rho2, (4.0 * g) * rho),
                   (2.0 * rule.rho2, 4.0 * rho)]
    else:
        # the same for q = p = 1 - x^nu in ln nu: x^nu = exp(nu ln x), so
        # d(x^nu)/d ln nu = u x^nu with u = nu ln x
        nu = params.nu
        x_nu1 = rule.x ** (nu - 1.0)
        x_nu = x_nu1 * rule.x
        dp = (-nu / cfg.rho0) * x_nu1
        qs = [(1.0 - x_nu, dp)]
        if "nu" in names:
            w = -nu * rule.ln_x  # -u
            q1, u1 = x_nu * w, 1.0 - w
            qs += [(q1, dp * u1), (q1 * u1, dp * (u1 * u1 - w))]
    c = params.beta * cfg.B
    if c:
        gauss = np.exp(-c * rule.rho2)
        slope = (2.0 * c) * rho

    def pair(*keys):
        """(q G, (q G)') for q the derivative of p in ``keys``."""
        q, dq = qs[len(keys)]
        if c:  # (q G)' = (q' - 2 c rho q) G
            return q * gauss, (dq - slope * q) * gauss
        return q, dq

    p = qs[0][0]
    rows = pair()
    if not names:
        return p, np.array(rows), []
    if not set(names) <= {"beta", "gamma" if math.isinf(cfg.rho0) else "nu"}:
        raise ValueError(f"parameter names that do not act at {cfg}: {names}")
    if "beta" in names:  # b = -rho^2 and b'
        b, db = -rule.rho2, -2.0 * rho

    def times_b(f, df):
        """d/d(beta B) of (f, f'): (b f, (b f)')."""
        return b * f, b * df + db * f

    first = [times_b(*rows) if name == "beta" else pair(name)
             for name in names]
    pairs = [(i, j) for i in range(len(names)) for j in range(i, len(names))]
    second = [times_b(*first[j]) if names[i] == "beta" else
              times_b(*first[i]) if names[j] == "beta" else
              pair(names[i], names[j]) for i, j in pairs]
    return p, np.array([*rows, *(r for d in first + second for r in d)]), pairs


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
    """N, the numerators of the kinetic, Coulomb and Zeeman terms, E, and
    dE/dtheta and d2E/dtheta dphi for the coordinates theta, phi in ``wrt``
    (see ``energy_derivatives``).

    |grad psi|^2 = h^2 [f'^2 - 2 alpha f f' rho/r + alpha^2 f^2] with
    h = exp(-alpha r), so N = sum f^2 m_1, K = sum (f'^2 + alpha^2 f^2) m_1
    - 2 alpha sum f f' m_{rho/r}, V = sum f^2 (B^2 rho^2/8 m_1 - m_{1/r})
    and E = (K/2 + V)/N, exact for the rule's nodes and weights.  K/2 + V
    and N are quadratic forms A and M in (f, f'); with L = A - E M at E held
    fixed, N E_theta = L_theta and N E_theta,phi = L_theta,phi
    - E_theta N_phi - E_phi N_theta.  The coordinates other than alpha act
    on f alone: L_theta = 2 L(f, f_theta) and L_theta,phi = 2 L(f_theta,
    f_phi) + 2 L(f, f_theta,phi).  alpha acts through the explicit alpha in
    K and through the moments, dm_c/dalpha = -2 m_{r c}.  Each term is a
    sum of u v m over the nodes for a moment row m and rows u, v of
    ``_radial_factor``: two products form all but two of them, u in
    (f, f') against every row v, and u, v both first derivatives.  Two
    more sums serve d2E/dalpha2 alone; the rest is scalar algebra.
    """
    a = params.alpha
    moments = _moment_rows(a, rule)
    _, rows, pairs = _radial_factor(params, cfg, rule, wrt)
    # s[u][v][m] = sum over the nodes of rows[u] rows[v] moments[m], u < 2
    s = ((rows[:2, None] * rows[None]) @ moments.T).tolist()
    ff, fdf, dfdf = s[0][0], s[0][1], s[1][1]
    norm = ff[M1]
    kinetic = 0.5 * (dfdf[M1] + a * a * norm) - a * fdf[M_RHO]
    coulomb = -ff[M_INV_R] if cfg.coulomb_on else 0.0
    z = cfg.B**2 / 8.0
    zeeman = z * ff[R2_M1]
    # A norm that underflows to 0 gives a non-finite E, as in numpy.
    inv_norm = 1.0 / norm if norm else math.inf
    e = (kinetic + coulomb + zeeman) * inv_norm
    if not wrt:
        return norm, kinetic, coulomb, zeeman, e, [], []
    names = [name for name in wrt if name != "alpha"]
    cz = 1.0 if cfg.coulomb_on else 0.0

    def lag(b, i, j):
        """L(u, v) for u, v the functions of row pairs i and j of b."""
        b00, b01, b10, b11 = b[i][j], b[i][j + 1], b[i + 1][j], b[i + 1][j + 1]
        return (0.5 * (b11[M1] + a * a * b00[M1])
                - 0.5 * a * (b01[M_RHO] + b10[M_RHO])
                + z * b00[R2_M1] - cz * b00[M_INV_R] - e * b00[M1])

    def lag_alpha(j):
        """dL(f, v)/dalpha and dM(f, v)/dalpha, v of the row pair from j."""
        b00, b01, b10, b11 = s[0][j], s[0][j + 1], s[1][j], s[1][j + 1]
        dm1 = -2.0 * b00[M_R0] - b00[M1] / a
        return (-b11[M_R0] - 0.5 * b11[M1] / a + a * b00[M1]
                + (0.5 * a * a - e) * dm1
                - 0.5 * (b01[M_RHO] + b10[M_RHO])
                + a * (b01[RHO_M1] + b10[RHO_M1])
                - z * (2.0 * b00[R2_MR0] + b00[R2_M1] / a)
                + 2.0 * cz * b00[M1]), dm1

    def d2m1(b):
        """b against d2m_1/dalpha^2 = 4 m_{r^2}: m_{r^2} = 2 rho^3 times
        -K0'''(2 alpha rho) = rho^2 m_1 + M_R0/2 alpha + m_1/2 alpha^2."""
        return 4.0 * b[R2_M1] + 2.0 * (b[M_R0] + b[M1] / a) / a

    # t[u][v][m]: the same sums for rows[2 + u], rows[2 + v] the first
    # derivatives
    d1 = rows[2:2 + 2 * len(names)]
    t = ((d1[:, None] * d1[None]) @ moments.T).tolist()
    # each parameter's row pair among the first derivatives, None for
    # alpha; the columns in s of those row pairs and of the second's
    at = [None if name == "alpha" else names.index(name) for name in wrt]
    col = [2 + 2 * n for n in range(len(names))]
    col2 = {key: 2 * (1 + len(names) + n) for n, key in enumerate(pairs)}
    dl_dn = [lag_alpha(0) if i is None else (2.0 * lag(s, 0, col[i]),
                                             2.0 * s[0][col[i]][M1])
             for i in at]
    grad = [dl * inv_norm for dl, _ in dl_dn]
    hess = [[0.0] * len(wrt) for _ in wrt]
    for i, ri in enumerate(at):
        for j in range(i, len(wrt)):
            rj = at[j]
            if ri is None and rj is None:
                # d2m_{rho/r} = 4 rho m_r and d2(rho^2 m_1) = 4 rho^2 m_{r^2}
                # need sum f f' rho M_R0 and sum f^2 rho^4 m_1, which no
                # other term does: they are summed here, not in the product
                f, df = rows[0], rows[1]
                f_df_rho_mr0 = float((f * df * rule.rho) @ moments[M_R0])
                f2_rho4_m1 = float((f * f * rule.rho2) @ moments[R2_M1])
                d2l = (0.5 * d2m1(dfdf) + norm + 2.0 * a * dl_dn[i][1]
                       + (0.5 * a * a - e) * d2m1(ff)
                       + 2.0 * fdf[RHO_M1] - 4.0 * a * f_df_rho_mr0
                       + z * (4.0 * f2_rho4_m1
                              + 2.0 * (ff[R2_MR0] + ff[R2_M1] / a) / a)
                       - cz * (4.0 * ff[M_R0] + 2.0 * norm / a))
            elif ri is None or rj is None:
                d2l = 2.0 * lag_alpha(col[rj if ri is None else ri])[0]
            else:
                d2l = 2.0 * (lag(t, 2 * ri, 2 * rj)
                             + lag(s, 0, col2[ri, rj]))
            hess[i][j] = hess[j][i] = (d2l - grad[i] * dl_dn[j][1]
                                       - grad[j] * dl_dn[i][1]) * inv_norm
    return norm, kinetic, coulomb, zeeman, e, grad, hess


def energy(params: TrialParams, cfg: SystemConfig, spec: QuadratureSpec,
           rule: FixedRule | None = None) -> EnergyBreakdown:
    """Term-by-term Rayleigh quotient for the (m=0, p=0) trial state: the
    moment sums of ``energy_derivatives`` on ``rule_for(params, cfg, spec,
    rule)``.

    Raises ValueError for parameters outside the admissible set, and
    ArithmeticError where no rule resolves E (``rule_for``), for a norm
    that is not finite and positive, or for a total that is not finite.
    """
    check_admissible(vars(params), cfg)
    rule = rule_for(params, cfg, spec, rule)
    norm, kinetic, coulomb, zeeman = _rayleigh_sums(params, cfg, rule,
                                                    ())[:4]
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


def energy_derivatives(params: TrialParams, cfg: SystemConfig,
                       rule: FixedRule, wrt: tuple[str, ...]
                       ) -> tuple[float, list[float], list[list[float]]]:
    """Rayleigh quotient E on a fixed rule, dE/dtheta and the Hessian
    d2E/dtheta dphi for theta, phi in ``wrt``, from the sums of
    ``_rayleigh_sums``.  The coordinates are the solver's: alpha, beta*B
    for "beta", ln nu for "nu", and gamma."""
    return _rayleigh_sums(params, cfg, rule, wrt)[4:]


def observables(params: TrialParams, cfg: SystemConfig, spec: QuadratureSpec,
                rule: FixedRule | None = None) -> Observables:
    """<rho>, <|z|>, their ratio, position-space Shannon entropy and cusp,
    from the moment rows on the rule ``energy`` takes, ``rule_for(params,
    cfg, spec, rule)``, which raises ArithmeticError where none resolves E.

    The density is f^2 h^2 / N with N = sum f^2 m_1, so <rho> = sum f^2 rho
    m_1 / N, <|z|> = sum f^2 m_|z| / N with m_|z| = int |z| h^2 dz times the
    node weight w, = exp(-a rho) (w rho/a + w/a^2), a = 2 alpha, and
    S = -<ln(f^2 h^2 / N)> = ln N - (2/N) sum f^2 ln f m_1 + (2 alpha/N)
    sum f^2 m_r, where sum f^2 m_r = sum f^2 M_R0 + N / (2 alpha).
    """
    rule = rule_for(params, cfg, spec, rule)
    moments = _moment_rows(params.alpha, rule)
    m1 = moments[M1]
    p, (f, _), _ = _radial_factor(params, cfg, rule, ())
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

"""Rayleigh quotient, term breakdown and derived observables.

psi = f(rho) exp(-alpha r), so every integral the energy and the
observables need is a sum over the radial nodes of f, f' and a few per-row
moments of exp(-2 alpha r) on a ``FixedRule``.  ``energy`` and
``observables`` take them on the rule adapted to their parameters, and
``energy_gradient`` on a rule held fixed for one solve.  No 2-D field of psi
is formed; ``trialfn.evaluate`` serves as the tests' node-by-node oracle.
The kinetic energy uses the gradient form (1/2) int |grad psi|^2, which is
equivalent to -psi Lap psi / 2 under the Dirichlet wall and avoids second
derivatives of the cut-off factor.  All expectation values are taken with
the density normalized on the quadrature grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from .quadrature import QuadratureSpec, cylinder_grid
from .specfun import landau_cylinder_energy
from .trialfn import SystemConfig, TrialParams, check_admissible
# perfbench/tracing.py patches this name; nothing in the package calls it.
from .trialfn import evaluate  # noqa: F401

__all__ = [
    "EnergyBreakdown",
    "Observables",
    "adapted_spec",
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


def adapted_spec(spec: QuadratureSpec, params: TrialParams,
                 cfg: SystemConfig) -> QuadratureSpec:
    """Retarget the mapping scales to the current orbital extent.

    The axial scale follows the Coulomb decay 1/alpha.  Radially (rho0 =
    inf only) the density extent is set by whichever of the Coulomb length
    1/alpha and the magnetic length 2/sqrt(B) is *smaller*, since the
    Gaussian always wins at large rho.
    """
    z_scale = 1.0 / params.alpha
    rho_scale = spec.rho_scale
    if math.isinf(cfg.rho0):
        rho_scale = z_scale
        if cfg.B > 0 and params.beta > 0:
            rho_scale = min(rho_scale, 2.0 / math.sqrt(cfg.B))
    return replace(spec, z_scale=z_scale, rho_scale=rho_scale)


@dataclass(frozen=True)
class FixedRule:
    """A quadrature rule with its parameter-free arrays, held fixed for one
    solve or built for one ``energy`` or ``observables`` call.

    psi = f(rho) h with h = exp(-alpha*r), so every integral the energy
    needs is a sum over the radial nodes of f, f' and the per-row moments
    m_c(rho_i) = sum_j W_ij exp(-2 alpha r_ij) c_ij.  ``stack`` holds
    W * c for c = 1, rho/r, r and, with the Coulomb term on, 1/r, as an
    (n_rho, k, n_z) array.
    """

    rho: np.ndarray       # radial nodes
    z: np.ndarray         # axial nodes, all positive
    x: np.ndarray | None  # rho/rho0 at finite rho0
    ln_x: np.ndarray | None
    zeeman: np.ndarray    # B^2 rho^2 / 8 on the radial nodes
    r: np.ndarray         # (n_rho, n_z)
    stack: np.ndarray


def fixed_rule(params: TrialParams, cfg: SystemConfig,
               spec: QuadratureSpec) -> FixedRule:
    """The rule ``energy`` uses at ``params``, to hold fixed for a solve."""
    R, Z, W = cylinder_grid(cfg.rho0, adapted_spec(spec, params, cfg))
    rho = R[:, 0]
    r = np.hypot(R, Z)
    columns = [W, W * (R / r), W * r]
    if cfg.coulomb_on:
        columns.append(W / r)
    x = None if math.isinf(cfg.rho0) else rho / cfg.rho0
    return FixedRule(rho=rho, z=Z[0], x=x,
                     ln_x=None if x is None else np.log(x),
                     zeeman=(cfg.B**2 / 8.0) * rho**2, r=r,
                     stack=np.stack(columns, axis=1))


def _radial_factor(params: TrialParams, cfg: SystemConfig, rule: FixedRule,
                   wrt: tuple[str, ...]):
    """The prefactor p(rho), f = p exp(-beta*B*rho^2) and f' on the radial
    nodes, with (df/dtheta, df'/dtheta) for each theta in ``wrt`` other than
    alpha."""
    rho = rule.rho
    B = cfg.B
    gauss = np.exp(-params.beta * B * rho**2)
    dlog = -2.0 * params.beta * B * rho
    if rule.x is None:
        g = 0.0 if params.gamma is None else params.gamma
        p, dp = 1.0 + g**2 * rho**2, 2.0 * g**2 * rho
    else:
        x_nu1 = rule.x ** (params.nu - 1.0)
        p, dp = 1.0 - x_nu1 * rule.x, -(params.nu / cfg.rho0) * x_nu1
    f = p * gauss
    df = (dp + p * dlog) * gauss

    def prefactor_term(q, dq):
        # p moves by q = dp/dtheta, and p' by dq.
        return q * gauss, (dq + q * dlog) * gauss

    derivs = []
    for name in wrt:
        if name == "alpha":
            derivs.append(None)  # alpha enters through h alone
        elif name == "beta":
            derivs.append((-B * rho**2 * f,
                           -2.0 * B * rho * f - B * rho**2 * df))
        elif name == "nu":
            derivs.append(prefactor_term(
                -x_nu1 * rule.x * rule.ln_x,
                -(x_nu1 / cfg.rho0) * (params.nu * rule.ln_x + 1.0)))
        elif name == "gamma":
            derivs.append(prefactor_term(2.0 * g * rho**2, 4.0 * g * rho))
        else:
            raise ValueError(f"unknown parameter name: {name!r}")
    return p, f, df, derivs


def _moments(params: TrialParams, cfg: SystemConfig, rule: FixedRule,
             wrt: tuple[str, ...]):
    """The rule's moments m_c per radial node (an (n_rho, k) array, columns
    as in ``stack``) at ``params.alpha``, h^2 = exp(-2 alpha r) on the nodes,
    and ``_radial_factor``."""
    h2 = np.exp(-2.0 * params.alpha * rule.r)
    m = np.matmul(rule.stack, h2[:, :, None])[:, :, 0]
    return (m, h2, *_radial_factor(params, cfg, rule, wrt))


def energy(params: TrialParams, cfg: SystemConfig,
           spec: QuadratureSpec) -> EnergyBreakdown:
    """Term-by-term Rayleigh quotient for the (m=0, p=0) trial state: the
    moment sums of ``energy_gradient`` on the rule adapted to ``params``.

    Raises ValueError for parameters outside the admissible set, and
    ArithmeticError for a norm that is not finite and positive or a total
    that is not finite.
    """
    check_admissible(asdict(params), cfg)
    rule = fixed_rule(params, cfg, spec)
    m, _, _, f, df, _ = _moments(params, cfg, rule, ())
    m1 = m[:, 0]
    f2 = f * f
    norm = float(f2 @ m1)
    if not (math.isfinite(norm) and norm > 0):
        raise ArithmeticError(f"trial norm {norm:g} on the quadrature grid "
                              f"at {params}")

    a = params.alpha
    kinetic = float(0.5 * ((df * df + a * a * f2) @ m1)
                    - a * ((f * df) @ m[:, 1])) / norm
    coulomb = -float(f2 @ m[:, 3]) / norm if cfg.coulomb_on else 0.0
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

    |grad psi|^2 = h^2 [f'^2 - 2 alpha f f' rho/r + alpha^2 f^2], so
    N = sum f^2 m_1, K = sum (f'^2 + alpha^2 f^2) m_1 - 2 alpha sum f f'
    m_{rho/r}, V = sum f^2 (B^2 rho^2/8 m_1 - m_{1/r}) and E = (K/2 + V)/N,
    exact for the rule's nodes and weights.  Besides the explicit alpha in
    K, d/dalpha acts on the moments alone (dm_1 = -2 m_r, dm_{rho/r} =
    -2 rho m_1, dm_{1/r} = -2 m_1), and the other parameters act on f and f'
    alone.  One n_rho x n_z exp per call; the rest is O(n_rho).
    """
    a = params.alpha
    m, _, _, f, df, derivs = _moments(params, cfg, rule, wrt)
    m1, m_rho, m_r = m[:, 0], m[:, 1], m[:, 2]
    f2 = f * f
    f_df = f * df
    grad2 = df * df + a * a * f2
    u = rule.zeeman * m1
    if cfg.coulomb_on:
        u = u - m[:, 3]
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


def observables(params: TrialParams, cfg: SystemConfig,
                spec: QuadratureSpec) -> Observables:
    """<rho>, <|z|>, their ratio, position-space Shannon entropy and cusp,
    from radial moments on the rule ``energy`` builds at ``params``.

    The density is f^2 h^2 / N with N = sum f^2 m_1, so <rho> = sum f^2 rho
    m_1 / N, <|z|> = sum f^2 m_|z| / N with m_|z| = sum_j W_ij h^2_ij z_j,
    and S = -<ln(f^2 h^2 / N)> = ln N - (2/N) sum f^2 ln f m_1
    + (2 alpha/N) sum f^2 m_r.
    """
    rule = fixed_rule(params, cfg, spec)
    m, h2, p, f, _, _ = _moments(params, cfg, rule, ())
    m1, m_r = m[:, 0], m[:, 2]
    m_abs_z = (rule.stack[:, 0] * h2) @ rule.z
    f2 = f * f
    norm = float(f2 @ m1)

    # ln f = ln p - beta B rho^2, never log(f): f underflows to 0 at outer
    # nodes, where f^2 ln f -> 0.
    ln_f = np.log(p) - params.beta * cfg.B * rule.rho**2

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

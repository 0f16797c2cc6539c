"""Rayleigh quotient, term breakdown and derived observables.

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
from .trialfn import (Geometry, SystemConfig, TrialParams, check_admissible,
                      evaluate, sample)

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


def _fields(params: TrialParams, cfg: SystemConfig, spec: QuadratureSpec):
    spec = adapted_spec(spec, params, cfg)
    R, Z, W = cylinder_grid(cfg.rho0, spec)
    sample = evaluate(params, cfg, R, Z)
    return R, Z, W, sample


def energy(params: TrialParams, cfg: SystemConfig,
           spec: QuadratureSpec) -> EnergyBreakdown:
    """Term-by-term Rayleigh quotient for the (m=0, p=0) trial state.

    Raises ValueError for parameters outside the admissible set, and
    ArithmeticError for a norm that is not finite and positive or a total
    that is not finite.
    """
    check_admissible(asdict(params), cfg)
    R, Z, W, s = _fields(params, cfg, spec)
    psi2 = s.psi**2
    norm = float(np.sum(W * psi2))
    if not (math.isfinite(norm) and norm > 0):
        raise ArithmeticError(f"trial norm {norm:g} on the quadrature grid "
                              f"at {params}")

    kinetic = 0.5 * float(np.sum(W * (s.dpsi_drho**2 + s.dpsi_dz**2))) / norm
    if cfg.coulomb_on:
        r = np.hypot(R, Z)
        coulomb = -float(np.sum(W * psi2 / r)) / norm
    else:
        coulomb = 0.0
    zeeman_quadratic = (cfg.B**2 / 8.0) * float(np.sum(W * psi2 * R**2)) / norm
    total = kinetic + coulomb + zeeman_quadratic
    if not math.isfinite(total):
        raise ArithmeticError(f"non-finite energy {total} at {params}")
    return EnergyBreakdown(kinetic=kinetic, coulomb=coulomb,
                           zeeman_quadratic=zeeman_quadratic,
                           total=total, norm=norm)


@dataclass(frozen=True)
class FixedRule:
    """A quadrature rule held fixed for one solve, with the parameter-free
    arrays on its nodes: weights, geometry and the potential U."""

    weights: np.ndarray
    geom: Geometry
    potential: np.ndarray


def fixed_rule(params: TrialParams, cfg: SystemConfig,
               spec: QuadratureSpec) -> FixedRule:
    """The rule ``energy`` would use at ``params``, frozen."""
    R, Z, W = cylinder_grid(cfg.rho0, adapted_spec(spec, params, cfg))
    geom = Geometry(cfg, R, Z)
    potential = (cfg.B**2 / 8.0) * geom.rho2
    if cfg.coulomb_on:
        potential = potential - 1.0 / geom.r
    return FixedRule(weights=W, geom=geom, potential=potential)


def energy_gradient(params: TrialParams, cfg: SystemConfig, rule: FixedRule,
                    wrt: tuple[str, ...]) -> tuple[float, np.ndarray]:
    """Rayleigh quotient E on a fixed rule and dE/dtheta for theta in ``wrt``.

    With N = int psi^2, dE/dtheta = [int grad psi . grad(d psi)
    + 2 int psi d psi (U - E)] / N, exact for the rule's nodes and weights.
    """
    s, derivs = sample(params, cfg, rule.geom, wrt)
    w_psi = rule.weights * s.psi
    w_drho = rule.weights * s.dpsi_drho
    w_dz = rule.weights * s.dpsi_dz
    norm = np.vdot(w_psi, s.psi)
    e = (0.5 * (np.vdot(w_drho, s.dpsi_drho) + np.vdot(w_dz, s.dpsi_dz))
         + np.vdot(w_psi * rule.potential, s.psi)) / norm
    w_u = 2.0 * w_psi * (rule.potential - e)
    grad = np.array([np.vdot(w_drho, d.dpsi_drho) + np.vdot(w_dz, d.dpsi_dz)
                     + np.vdot(w_u, d.psi) for d in derivs]) / norm
    return float(e), grad


def observables(params: TrialParams, cfg: SystemConfig,
                spec: QuadratureSpec) -> Observables:
    """<rho>, <|z|>, their ratio, position-space Shannon entropy and cusp."""
    R, Z, W, s = _fields(params, cfg, spec)
    psi2 = s.psi**2
    norm = float(np.sum(W * psi2))
    dens = psi2 / norm

    mean_rho = float(np.sum(W * dens * R))
    mean_abs_z = float(np.sum(W * dens * np.abs(Z)))
    # rho ln rho -> 0 at the wall; underflowed densities contribute 0.
    ln_dens = np.where(dens > 0, np.log(np.where(dens > 0, dens, 1.0)), 0.0)
    shannon_r = -float(np.sum(W * dens * ln_dens))
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

"""Trial wavefunction for the cylindrically confined hydrogen atom.

The confined ansatz (ground state, m = 0, p = 0) is

    psi(rho, z) = [1 - (rho/rho0)^nu] * exp(-alpha*r - beta*B*rho^2),
    r = sqrt(rho^2 + z^2),

which vanishes on the cylinder wall.  For rho0 = inf the cut-off factor is
replaced by the polynomial prefactor (1 + gamma^2 rho^2).  Amplitudes are
real; analytic first derivatives are provided for the gradient-form kinetic
energy, and their derivatives in the parameters for the energy gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "TrialParams",
    "SystemConfig",
    "admissible_bounds",
    "check_admissible",
    "WavefunctionSample",
    "Geometry",
    "sample",
    "evaluate",
    "density",
]


@dataclass(frozen=True)
class TrialParams:
    """Variational parameters of the trial state.

    ``gamma`` selects the unconfined (rho0 = inf) variant when present.
    """

    alpha: float
    beta: float = 0.0
    nu: float = 2.0
    gamma: float | None = None


@dataclass(frozen=True)
class SystemConfig:
    """Physical setting: field strength, cavity radius, Coulomb term on/off."""

    B: float = 0.0
    rho0: float = math.inf
    coulomb_on: bool = True

    def __post_init__(self):
        if self.B < 0:
            raise ValueError("B must be non-negative")
        if not self.rho0 > 0:
            raise ValueError("rho0 must be positive (possibly inf)")


def admissible_bounds(cfg: SystemConfig) -> dict[str, tuple[float, bool]]:
    """The admissible set in ``cfg``: (lower bound, strict) per bounded
    parameter.  alpha > 0 (psi normalizable along z), nu >= 1, and, unconfined
    in a field, beta > 0 (the Landau factor normalizable radially)."""
    bounds = {"alpha": (0.0, True), "nu": (1.0, False)}
    if math.isinf(cfg.rho0) and cfg.B > 0:
        bounds["beta"] = (0.0, True)
    return bounds


def check_admissible(values: Mapping[str, float | None],
                     cfg: SystemConfig) -> None:
    """Raise ValueError naming the first value outside the admissible set;
    a value of None is unset, beta enters only as beta*B and so is 0 at
    B = 0, and gamma applies only at rho0 = inf."""
    for name, (low, strict) in admissible_bounds(cfg).items():
        v = values.get(name)
        if v is not None and not (v > low if strict else v >= low):
            raise ValueError(f"{name} = {v:g} is not admissible: the trial "
                             f"state needs {name} {'>' if strict else '>='} "
                             f"{low:g}")
    beta = values.get("beta")
    if cfg.B == 0 and beta is not None and beta != 0:
        raise ValueError(f"beta = {beta:g} is not admissible: beta enters "
                         f"only as beta*B, so at B = 0 it must be 0")
    if values.get("gamma") is not None and not math.isinf(cfg.rho0):
        raise ValueError("gamma only applies to the rho0 = inf variant")


@dataclass(frozen=True)
class WavefunctionSample:
    psi: np.ndarray
    dpsi_drho: np.ndarray
    dpsi_dz: np.ndarray


class Geometry:
    """Parameter-free arrays at a set of points (rho, z) in the cavity.

    Built once per node set and shared by every trial state evaluated on
    it.  Raises ValueError if any rho lies outside the cavity.
    """

    def __init__(self, cfg: SystemConfig, rho, z):
        rho = np.asarray(rho, dtype=float)
        z = np.asarray(z, dtype=float)
        if np.any(rho > cfg.rho0):
            raise ValueError("rho exceeds the cavity radius rho0")
        self.rho0 = cfg.rho0
        self.rho = rho
        self.rho2 = rho**2
        self.r = np.hypot(rho, z)
        # rho/r and z/r are bounded; define them as 0 at the origin (the
        # derivative there only ever enters integrals with weight rho).
        with np.errstate(invalid="ignore", divide="ignore"):
            nonzero = np.where(self.r > 0, self.r, 1.0)
            self.rho_over_r = np.where(self.r > 0, rho / nonzero, 0.0)
            self.z_over_r = np.where(self.r > 0, z / nonzero, 0.0)
        self.x = None if math.isinf(cfg.rho0) else rho / cfg.rho0

    @cached_property
    def ln_x(self) -> np.ndarray:
        """ln(rho/rho0), needed only for the derivative in nu."""
        with np.errstate(divide="ignore"):
            return np.log(self.x)


def sample(params: TrialParams, cfg: SystemConfig, geom: Geometry,
           wrt: Sequence[str] = ()):
    """Amplitude and spatial partials on ``geom``, plus the same three
    arrays differentiated with respect to each parameter named in ``wrt``.

    Returns ``(sample, [d sample / d theta for theta in wrt])``.
    """
    B = cfg.B
    expo = np.exp(-params.alpha * geom.r - params.beta * B * geom.rho2)
    dlog_drho = (-params.alpha * geom.rho_over_r
                 - 2.0 * params.beta * B * geom.rho)
    dlog_dz = -params.alpha * geom.z_over_r

    if geom.x is None:
        g = 0.0 if params.gamma is None else params.gamma
        pref = 1.0 + g**2 * geom.rho2
        dpref = 2.0 * g**2 * geom.rho
    else:
        x_nu1 = geom.x ** (params.nu - 1.0)
        pref = 1.0 - x_nu1 * geom.x
        dpref = -(params.nu / geom.rho0) * x_nu1

    psi = pref * expo
    dpsi_drho = (dpref + pref * dlog_drho) * expo
    dpsi_dz = pref * dlog_dz * expo
    s = WavefunctionSample(psi=psi, dpsi_drho=dpsi_drho, dpsi_dz=dpsi_dz)

    def exponent_term(q, dq_drho, dq_dz):
        # theta enters the exponent with d(exponent)/d(theta) = q, so
        # d(psi)/d(theta) = q psi and its partials follow by the product rule.
        return WavefunctionSample(psi=q * psi,
                                  dpsi_drho=q * dpsi_drho + dq_drho * psi,
                                  dpsi_dz=q * dpsi_dz + dq_dz * psi)

    def prefactor_term(q, dq_drho):
        # psi = pref * expo with d(pref)/d(theta) = q.
        return WavefunctionSample(psi=q * expo,
                                  dpsi_drho=(dq_drho + q * dlog_drho) * expo,
                                  dpsi_dz=q * dlog_dz * expo)

    derivs = []
    for name in wrt:
        if name == "alpha":
            derivs.append(exponent_term(-geom.r, -geom.rho_over_r,
                                        -geom.z_over_r))
        elif name == "beta":
            derivs.append(exponent_term(-B * geom.rho2, -2.0 * B * geom.rho,
                                        0.0))
        elif name == "nu":
            q = -x_nu1 * geom.x * geom.ln_x
            dq = -(x_nu1 / geom.rho0) * (params.nu * geom.ln_x + 1.0)
            derivs.append(prefactor_term(q, dq))
        elif name == "gamma":
            derivs.append(prefactor_term(2.0 * g * geom.rho2,
                                         4.0 * g * geom.rho))
        else:
            raise ValueError(f"unknown parameter name: {name!r}")
    return s, derivs


def evaluate(params: TrialParams, cfg: SystemConfig, rho, z) -> WavefunctionSample:
    """Amplitude and analytic partials at (rho, z); accepts ndarrays.

    Raises ValueError if any rho lies outside the cavity.
    """
    return sample(params, cfg, Geometry(cfg, rho, z))[0]


def density(params: TrialParams, cfg: SystemConfig, rho, z):
    """Unnormalized probability density psi^2."""
    return evaluate(params, cfg, rho, z).psi ** 2

"""Trial wavefunction for the cylindrically confined hydrogen atom.

The confined ansatz (ground state, m = 0, p = 0) is

    psi(rho, z) = [1 - (rho/rho0)^nu] * exp(-alpha*r - beta*B*rho^2),
    r = sqrt(rho^2 + z^2),

which vanishes on the cylinder wall.  For rho0 = inf the cut-off factor is
replaced by the polynomial prefactor (1 + gamma^2 rho^2).  Amplitudes are
real; analytic first derivatives are provided for the gradient-form kinetic
energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TrialParams",
    "SystemConfig",
    "WavefunctionSample",
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

    def is_valid(self) -> bool:
        """Admissibility: alpha > 0 for z-normalizability and nu >= 1."""
        return self.alpha > 0.0 and self.nu >= 1.0


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


@dataclass(frozen=True)
class WavefunctionSample:
    psi: np.ndarray
    dpsi_drho: np.ndarray
    dpsi_dz: np.ndarray


def evaluate(params: TrialParams, cfg: SystemConfig, rho, z) -> WavefunctionSample:
    """Amplitude and analytic partials at (rho, z); accepts ndarrays.

    Raises ValueError if any rho lies outside the cavity.
    """
    rho = np.asarray(rho, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(rho > cfg.rho0):
        raise ValueError("rho exceeds the cavity radius rho0")

    r = np.hypot(rho, z)
    # rho/r and z/r are bounded; define them as 0 at the origin (the
    # derivative there only ever enters integrals with weight rho).
    with np.errstate(invalid="ignore", divide="ignore"):
        rho_over_r = np.where(r > 0, rho / np.where(r > 0, r, 1.0), 0.0)
        z_over_r = np.where(r > 0, z / np.where(r > 0, r, 1.0), 0.0)

    expo = np.exp(-params.alpha * r - params.beta * cfg.B * rho**2)
    dlog_drho = -params.alpha * rho_over_r - 2.0 * params.beta * cfg.B * rho
    dlog_dz = -params.alpha * z_over_r

    if math.isinf(cfg.rho0):
        g = 0.0 if params.gamma is None else params.gamma
        pref = 1.0 + g**2 * rho**2
        dpref = 2.0 * g**2 * rho
    else:
        x = rho / cfg.rho0
        pref = 1.0 - x**params.nu
        dpref = -(params.nu / cfg.rho0) * x ** (params.nu - 1.0)

    psi = pref * expo
    dpsi_drho = (dpref + pref * dlog_drho) * expo
    dpsi_dz = pref * dlog_dz * expo
    return WavefunctionSample(psi=psi, dpsi_drho=dpsi_drho, dpsi_dz=dpsi_dz)


def density(params: TrialParams, cfg: SystemConfig, rho, z):
    """Unnormalized probability density psi^2."""
    return evaluate(params, cfg, rho, z).psi ** 2


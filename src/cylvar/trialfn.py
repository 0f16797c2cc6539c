"""Trial wavefunction for the cylindrically confined hydrogen atom.

The confined ansatz (ground state, m = 0, p = 0) is

    psi(rho, z) = [1 - (rho/rho0)^nu] * exp(-alpha*r - beta*B*rho^2),
    r = sqrt(rho^2 + z^2),

which vanishes on the cylinder wall.  For rho0 = inf the cut-off factor is
replaced by the polynomial prefactor (1 + gamma^2 rho^2).  Amplitudes are
real.  ``evaluate`` gives psi and its analytic first derivatives node by
node; no program path calls it.  It is the tests' independent check of the
moment form in ``hamiltonian``: the gradient-form kinetic energy, the other
energy terms and the observables as 2-D sums over a graded tensor grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "TrialParams",
    "SystemConfig",
    "admissible_bounds",
    "check_admissible",
    "WavefunctionSample",
    "evaluate",
]


@dataclass(frozen=True)
class TrialParams:
    """Variational parameters of the trial state.

    ``gamma`` acts only in the unconfined variant, which rho0 = inf
    selects; None means 0.
    """

    alpha: float
    beta: float = 0.0
    nu: float = 2.0
    gamma: float | None = None


# The field range: the solver steps in beta*B, and beta = (beta*B)/B
# overflows for ordinary Gaussian widths once B nears the smallest normal;
# the Zeeman term holds B^2, a double below 2^1022.
_MIN_FIELD, _MAX_FIELD = 1e-300, 2.0**511


@dataclass(frozen=True)
class SystemConfig:
    """Physical setting: field strength, cavity radius, Coulomb term on/off."""

    B: float = 0.0
    rho0: float = math.inf
    coulomb_on: bool = True

    def __post_init__(self):
        if not (self.B == 0 or _MIN_FIELD <= self.B < _MAX_FIELD):
            raise ValueError(f"B = {self.B!r} must be 0 or in "
                             f"[{_MIN_FIELD:g}, {_MAX_FIELD:.3g}), where "
                             f"beta = (beta*B)/B and B^2 stay finite")
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
    a value of None is unset, every other value is finite, beta enters only
    as beta*B and so is 0 at B = 0, and gamma applies only at rho0 = inf."""
    for name, v in values.items():
        if v is not None and not math.isfinite(v):
            raise ValueError(f"{name} = {v:g} is not admissible: the trial "
                             f"state needs a finite {name}")
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
    gamma = values.get("gamma")
    if gamma is not None and not math.isinf(cfg.rho0):
        raise ValueError(f"gamma = {gamma:g} is not admissible: gamma "
                         f"applies only at rho0 = inf")


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
    rho2 = rho**2
    r = np.hypot(rho, z)
    # rho/r and z/r are bounded; define them as 0 at the origin (the
    # derivative there only ever enters integrals with weight rho).
    with np.errstate(invalid="ignore", divide="ignore"):
        nonzero = np.where(r > 0, r, 1.0)
        rho_over_r = np.where(r > 0, rho / nonzero, 0.0)
        z_over_r = np.where(r > 0, z / nonzero, 0.0)

    B = cfg.B
    expo = np.exp(-params.alpha * r - params.beta * B * rho2)
    dlog_drho = -params.alpha * rho_over_r - 2.0 * params.beta * B * rho
    dlog_dz = -params.alpha * z_over_r

    if math.isinf(cfg.rho0):
        g = 0.0 if params.gamma is None else params.gamma
        pref = 1.0 + g**2 * rho2
        dpref = 2.0 * g**2 * rho
    else:
        x = rho / cfg.rho0
        x_nu1 = x ** (params.nu - 1.0)
        pref = 1.0 - x_nu1 * x
        dpref = -(params.nu / cfg.rho0) * x_nu1

    return WavefunctionSample(psi=pref * expo,
                              dpsi_drho=(dpref + pref * dlog_drho) * expo,
                              dpsi_dz=pref * dlog_dz * expo)

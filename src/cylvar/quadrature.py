"""Deterministic quadrature over the interior of an infinite cylinder.

All integrals are of the form

    2*pi * int_0^{rho0} int_{-inf}^{inf} f(rho, z) rho dz drho

for integrands that are even in z.  The radial direction uses Gauss-Legendre
on [0, rho0] (or a rationally mapped rule on [0, inf) for the unconfined
case) and the axial direction uses the same rational map on the half line,
doubled by parity.  Everything is pure: node tables are cached by order only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureSpec",
    "cylinder_grid",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and mapping scales for cylindrical integrals.

    ``z_scale`` sets the length scale of the rational map used on the
    semi-infinite axial domain; ``rho_scale`` plays the same role radially
    when rho0 is infinite.
    """

    n_rho: int = 64
    n_z: int = 64
    z_scale: float = 1.0
    rho_scale: float = 1.0

    def __post_init__(self):
        if self.n_rho < 8 or self.n_z < 8:
            raise ValueError("node counts must satisfy n_rho >= 8 and n_z >= 8")
        if not (self.z_scale > 0 and self.rho_scale > 0):
            raise ValueError("mapping scales must be positive")

    def refined(self) -> "QuadratureSpec":
        """Same mappings with both node counts doubled."""
        return QuadratureSpec(2 * self.n_rho, 2 * self.n_z,
                              self.z_scale, self.rho_scale)


@lru_cache(maxsize=64)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _nodes_finite(n: int, a: float, b: float):
    t, w = _leggauss(n)
    x = 0.5 * (b - a) * (t + 1.0) + a
    return x, 0.5 * (b - a) * w


def _nodes_semi_infinite(n: int, scale: float):
    # x = scale * u / (1 - u), u in (0, 1); dx = scale / (1 - u)^2 du
    t, w = _leggauss(n)
    u = 0.5 * (t + 1.0)
    du = 0.5 * w
    x = scale * u / (1.0 - u)
    return x, du * scale / (1.0 - u) ** 2


def cylinder_grid(rho0: float, spec: QuadratureSpec):
    """Tensor grid and combined weights for the cylinder integral.

    Returns ``(R, Z, W)`` with ``R``, ``Z`` of shape (n_rho, n_z) such that
    ``np.sum(W * f(R, Z))`` approximates the full 3D integral of an
    axially symmetric, z-even integrand (the 2*pi azimuthal factor, the
    rho Jacobian and the z-parity doubling are folded into ``W``).
    """
    if math.isinf(rho0):
        rho, w_rho = _nodes_semi_infinite(spec.n_rho, spec.rho_scale)
    else:
        rho, w_rho = _nodes_finite(spec.n_rho, 0.0, rho0)
    z, w_z = _nodes_semi_infinite(spec.n_z, spec.z_scale)
    R, Z = np.meshgrid(rho, z, indexing="ij")
    W = 2.0 * np.pi * np.outer(w_rho * rho, 2.0 * w_z)
    return R, Z, W

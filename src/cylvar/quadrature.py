"""Deterministic radial quadrature over the interior of an infinite cylinder.

For psi = f(rho) exp(-alpha r) the z integral of every term the energy and
the observables need is a modified Bessel function of 2 alpha rho (see
``hamiltonian``), so each integral is a 1-D sum

    2*pi * int_0^{rho_max} g(rho) rho drho

over radial nodes.  With t = (x + 1)/2 for Gauss-Legendre nodes x, the
nodes are graded by the cubic power map rho = rho_max t^3 (cf. Duffy, SIAM
J. Numer. Anal. 19, 1982): the map absorbs the logarithm of K0 at rho = 0
and the non-smooth (rho/rho0)^nu.  Node tables are cached by order only.
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
    """Radial node count.  ``n_z`` is unused: every z integral is taken in
    closed form."""

    n_rho: int = 64
    n_z: int = 64

    def __post_init__(self):
        if self.n_rho < 8:
            raise ValueError("node count must satisfy n_rho >= 8")

    def refined(self) -> "QuadratureSpec":
        """The same rule with the node counts doubled."""
        return QuadratureSpec(2 * self.n_rho, 2 * self.n_z)


@lru_cache(maxsize=64)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def cylinder_grid(rho_max: float, spec: QuadratureSpec):
    """Radial nodes on (0, rho_max) and their weights.

    Returns ``(rho, w)`` such that ``np.sum(w * g(rho))`` approximates
    2 pi int_0^rho_max g(rho) rho drho: the 2 pi azimuthal factor and the
    rho Jacobian are folded into ``w``.
    """
    if not math.isfinite(rho_max):
        raise ValueError(f"the radial rule needs a finite radius, not "
                         f"{rho_max}")
    x, w = _leggauss(spec.n_rho)
    t = 0.5 * (x + 1.0)
    rho = rho_max * t**3
    return rho, 2.0 * np.pi * rho * (1.5 * rho_max * t**2 * w)

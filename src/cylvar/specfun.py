"""Special functions for the electron-in-cylinder reference problem.

The reference (Coulomb-free) ground energy E0 of an electron in an axial
field B inside an impenetrable cylinder of radius rho0 is the lowest root of

    M(-(E0/B - 1/2), 1, B*rho0^2/2) = 0,

with M the Kummer confluent hypergeometric function.  In the B -> 0 limit
E0 reduces to the Dirichlet drum mode j01^2 / (2 rho0^2).
"""

from __future__ import annotations

import math

from scipy.optimize import brentq
from scipy.special import hyp1f1 as kummer_m
from scipy.special import jn_zeros

__all__ = ["kummer_m", "landau_cylinder_energy", "J01"]

J01 = float(jn_zeros(0, 1)[0])  # first positive zero of J0

_B_BESSEL_LIMIT = 1e-6


def landau_cylinder_energy(B: float, rho0: float) -> float:
    """Lowest E0 with a Dirichlet wall at rho0 and axial field B.

    Delegates to the Bessel drum limit for B <= 1e-6.  Otherwise the root
    lies in [max(B/2, drum), B/2 + drum] with drum = j01^2 / (2 rho0^2), and
    the Kummer function changes sign only once there.  Raises ValueError
    for rho0 = inf.
    """
    if math.isinf(rho0):
        raise ValueError("rho0 must be finite")
    drum = J01**2 / (2.0 * rho0**2)
    if B <= _B_BESSEL_LIMIT:
        return drum

    z = 0.5 * B * rho0**2
    def g(e0: float) -> float:
        return kummer_m(-(e0 / B - 0.5), 1.0, z)

    hi = 0.5 * B + drum
    if not math.isfinite(g(hi)):
        # hyp1f1 overflows for z above ~710, where the root lies within
        # z*exp(-z) of the Landau level.
        return 0.5 * B
    return float(brentq(g, max(0.5 * B, drum), hi, xtol=1e-12, rtol=1e-14))

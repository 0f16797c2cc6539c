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

# At z = B rho0^2 / 2 the field raises E0 above the drum mode by about
# 0.038 z^2 relative; at z <= 1e-8 that is below 4e-18, and the drum value
# matched 30-digit roots to within 1 ulp (z = 1e-10 to 1e-8).
_Z_DRUM_LIMIT = 1e-8


def landau_cylinder_energy(B: float, rho0: float) -> float:
    """Lowest E0 with a Dirichlet wall at rho0 and axial field B.

    Delegates to the Bessel drum limit for z = B rho0^2 / 2 <= 1e-8.
    Otherwise the root lies in [max(B/2, drum), B/2 + drum] with drum =
    j01^2 / (2 rho0^2), and the Kummer function changes sign only once
    there; it is found to 1e-14 of the bracket's top, or is the low end
    where the function has one sign at both ends.  At rho0 = inf the drum
    energy is 0 and E0 is the Landau level B/2.  Raises ValueError for a
    rho0 so small that the drum energy overflows a double.
    """
    r2 = rho0 * rho0
    drum = J01**2 / (2.0 * r2) if r2 > 0.0 else math.inf
    if not math.isfinite(drum):
        raise ValueError(
            f"rho0 = {rho0!r} is too small: the confinement energy "
            "j01^2 / (2 rho0^2) overflows a double")
    z = 0.5 * B * r2 if B else 0.0  # never 0 * inf
    if z <= _Z_DRUM_LIMIT:
        return drum

    def g(e0: float) -> float:
        return kummer_m(-(e0 / B - 0.5), 1.0, z)

    lo, hi = max(0.5 * B, drum), 0.5 * B + drum
    g_hi = g(hi)
    if not math.isfinite(g_hi):
        # hyp1f1 overflows for z above ~710, where the root lies within
        # z*exp(-z) of the Landau level.
        return 0.5 * B
    if g(lo) * g_hi > 0:  # E0 - lo is below rounding: g(lo) is noise
        return lo
    return float(brentq(g, lo, hi, xtol=1e-14 * hi,
                        rtol=1e-14))

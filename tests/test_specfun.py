import math

import mpmath
import numpy as np
import pytest

from cylvar.specfun import J01, kummer_m, landau_cylinder_energy

J01_TABLE = 2.404825557695773  # first zero of J0, standard tables


def test_kummer_closed_forms():
    assert kummer_m(0.3, 1.0, 0.0) == 1.0
    for z in (0.5, 2.0, 10.0):
        # M(a, a, z) = e^z
        assert kummer_m(1.0, 1.0, z) == pytest.approx(math.exp(z), rel=1e-14)
        # polynomial cases: M(-1, 1, z) = 1 - z, M(-2, 1, z) = 1 - 2z + z^2/2
        assert kummer_m(-1.0, 1.0, z) == pytest.approx(1.0 - z, rel=1e-14)
        assert kummer_m(-2.0, 1.0, z) == pytest.approx(
            1.0 - 2.0 * z + z**2 / 2.0, rel=1e-13)


def test_kummer_recurrence():
    # (b - a) M(a-1, b, z) + (2a - b + z) M(a, b, z) - a M(a+1, b, z) = 0
    b = 1.0
    for a in np.linspace(-10.0, 10.0, 21):
        for z in np.linspace(0.0, 20.0, 11):
            m0 = kummer_m(a - 1.0, b, z)
            m1 = kummer_m(a, b, z)
            m2 = kummer_m(a + 1.0, b, z)
            resid = (b - a) * m0 + (2.0 * a - b + z) * m1 - a * m2
            scale = max(abs(m0), abs(m1), abs(m2), 1.0)
            assert abs(resid) <= 1e-10 * scale


@pytest.mark.parametrize("B, rho0", [(2.0, 40.0), (1.0, 60.0),
                                     (2e16, 2.0), (2e13, 60.0)])
def test_large_z_is_the_landau_level(B, rho0):
    # z = B rho0^2 / 2 = 1600 and 1800: hyp1f1 overflows above z ~ 710,
    # where the root lies within z exp(-z) of B/2.  In the last two the drum
    # energy j01^2 / (2 rho0^2) is below the rounding of B/2, and the
    # bracket [B/2, B/2 + drum] is one double.
    assert landau_cylinder_energy(B, rho0) == 0.5 * B


def test_bessel_zero():
    assert J01 == pytest.approx(J01_TABLE, abs=1e-12)


def test_drum_limit_small_field():
    drum = J01_TABLE**2 / (2.0 * 2.0**2)
    assert landau_cylinder_energy(0.0, 2.0) == pytest.approx(drum, abs=1e-12)
    # above the delegation threshold the root must still sit on the drum mode
    assert landau_cylinder_energy(1e-5, 2.0) == pytest.approx(drum, abs=1e-6)


def test_root_above_landau_level():
    for B in (0.2, 0.6, 1.0):
        for rho0 in (1.0, 2.0, 5.0):
            e0 = landau_cylinder_energy(B, rho0)
            assert e0 > 0.5 * B


def test_root_lies_in_drum_landau_bracket():
    for B in (1e-3, 0.05, 0.3, 1.0, 2.0):
        for rho0 in (0.5, 0.8, 1.5, 3.0, 6.0, 12.0, 30.0):
            drum = J01**2 / (2.0 * rho0**2)
            e0 = landau_cylinder_energy(B, rho0)
            assert max(0.5 * B, drum) <= e0 <= 0.5 * B + drum


def _mpmath_root(B, rho0):
    """The same root at 30 digits, bisected for d = E0 - B/2 in the same
    bracket.  M is steeper than e^z/z in d near the root, so the residual
    test of findroot is replaced by a sign change across d +- 1e-25."""
    with mpmath.workdps(30):
        B, rho0 = mpmath.mpf(B), mpmath.mpf(rho0)
        z = B * rho0**2 / 2
        drum = mpmath.besseljzero(0, 1) ** 2 / (2 * rho0**2)

        def f(d):
            return mpmath.hyp1f1(-d / B, 1, z)

        d = mpmath.findroot(f, (max(0, drum - B / 2), drum), solver="bisect",
                            verify=False)
        eps = mpmath.mpf("1e-25")
        assert f(d - eps) > 0 > f(d + eps)
        return float(B / 2 + d)


@pytest.mark.parametrize("B, rho0", [
    (0.05, 2.0),     # z = 0.1, drum-dominated
    (1.0, 1.0),      # z = 0.5
    (0.4, 3.0),      # z = 1.8
    (1.0, 2.0),      # z = 2
    (0.8, 5.0),      # z = 10
    (2.0, 5.0),      # z = 25
    (0.5, 20.0),     # z = 100
    (1.0, 37.4),     # z = 699.4
    (1e-6, 1000.0),  # z = 0.5 at a tiny field: 0.94% above the drum mode
    (1e-7, 3000.0),  # z = 0.45
    # z = 1e-8 to 1e-7, where E0 - drum is below the rounding of E0 and
    # hyp1f1 at the bracket's low end is noise of either sign
    (3.2e-8, 0.8), (1.05e-7, 0.8), (1.08e-7, 0.8), (3e-7, 0.8),
])
def test_root_matches_mpmath(B, rho0):
    assert landau_cylinder_energy(B, rho0) == pytest.approx(
        _mpmath_root(B, rho0), rel=1e-10)


@pytest.mark.parametrize("B", [2e-8, 2e-7, 2e-6, 2e-5, 2e-4, 2e-3, 0.02,
                               0.2, 2.0])
def test_z_one_root_is_three_halves_b(B):
    # At z = B rho0^2 / 2 = 1, M(-1, 1, z) = 1 - z vanishes: E0 = 3B/2
    # exactly, however small the field.
    assert landau_cylinder_energy(B, math.sqrt(2.0 / B)) == pytest.approx(
        1.5 * B, rel=1e-12)


def test_tiny_radius():
    # z = 5e-61: the drum mode, not a Kummer bracket without a sign change
    assert landau_cylinder_energy(1.0, 1e-30) == J01**2 / (2.0 * 1e-30**2)
    # the drum energy overflows a double below rho0 ~ 1.3e-154
    for rho0 in (1e-160, 1e-200):
        with pytest.raises(ValueError, match=f"rho0 = {rho0!r} is too small"):
            landau_cylinder_energy(1.0, rho0)


def test_wide_cavity_reaches_landau_level():
    # z = B rho0^2 / 2 = 1250 here; the confinement shift is negligible.
    assert landau_cylinder_energy(1.0, 50.0) == pytest.approx(0.5, abs=1e-9)


def test_monotonicity():
    vals = [landau_cylinder_energy(0.5, r) for r in (1.0, 2.0, 3.0, 5.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    vals = [landau_cylinder_energy(b, 2.0) for b in (0.1, 0.4, 0.7, 1.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_known_root_value():
    # Frozen from a fine-bracket run of this solver; guards against
    # regressions in the root bracketing.
    assert landau_cylinder_energy(1.0, 2.0) == pytest.approx(
        0.8294778, abs=1e-6)


def test_infinite_radius_gives_the_landau_level():
    # At rho0 = inf the drum energy is 0, so the bracket [max(B/2, 0), B/2]
    # is one double; at B = 0, z is 0 and never 0 * inf.
    for B in (0.0, 1e-300, 0.5, 2.0, 1e11):
        assert landau_cylinder_energy(B, math.inf) == 0.5 * B

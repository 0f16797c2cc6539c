import math

import numpy as np
import pytest
from scipy.special import k0, k1

from cylvar.quadrature import QuadratureSpec, cylinder_grid

SPEC = QuadratureSpec(64)


# The 1s density exp(-2r) is below exp(-80) beyond this radius.
RHO_1S = 40.0


def integrate(g, rho_max, spec):
    """2 pi int_0^rho_max g(rho) rho drho on the radial rule."""
    rho, w = cylinder_grid(rho_max, spec)
    return float(np.sum(w * g(rho)))


# int e^{-2r} c dz over the whole z axis (Gradshteyn-Ryzhik 3.961), taken
# here from scipy's unscaled K0 and K1.
def z_integral_1s(rho):
    return 2.0 * rho * k1(2.0 * rho)


def test_norm_1s_exact():
    # int e^{-2r} d^3r = pi
    val = integrate(z_integral_1s, RHO_1S, SPEC)
    assert val == pytest.approx(math.pi, abs=1e-12)


def test_coulomb_1s_exact():
    # int e^{-2r} / r d^3r = pi; K0's log at rho = 0 is graded away
    val = integrate(lambda rho: 2.0 * k0(2.0 * rho), RHO_1S, SPEC)
    assert val == pytest.approx(math.pi, abs=1e-12)


def test_mean_rho_1s_exact():
    # int e^{-2r} rho d^3r = 3 pi^2 / 8
    val = integrate(lambda rho: rho * z_integral_1s(rho), RHO_1S, SPEC)
    assert val == pytest.approx(3.0 * math.pi**2 / 8.0, rel=1e-12)


def test_gaussian_times_disc():
    # 2 pi * (1/2) * int e^{-2 z^2} dz = pi sqrt(pi/2)
    val = integrate(lambda rho: np.full_like(rho, math.sqrt(math.pi / 2.0)),
                    1.0, SPEC)
    assert val == pytest.approx(math.pi * math.sqrt(math.pi / 2.0), abs=1e-12)


def test_radial_polynomial_exactness():
    # rho = t^3 makes rho^3 * rho drho a degree-14 polynomial in t, which
    # Gauss-Legendre integrates exactly from 8 nodes on: 2 pi / 5.
    val = integrate(lambda rho: rho**3, 1.0, QuadratureSpec(8))
    assert val == pytest.approx(2.0 * math.pi / 5.0, rel=1e-14)


def test_grid_shapes_and_weights():
    rho, w = cylinder_grid(2.0, SPEC)
    assert rho.shape == w.shape == (SPEC.n_rho,)
    assert np.all(w > 0)
    assert np.all(rho > 0) and np.all(rho < 2.0)
    assert np.all(np.diff(rho) > 0)
    with pytest.raises(ValueError, match="finite radius"):
        cylinder_grid(math.inf, SPEC)


@pytest.mark.parametrize("kwargs", [
    dict(n_rho=4), dict(n_rho=7), dict(n_rho=0), dict(n_rho=-64),
])
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        QuadratureSpec(**kwargs)


def test_refined_doubles_counts_keeps_scales():
    fine = QuadratureSpec(16, 24).refined()
    assert (fine.n_rho, fine.n_z) == (32, 48)

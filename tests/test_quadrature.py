import math

import numpy as np
import pytest

from cylvar.quadrature import QuadratureSpec, cylinder_grid

SPEC = QuadratureSpec(64, 64)


def integrate(f, rho0, spec):
    R, Z, W = cylinder_grid(rho0, spec)
    return float(np.sum(W * f(R, Z)))


def test_norm_1s_exact():
    # int e^{-2r} d^3r = pi
    val = integrate(lambda r, z: np.exp(-2.0 * np.hypot(r, z)), math.inf, SPEC)
    assert val == pytest.approx(math.pi, abs=1e-12)


def test_coulomb_1s_exact():
    # int e^{-2r} / r d^3r = pi
    val = integrate(
        lambda r, z: np.exp(-2.0 * np.hypot(r, z)) / np.hypot(r, z),
        math.inf, SPEC)
    assert val == pytest.approx(math.pi, abs=1e-5)


def test_mean_rho_1s_exact():
    # int e^{-2r} rho d^3r = 3 pi^2 / 8
    val = integrate(lambda r, z: np.exp(-2.0 * np.hypot(r, z)) * r,
                    math.inf, SPEC)
    assert val == pytest.approx(3.0 * math.pi**2 / 8.0, rel=1e-10)


def test_gaussian_times_disc():
    # 2 pi * (1/2) * int e^{-2 z^2} dz = pi sqrt(pi/2)
    val = integrate(lambda r, z: np.exp(-2.0 * z**2), 1.0, SPEC)
    assert val == pytest.approx(math.pi * math.sqrt(math.pi / 2.0), abs=1e-12)


def test_radial_polynomial_exactness():
    # Gauss-Legendre integrates rho^5 * rho exactly from 8 nodes on.
    f = lambda r, z: r**5 * np.exp(-z**2)
    lo = integrate(f, 1.0, QuadratureSpec(8, 64))
    hi = integrate(f, 1.0, QuadratureSpec(40, 64))
    assert lo == pytest.approx(hi, rel=1e-13)


def test_grid_shapes_and_weights():
    R, Z, W = cylinder_grid(2.0, SPEC)
    assert R.shape == Z.shape == W.shape == (SPEC.n_rho, SPEC.n_z)
    assert np.all(W > 0)
    assert np.all(R <= 2.0) and np.all(R > 0)
    assert np.all(Z > 0)  # z-parity is folded into the weights


@pytest.mark.parametrize("kwargs", [
    dict(n_rho=4), dict(n_z=7), dict(z_scale=0.0), dict(rho_scale=-1.0),
])
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        QuadratureSpec(**kwargs)


def test_refined_doubles_counts_keeps_scales():
    spec = QuadratureSpec(16, 24, z_scale=0.5, rho_scale=2.0)
    fine = spec.refined()
    assert (fine.n_rho, fine.n_z) == (32, 48)
    assert (fine.z_scale, fine.rho_scale) == (0.5, 2.0)

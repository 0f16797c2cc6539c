import math

import pytest

import numpy as np
from scipy.linalg import eigh_tridiagonal

from cylvar.hydrogen2d import (RadialGrid, ResolutionError, _lowest_eigenvalue,
                               _potential, ground_energy_2d, ratio_3d_2d)
from cylvar.specfun import J01

DRUM = J01**2 / 2.0


def _eig_plain(B: float, rho0: float, n: int, coulomb_on: bool) -> float:
    # Node-centered cross-check of the solver's flux form; the axis is
    # closed by a zero-derivative ghost (R_0 = R_1), which cancels the inner
    # flux of the first node.
    h = rho0 / (n + 1)
    rho = np.arange(1, n + 1) * h
    f_lo = rho - 0.5 * h
    f_hi = rho + 0.5 * h
    v = _potential(rho, B, coulomb_on)
    diag = (f_lo + f_hi) / (2.0 * rho * h * h) + v
    diag[0] = f_hi[0] / (2.0 * rho[0] * h * h) + v[0]
    off = -f_hi[:-1] / (2.0 * h * h * np.sqrt(rho[:-1] * rho[1:]))
    vals = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]
    return float(vals[0])


def test_free_limit_is_minus_two():
    # 2D hydrogen ground state: E = -2 (wide disc stands in for the plane).
    e = ground_energy_2d(0.0, 50.0, RadialGrid(8000))
    assert e == pytest.approx(-2.0, abs=1e-3)


def test_drum_mode_without_coulomb():
    e = ground_energy_2d(0.0, 1.0, RadialGrid(400), coulomb_on=False)
    assert e == pytest.approx(DRUM, abs=1e-8)


def test_plain_grid_cross_check():
    off = ground_energy_2d(0.0, 1.0, RadialGrid(400), coulomb_on=False)
    # Richardson step from n and 2n, as ground_energy_2d takes it.
    e1, e2 = (_eig_plain(0.0, 1.0, n, False) for n in (400, 800))
    plain = (4.0 * e2 - e1) / 3.0
    assert off == pytest.approx(plain, abs=1e-7)


def test_second_order_convergence():
    errs = [abs(_lowest_eigenvalue(0.0, 1.0, RadialGrid(n), False) - DRUM)
            for n in (100, 200, 400)]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


def test_monotone_in_radius_and_field():
    grid = RadialGrid(400)
    es = [ground_energy_2d(0.0, r, grid) for r in (1.0, 2.0, 3.0)]
    assert es[0] > es[1] > es[2]
    es = [ground_energy_2d(b, 2.0, grid) for b in (0.0, 0.5, 1.0)]
    assert es[0] < es[1] < es[2]


def test_resolution_error():
    with pytest.raises(ResolutionError):
        ground_energy_2d(0.0, 50.0, RadialGrid(64))


def test_infinite_radius_rejected():
    with pytest.raises(ValueError):
        ground_energy_2d(0.0, math.inf, RadialGrid(100))


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(8)


def test_ratio_of_plain_energy():
    grid = RadialGrid(1600)
    e2 = ground_energy_2d(0.0, 5.0, grid)
    assert ratio_3d_2d(0.0, 5.0, -0.5, grid) == pytest.approx(-0.5 / e2)

import math

import pytest

import numpy as np
from scipy.linalg import eigh_tridiagonal

from cylvar import hydrogen2d
from cylvar.hydrogen2d import (RadialGrid, ResolutionError, _ground_level,
                               _lowest_eigenvalue, _potential, _tridiagonal,
                               ground_energy_2d, ratio_3d_2d)
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


def _eig_bisect(diag, off, level: int = 0) -> float:
    # LAPACK stebz bisection on the solver's own matrix: the oracle for the
    # Rayleigh-quotient iteration, to within eps * ||T||_1.
    vals = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(level, level))
    return float(vals[0])


# The benchmark's 2D corners on the default grid and its doubling, Coulomb
# on and off, and the wide disc of the free-limit test.
BISECT_CASES = [(B, rho0, n, c) for B in (0.0, 2.0) for rho0 in (0.8, 5.0)
                for n in (800, 1600) for c in (True, False)]
BISECT_CASES.append((0.0, 50.0, 8000, True))


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


@pytest.mark.parametrize("rho0", [0.0, -1.0, math.nan])
def test_nonpositive_radius_rejected(rho0):
    with pytest.raises(ValueError, match="positive and finite"):
        ground_energy_2d(0.0, rho0, RadialGrid(100))


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(8)


def test_ratio_of_plain_energy():
    grid = RadialGrid(1600)
    e2 = ground_energy_2d(0.0, 5.0, grid)
    assert ratio_3d_2d(0.0, 5.0, -0.5, grid) == pytest.approx(-0.5 / e2)


@pytest.mark.parametrize("B, rho0, n, coulomb_on", BISECT_CASES)
def test_lowest_eigenvalue_matches_bisection(B, rho0, n, coulomb_on):
    _, diag, off = _tridiagonal(B, rho0, n, coulomb_on)
    # Both sides are exact for T perturbed at its rounding; measured
    # differences stay below 0.8 eps max|diag| over 400 random (B, rho0)
    # draws at n = 800 and 1600.
    bound = 4.0 * np.finfo(float).eps * np.abs(diag).max()
    e = _lowest_eigenvalue(B, rho0, RadialGrid(n), coulomb_on)
    assert abs(e - _eig_bisect(diag, off)) <= bound


def test_excited_level_is_refused():
    # Started on the second drum mode, the iteration settles on that level;
    # the inertia certificate must refuse it rather than return it.
    rho, diag, off = _tridiagonal(0.0, 1.0, 400, False)
    x = np.sqrt(rho) * np.cos(1.5 * np.pi * rho)
    x /= np.linalg.norm(x)
    e_excited = _eig_bisect(diag, off, level=1)
    with pytest.raises(ResolutionError, match="not the ground level"):
        _ground_level(diag, off, x, e_excited + 0.1)


@pytest.mark.parametrize("B, rho0", [(0.0, 0.8), (0.0, 5.0), (2.0, 0.8),
                                     (2.0, 5.0)])
def test_few_solves_per_grid(monkeypatch, B, rho0):
    # Rayleigh-quotient iteration converges cubically: 2-3 solves per grid
    # on the benchmark's domain.  Each grid ends in one certificate, which
    # closes its count.
    per_grid, solves = [], [0]
    gtsv, pttrf = hydrogen2d._gtsv, hydrogen2d._pttrf

    def counted_gtsv(*args):
        solves[0] += 1
        return gtsv(*args)

    def closing_pttrf(*args):
        per_grid.append(solves[0])
        solves[0] = 0
        return pttrf(*args)

    monkeypatch.setattr(hydrogen2d, "_gtsv", counted_gtsv)
    monkeypatch.setattr(hydrogen2d, "_pttrf", closing_pttrf)
    ground_energy_2d(B, rho0, RadialGrid(800))
    assert len(per_grid) == 2
    assert all(1 <= k <= 4 for k in per_grid), per_grid

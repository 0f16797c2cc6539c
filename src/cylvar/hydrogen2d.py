"""2D hydrogen atom in a disc with a perpendicular magnetic field.

Finite-difference ground-state solver for the m = 0 radial equation

    [-(1/2)(d^2/drho^2 + (1/rho) d/drho) - 1/rho + B^2 rho^2 / 8] R = E R,
    R(rho0) = 0.

The scheme is a finite-volume discretization of the flux form
-(1/(2 rho)) (rho R')' on cell centers (i + 1/2) h: the zero radial flux at
the axis closes the origin without ever evaluating the potential there, the
matrix symmetrizes exactly under the sqrt(rho) similarity scaling, and the
eigenvalue converges at second order.  (A Liouville u = sqrt(rho) R
transformation was tried first and rejected: the resulting -1/(8 rho^2)
potential leaves an O(1) eigenvalue bias on any uniform grid.)  The tests
cross-check it against a node-centered grid of the same flux form.

The lowest eigenvalue of the symmetrized tridiagonal T comes from
Rayleigh-quotient iteration, one LAPACK gtsv solve of T - shift I per step,
started from a positive guess of the ground state; the 2n grid starts from
the n grid's converged vector and level, so both grids take 2-3 O(n) solves
each.  Every level is then certified by Sylvester's law of inertia: one
LAPACK pttrf (LDL^T) of T - (level - delta) I, with delta a small multiple
of T's rounding, succeeds only if no eigenvalue lies below level - delta.
A level that passes is therefore the ground level to within delta and
never an excited one; a start that settles elsewhere raises
ResolutionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

__all__ = ["RadialGrid", "ResolutionError", "ground_energy_2d", "ratio_3d_2d"]


_gtsv, _pttrf = get_lapack_funcs(("gtsv", "pttrf"), (np.empty(0),))
# Cubic convergence settles in 2-5 solves from the starts below; more means
# the iteration is wandering between levels.
_MAX_SOLVES = 8


class ResolutionError(RuntimeError):
    """No certified ground level, or no convergence under grid doubling."""


@dataclass(frozen=True)
class RadialGrid:
    """Cell count of the disc solver."""

    n: int = 400

    def __post_init__(self):
        if self.n < 16:
            raise ValueError("grid too coarse")


def _potential(rho: np.ndarray, B: float, coulomb_on: bool):
    v = B**2 * rho**2 / 8.0
    if coulomb_on:
        v = v - 1.0 / rho
    return v


def _tridiagonal(B: float, rho0: float, n: int, coulomb_on: bool):
    """Cell centers and the symmetric tridiagonal (diag, off) on n cells."""
    h = rho0 / n
    rho = (np.arange(n) + 0.5) * h
    faces = np.arange(n + 1) * h          # cell faces; faces[0] = 0 (no flux)
    v = _potential(rho, B, coulomb_on)

    diag = (faces[:-1] + faces[1:]) / (2.0 * rho * h * h) + v
    # Dirichlet wall at the last face: one-sided gradient over h/2.
    diag[-1] = (faces[-2] + 2.0 * faces[-1]) / (2.0 * rho[-1] * h * h) + v[-1]
    off = -faces[1:-1] / (2.0 * h * h * np.sqrt(rho[:-1] * rho[1:]))
    return rho, diag, off


def _ground_level(diag: np.ndarray, off: np.ndarray, x: np.ndarray,
                  shift: float):
    """Certified lowest eigenpair of T = tridiag(off, diag, off).

    Rayleigh-quotient iteration from the unit vector x and the shift: each
    step solves (T - shift I) y = x and moves the shift to the quotient of
    y, shift + y.x / y.y, until it moves by less than the rounding of T.
    A quotient lies at or above the lowest level, so a positive definite
    T - (level - delta) I puts the ground level within delta of it.
    """
    tol = 16.0 * np.finfo(float).eps * float(np.abs(diag).max())
    for _ in range(_MAX_SOLVES):
        *_, y, info = _gtsv(off, diag - shift, off, x)
        if info:
            break                 # T - shift I is singular: shift is a level
        yy = float(y @ y)
        step = float(y @ x) / yy
        shift += step
        x = y / math.sqrt(yy)
        if abs(step) <= tol:
            break
    else:
        raise ResolutionError(
            f"Rayleigh-quotient iteration did not settle in {_MAX_SOLVES} "
            f"solves (last step {step:.3e})")
    delta = 4.0 * tol
    *_, info = _pttrf(diag - (shift - delta), off)
    if info:
        raise ResolutionError(
            f"level {shift:.10g} is not the ground level: T - (level - "
            f"{delta:.1e}) I is not positive definite")
    return shift, x


def _cold_start(B: float, rho0: float, grid: RadialGrid, coulomb_on: bool):
    """Tridiagonal, unit start vector and its Rayleigh quotient on grid."""
    rho, diag, off = _tridiagonal(B, rho0, grid.n, coulomb_on)
    # sqrt(rho) R for R a positive guess: the 1s decay with the Coulomb
    # term, the Landau Gaussian and the drum's vanishing at the wall.
    decay = 2.0 * rho if coulomb_on else 0.0
    x = np.sqrt(rho) * np.exp(-decay - 0.25 * B * rho**2) * np.cos(
        0.5 * np.pi * rho / rho0)
    x /= math.sqrt(float(x @ x))
    tx = diag * x
    tx[:-1] += off * x[1:]
    tx[1:] += off * x[:-1]
    return diag, off, x, float(x @ tx)


def _lowest_eigenvalue(B: float, rho0: float, grid: RadialGrid,
                       coulomb_on: bool) -> float:
    return _ground_level(*_cold_start(B, rho0, grid, coulomb_on))[0]


def ground_energy_2d(B: float, rho0: float, grid: RadialGrid,
                     coulomb_on: bool = True) -> float:
    """Richardson-extrapolated lowest eigenvalue from grids n and 2n."""
    if not 0.0 < rho0 < math.inf:
        raise ValueError(f"rho0 must be positive and finite, got {rho0!r}")
    e1, x = _ground_level(*_cold_start(B, rho0, grid, coulomb_on))
    # The 2n grid starts from the n grid's vector, each cell split in two.
    _, diag, off = _tridiagonal(B, rho0, 2 * grid.n, coulomb_on)
    e2, _ = _ground_level(diag, off, np.repeat(x, 2) / math.sqrt(2.0), e1)
    if abs(e2 - e1) > 1e-4:
        raise ResolutionError(
            f"|E_n - E_2n| = {abs(e2 - e1):.3e} at n = {grid.n}; refine the grid")
    return (4.0 * e2 - e1) / 3.0


def ratio_3d_2d(B: float, rho0: float, energy_3d: float,
                grid: RadialGrid) -> float:
    """E(3D)/E(2D) at matching (B, rho0); crosses 0 with the 3D energy sign."""
    e2 = ground_energy_2d(B, rho0, grid)
    if e2 == 0.0:
        raise ZeroDivisionError("E(2D) vanished; ratio undefined")
    return energy_3d / e2

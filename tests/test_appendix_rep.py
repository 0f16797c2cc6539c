import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval2d

from cylvar.appendix_rep import (TABLE_ROWS, apply_h, degeneracy_count,
                                 map_labels, verify_table)


def test_map_labels_examples():
    lab = map_labels(1, 0, 0)
    assert (lab.N, lab.p) == (0, 0)
    lab = map_labels(2, 1, 0)
    assert (lab.N, lab.p) == (0, 1)
    lab = map_labels(3, 2, 0)
    assert (lab.N, lab.p) == (2, 0)
    lab = map_labels(3, 2, 1)
    assert (lab.N, lab.p) == (0, 1)
    lab = map_labels(4, 2, -2)
    assert (lab.N, lab.p, lab.m) == (1, 0, -2)


@pytest.mark.parametrize("n,ell,m", [
    (0, 0, 0), (2, 2, 0), (2, 1, 2), (1, 0, 1), (3, -1, 0),
])
def test_map_labels_rejects_invalid(n, ell, m):
    with pytest.raises(ValueError):
        map_labels(n, ell, m)


def test_labels_energy():
    assert map_labels(2, 0, 0).energy() == -0.125


def test_all_rows_are_eigenpolynomials():
    report = verify_table()
    assert len(report.rows) == 14
    assert report.ok
    assert max(res for _, res in report.rows) <= 1e-10


def test_mutated_coefficient_is_detected():
    n, ell, m, chi = TABLE_ROWS[1]  # (2, 0, 0): chi = r - 2
    bad = np.array(chi)
    bad[0, 0] += 0.01
    labels = map_labels(n, ell, m)
    res = apply_h(bad, labels.energy(), labels.p, abs(m))
    assert np.max(np.abs(res)) > 1e-10


def test_apply_h_requires_negative_energy():
    with pytest.raises(ValueError):
        apply_h([[1.0]], 0.1, 0, 0)


def test_degeneracy_counts():
    assert [degeneracy_count(n) for n in range(1, 7)] == [1, 4, 9, 16, 25, 36]


@pytest.mark.parametrize("E,p,abs_m", [
    (-0.5, 0, 0), (-0.125, 1, 0), (-1.0 / 18.0, 0, 2), (-0.3, 1, 1),
])
def test_apply_h_matches_finite_differences(E, p, abs_m):
    # Degree 2 in r and u, so the r u, u^2 and r^2 u^2 monomials exercise
    # every term of h, the -2 r u d_uu and -2 u d_ru terms included.
    rng = np.random.default_rng(7)
    chi = rng.uniform(-1.0, 1.0, (3, 3))
    r = rng.uniform(0.5, 3.0, 50)
    u = rng.uniform(0.5, 3.0, 50)
    step = 1e-3

    def f(dr, du):
        return polyval2d(r + dr * step, u + du * step, chi)

    d_r = (f(1, 0) - f(-1, 0)) / (2 * step)
    d_u = (f(0, 1) - f(0, -1)) / (2 * step)
    d_rr = (f(1, 0) - 2 * f(0, 0) + f(-1, 0)) / step**2
    d_uu = (f(0, 1) - 2 * f(0, 0) + f(0, -1)) / step**2
    d_ru = (f(1, 1) - f(1, -1) - f(-1, 1) + f(-1, -1)) / (4 * step**2)
    s = math.sqrt(-2.0 * E)
    c = 1.0 + p + abs_m
    h_chi = (-0.5 * r * d_rr - 2.0 * r * u * d_uu - 2.0 * u * d_ru
             - 2.0 * (r * (1.0 + abs_m) - u * s) * d_u - (c - r * s) * d_r
             + s * c * f(0, 0))
    exact = polyval2d(r, u, apply_h(chi, E, p, abs_m)) + f(0, 0)
    assert np.max(np.abs(exact - h_chi)) <= 1e-6 * np.max(np.abs(h_chi))

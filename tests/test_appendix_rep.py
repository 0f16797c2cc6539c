import pytest

from cylvar.appendix_rep import (Poly2, TABLE_ROWS, apply_h, degeneracy_count,
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
    assert map_labels(3, 1, 0).energy(k=3.0) == pytest.approx(-0.5)


def test_all_rows_are_eigenpolynomials():
    report = verify_table()
    assert len(report.rows) == 14
    assert report.ok
    assert max(res for _, res in report.rows) <= 1e-10


def test_mutated_coefficient_is_detected():
    n, ell, m, chi = TABLE_ROWS[1]  # (2, 0, 0): chi = r - 2
    bad = Poly2(dict(chi.coeffs))
    bad.coeffs[(0, 0)] += 0.01
    labels = map_labels(n, ell, m)
    res = apply_h(bad, labels.energy(), labels.p, abs(m))
    assert res.max_abs_coeff() > 1e-10


def test_apply_h_requires_negative_energy():
    with pytest.raises(ValueError):
        apply_h(Poly2({(0, 0): 1.0}), 0.1, 0, 0)


def test_degeneracy_counts():
    assert [degeneracy_count(n) for n in range(1, 7)] == [1, 4, 9, 16, 25, 36]


def test_poly2_algebra():
    p = Poly2({(1, 0): 2.0, (0, 1): -3.0})
    q = Poly2({(1, 0): -2.0})
    s = p + q
    assert s.coeffs == {(0, 1): -3.0}
    assert p.scale(0.5).coeffs == {(1, 0): 1.0, (0, 1): -1.5}
    assert p.shift(1, 2).coeffs == {(2, 2): 2.0, (1, 3): -3.0}
    assert p.deriv("r").coeffs == {(0, 0): 2.0}
    assert p.deriv("u").coeffs == {(0, 0): -3.0}
    assert p(2.0, 1.0) == pytest.approx(1.0)
    assert p.max_abs_coeff() == 3.0
    assert Poly2().max_abs_coeff() == 0.0

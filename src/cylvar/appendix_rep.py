"""Algebraic checks on the (N, m, p) labeling and eigenpolynomials.

Works with two-variable polynomials in (r, u), u = rho^2, held as
``numpy.polynomial`` coefficient arrays c[i, j] of r^i u^j.  The
first-order operator block acting on them,

    h = -(1/2) r d_rr - 2 r u d_uu - 2 u d_ru
        - 2 [r (1 + |m|) - u s] d_u - (1 + p + |m| - r s) d_r
        + s (1 + p + |m|),        s = sqrt(-2 E),

maps polynomials to polynomials, so eigenpolynomial claims reduce to exact
coefficient identities h chi = chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

__all__ = [
    "QuantumLabels",
    "map_labels",
    "apply_h",
    "verify_table",
    "TABLE_ROWS",
    "VerificationReport",
]


@dataclass(frozen=True)
class QuantumLabels:
    n: int
    ell: int
    m: int
    p: int
    N: int

    def energy(self) -> float:
        return -1.0 / (2.0 * self.n**2)


def map_labels(n: int, ell: int, m: int) -> QuantumLabels:
    """(n, ell, m) -> (N, m, p) with p from the parity of ell - |m|."""
    if n < 1 or not (0 <= ell < n) or abs(m) > ell:
        raise ValueError(f"invalid quantum numbers (n={n}, ell={ell}, m={m})")
    p = (1 - (-1) ** (ell - abs(m))) // 2
    N = n - (1 + abs(m) + p)
    return QuantumLabels(n=n, ell=ell, m=m, p=p, N=N)


def apply_h(chi, E: float, p: int, abs_m: int) -> np.ndarray:
    """Exact residual h chi - chi, as coefficients c[i, j] of r^i u^j."""
    if E >= 0:
        raise ValueError("E must be negative")
    s = math.sqrt(-2.0 * E)
    c = 1.0 + p + abs_m
    chi = np.asarray(chi, dtype=float)
    # (factor, order of d_r, order of d_u, power of r, power of u) per term
    terms = ((-0.5, 2, 0, 1, 0),                    # -(1/2) r d_rr
             (-2.0, 0, 2, 1, 1),                    # -2 r u d_uu
             (-2.0, 1, 1, 0, 1),                    # -2 u d_ru
             (-2.0 * (1.0 + abs_m), 0, 1, 1, 0),    # -2 r (1 + |m|) d_u
             (2.0 * s, 0, 1, 0, 1),                 # 2 u s d_u
             (-c, 1, 0, 0, 0),                      # -(1 + p + |m|) d_r
             (s, 1, 0, 1, 0),                       # r s d_r
             (s * c - 1.0, 0, 0, 0, 0))             # s (1 + p + |m|) - 1
    res = np.zeros((chi.shape[0] + 1, chi.shape[1] + 1))
    for factor, d_r, d_u, i, j in terms:
        d = P.polyder(P.polyder(chi, d_r, axis=0), d_u, axis=1)
        res[i:i + d.shape[0], j:j + d.shape[1]] += factor * d
    return res


# (n, ell, m, chi) for all states with n <= 3, chi[i][j] the coefficient of
# r^i u^j; p and N follow from map_labels.
TABLE_ROWS = (
    (1, 0, 0, ((1.0,),)),
    (2, 0, 0, ((-2.0,), (1.0,))),
    (2, 1, -1, ((1.0,),)),
    (2, 1, 0, ((1.0,),)),
    (2, 1, 1, ((1.0,),)),
    (3, 0, 0, ((27.0,), (-18.0,), (2.0,))),
    (3, 1, -1, ((-6.0,), (1.0,))),
    (3, 1, 0, ((-6.0,), (1.0,))),
    (3, 1, 1, ((-6.0,), (1.0,))),
    (3, 2, -2, ((1.0,),)),
    (3, 2, -1, ((1.0,),)),
    (3, 2, 0, ((0.0, -3.0), (0.0, 0.0), (2.0, 0.0))),
    (3, 2, 1, ((1.0,),)),
    (3, 2, 2, ((1.0,),)),
)

_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple          # (labels, max residual) per table row
    failures: tuple      # labels of rows exceeding the tolerance

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_table() -> VerificationReport:
    """Residual of every tabulated eigenpolynomial: the largest |coefficient|
    of the exact residual polynomial h chi - chi."""
    rows = []
    failures = []
    for n, ell, m, chi in TABLE_ROWS:
        labels = map_labels(n, ell, m)
        res = apply_h(chi, labels.energy(), labels.p, abs(labels.m))
        max_res = float(np.max(np.abs(res)))
        rows.append((labels, max_res))
        if max_res > _RESIDUAL_TOL:
            failures.append(labels)
    return VerificationReport(rows=tuple(rows), failures=tuple(failures))


def degeneracy_count(n: int) -> int:
    """States of level n whose mapped labels satisfy N + 1 + |m| + p = n.

    Counted over the (ell, m) multiplet (distinct triples alone are fewer:
    e.g. both n=3 s- and d-states with m=0 map to (N=2, m=0, p=0)).  The
    result is the hydrogenic degeneracy n^2.
    """
    count = 0
    for ell in range(n):
        for m in range(-ell, ell + 1):
            lab = map_labels(n, ell, m)
            if lab.N >= 0 and lab.N + 1 + abs(lab.m) + lab.p == n:
                count += 1
    return count

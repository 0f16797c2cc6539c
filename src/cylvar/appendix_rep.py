"""Algebraic checks on the (N, m, p) labeling and eigenpolynomials.

Works with two-variable polynomials in (r, u), u = rho^2.  The first-order
operator block acting on them,

    h = -(1/2) r d_rr - 2 r u d_uu - 2 u d_ru
        - 2 [r (1 + |m|) - u s] d_u - (1 + p + |m| - r s) d_r
        + s (1 + p + |m|),        s = sqrt(-2 E),

maps polynomials to polynomials, so eigenpolynomial claims reduce to exact
coefficient identities h chi = k chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Poly2",
    "QuantumLabels",
    "map_labels",
    "apply_h",
    "verify_table",
    "TABLE_ROWS",
    "VerificationReport",
]


class Poly2:
    """Sparse polynomial in (r, u): coefficient map {(i, j): c}."""

    def __init__(self, coeffs=None):
        self.coeffs = {k: float(v) for k, v in (coeffs or {}).items()
                       if v != 0.0}

    def __add__(self, other: "Poly2") -> "Poly2":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) + v
        return Poly2(out)

    def scale(self, c: float) -> "Poly2":
        return Poly2({k: c * v for k, v in self.coeffs.items()})

    def shift(self, di: int, dj: int) -> "Poly2":
        """Multiply by the monomial r^di u^dj."""
        return Poly2({(i + di, j + dj): v for (i, j), v in self.coeffs.items()})

    def deriv(self, var: str) -> "Poly2":
        out = {}
        for (i, j), v in self.coeffs.items():
            if var == "r" and i > 0:
                out[(i - 1, j)] = out.get((i - 1, j), 0.0) + i * v
            elif var == "u" and j > 0:
                out[(i, j - 1)] = out.get((i, j - 1), 0.0) + j * v
        return Poly2(out)

    def __call__(self, r, u):
        r = np.asarray(r, dtype=float)
        u = np.asarray(u, dtype=float)
        total = np.zeros(np.broadcast(r, u).shape)
        for (i, j), v in self.coeffs.items():
            total = total + v * r**i * u**j
        return total if total.shape else float(total)

    def max_abs_coeff(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

    def __repr__(self):
        return f"Poly2({self.coeffs!r})"


@dataclass(frozen=True)
class QuantumLabels:
    n: int
    ell: int
    m: int
    p: int
    N: int

    def energy(self, k: float = 1.0) -> float:
        return -k**2 / (2.0 * self.n**2)


def map_labels(n: int, ell: int, m: int) -> QuantumLabels:
    """(n, ell, m) -> (N, m, p) with p from the parity of ell - |m|."""
    if n < 1 or not (0 <= ell < n) or abs(m) > ell:
        raise ValueError(f"invalid quantum numbers (n={n}, ell={ell}, m={m})")
    p = (1 - (-1) ** (ell - abs(m))) // 2
    N = n - (1 + abs(m) + p)
    return QuantumLabels(n=n, ell=ell, m=m, p=p, N=N)


def apply_h(chi: Poly2, E: float, p: int, abs_m: int,
            k: float = 1.0) -> Poly2:
    """Exact residual polynomial h chi - k chi."""
    if E >= 0:
        raise ValueError("E must be negative")
    s = math.sqrt(-2.0 * E)
    c = 1.0 + p + abs_m

    d_r = chi.deriv("r")
    d_u = chi.deriv("u")
    res = d_r.deriv("r").shift(1, 0).scale(-0.5)
    res = res + d_u.deriv("u").shift(1, 1).scale(-2.0)
    res = res + d_r.deriv("u").shift(0, 1).scale(-2.0)
    res = res + d_u.shift(1, 0).scale(-2.0 * (1.0 + abs_m))
    res = res + d_u.shift(0, 1).scale(2.0 * s)
    res = res + d_r.scale(-c)
    res = res + d_r.shift(1, 0).scale(s)
    res = res + chi.scale(s * c - k)
    return res


# (n, ell, m, chi) for all states with n <= 3; p and N follow from map_labels.
TABLE_ROWS = (
    (1, 0, 0, Poly2({(0, 0): 1.0})),
    (2, 0, 0, Poly2({(1, 0): 1.0, (0, 0): -2.0})),
    (2, 1, -1, Poly2({(0, 0): 1.0})),
    (2, 1, 0, Poly2({(0, 0): 1.0})),
    (2, 1, 1, Poly2({(0, 0): 1.0})),
    (3, 0, 0, Poly2({(2, 0): 2.0, (1, 0): -18.0, (0, 0): 27.0})),
    (3, 1, -1, Poly2({(1, 0): 1.0, (0, 0): -6.0})),
    (3, 1, 0, Poly2({(1, 0): 1.0, (0, 0): -6.0})),
    (3, 1, 1, Poly2({(1, 0): 1.0, (0, 0): -6.0})),
    (3, 2, -2, Poly2({(0, 0): 1.0})),
    (3, 2, -1, Poly2({(0, 0): 1.0})),
    (3, 2, 0, Poly2({(2, 0): 2.0, (0, 1): -3.0})),
    (3, 2, 1, Poly2({(0, 0): 1.0})),
    (3, 2, 2, Poly2({(0, 0): 1.0})),
)

_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple          # (labels, max residual) per table row
    failures: tuple      # labels of rows exceeding the tolerance

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_table(k: float = 1.0, n_points: int = 100,
                 seed: int = 0) -> VerificationReport:
    """Residual of every tabulated eigenpolynomial, sampled on (0, 10)^2.

    The residual is formed by exact polynomial algebra; sampling only
    converts it to a max-magnitude number for the report.
    """
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.0, 10.0, n_points)
    u = rng.uniform(0.0, 10.0, n_points)
    rows = []
    failures = []
    for n, ell, m, chi in TABLE_ROWS:
        labels = map_labels(n, ell, m)
        res = apply_h(chi, labels.energy(k), labels.p, abs(labels.m), k=k)
        max_res = float(np.max(np.abs(res(r, u)))) if res.coeffs else 0.0
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

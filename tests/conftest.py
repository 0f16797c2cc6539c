import csv
import math

import pytest
from scipy import integrate
from scipy.special import xlogy


def _shannon_entropy_dblquad(alpha: float, nu: float, rho0: float) -> float:
    """S = -int n ln n d^3r of the B = 0 confined trial density.

    Adaptive 2D quadrature of the closed form
    psi = [1 - (rho/rho0)^nu] exp(-alpha r) over rho in [0, rho0] and
    z >= 0 (doubled by the z -> -z symmetry), independent of the package's
    Gauss-Legendre rule.
    """
    def psi2(z, rho):
        return ((1.0 - (rho / rho0) ** nu)
                * math.exp(-alpha * math.hypot(rho, z))) ** 2

    def cylinder(f):
        val, _ = integrate.dblquad(lambda z, rho: rho * f(z, rho),
                                   0.0, rho0, 0.0, math.inf,
                                   epsabs=1e-12, epsrel=1e-12)
        return 4.0 * math.pi * val

    norm = cylinder(psi2)
    return -cylinder(lambda z, rho: xlogy(psi2(z, rho) / norm,
                                          psi2(z, rho) / norm))


@pytest.fixture
def shannon_entropy_dblquad():
    return _shannon_entropy_dblquad


# The value JSON carries for each CSV cell that is not a number.
_CSV_WORDS = {"": None, "inf": "inf", "true": True, "false": False}


def _csv_as_json(path) -> list[dict]:
    """The rows of a written scan CSV, each cell as the value the JSON
    output carries for it: None for an empty gamma, "inf", booleans, an
    int count and floats."""
    with open(path, newline="") as fh:
        return [{key: _CSV_WORDS[text] if text in _CSV_WORDS else
                 int(text) if key == "evals" else float(text)
                 for key, text in row.items()}
                for row in csv.DictReader(fh)]


@pytest.fixture
def csv_as_json():
    return _csv_as_json

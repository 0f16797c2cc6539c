import math

import numpy as np
import pytest

from dataclasses import asdict

from cylvar.hamiltonian import observables
from cylvar.quadrature import QuadratureSpec
from cylvar.trialfn import (SystemConfig, TrialParams, check_admissible,
                            evaluate)

RNG = np.random.default_rng(7)


def test_free_atom_shape_is_exponential():
    params = TrialParams(alpha=1.0, beta=0.0, gamma=0.0)
    cfg = SystemConfig(B=0.0, rho0=math.inf)
    rho = RNG.uniform(0.0, 5.0, 200)
    z = RNG.uniform(-5.0, 5.0, 200)
    s = evaluate(params, cfg, rho, z)
    np.testing.assert_allclose(s.psi, np.exp(-np.hypot(rho, z)), rtol=1e-14)


def test_wall_condition():
    params = TrialParams(alpha=1.1, beta=0.0, nu=3.0)
    cfg = SystemConfig(B=0.0, rho0=2.0)
    s = evaluate(params, cfg, np.full(5, 2.0), np.linspace(-2, 2, 5))
    np.testing.assert_allclose(s.psi, 0.0, atol=1e-15)


@pytest.mark.parametrize("params,cfg", [
    (TrialParams(alpha=1.1, beta=0.0, nu=3.5), SystemConfig(B=0.0, rho0=2.0)),
    (TrialParams(alpha=0.9, beta=0.2, nu=2.0), SystemConfig(B=0.8, rho0=3.0)),
    (TrialParams(alpha=1.0, beta=0.25, gamma=0.4),
     SystemConfig(B=1.0, rho0=math.inf)),
])
def test_analytic_derivatives_match_finite_differences(params, cfg):
    hi = 1.9 if math.isinf(cfg.rho0) else 0.95 * cfg.rho0
    rho = RNG.uniform(0.1, hi - 1e-3, 400)
    z = RNG.uniform(-3.0, 3.0, 400)
    s = evaluate(params, cfg, rho, z)
    h = 1e-5
    fd_rho = (evaluate(params, cfg, rho + h, z).psi
              - evaluate(params, cfg, rho - h, z).psi) / (2.0 * h)
    fd_z = (evaluate(params, cfg, rho, z + h).psi
            - evaluate(params, cfg, rho, z - h).psi) / (2.0 * h)
    scale = np.max(np.abs(s.psi))
    assert np.max(np.abs(s.dpsi_drho - fd_rho)) <= 1e-7 * scale
    assert np.max(np.abs(s.dpsi_dz - fd_z)) <= 1e-7 * scale


@pytest.mark.parametrize("params", [
    TrialParams(alpha=0.0), TrialParams(alpha=-1.0),
    TrialParams(alpha=1.0, nu=0.5), TrialParams(alpha=1.0, beta=0.1),
    TrialParams(alpha=1.0, gamma=0.3),
])
def test_invalid_params(params):
    cfg = SystemConfig(B=0.0, rho0=2.0)
    with pytest.raises(ValueError, match="not admissible"):
        check_admissible(asdict(params), cfg)
    with pytest.raises(ValueError, match="not admissible"):
        observables(params, cfg, QuadratureSpec(64))


def test_rho_outside_cavity_raises():
    cfg = SystemConfig(B=0.0, rho0=2.0)
    with pytest.raises(ValueError):
        evaluate(TrialParams(alpha=1.0), cfg, 2.5, 0.0)


@pytest.mark.parametrize("bad", [dict(B=-0.1), dict(B=math.nan),
                                 dict(B=math.inf), dict(rho0=0.0),
                                 dict(rho0=math.nan), dict(B=1e-301),
                                 dict(B=5e-324), dict(B=1e160),
                                 dict(B=2.0**511)])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        SystemConfig(**bad)


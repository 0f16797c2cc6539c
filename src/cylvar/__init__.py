"""Variational toolkit for the hydrogen atom confined in an infinite
cylinder under an axial magnetic field."""

from .quadrature import QuadratureSpec
from .trialfn import TrialParams, SystemConfig
from .hamiltonian import (EnergyBreakdown, Observables, energy, observables,
                          reference_energy, fit_large_rho0_tail)
from .optimizer import (OptimizeRequest, OptimizeResult, minimize, scan,
                        default_request, DEFAULT_STARTS)
from .specfun import J01, kummer_m, landau_cylinder_energy
from .hydrogen2d import RadialGrid, ground_energy_2d, ratio_3d_2d
from .appendix_rep import map_labels, apply_h, verify_table
from .records import ScanRecord

__version__ = "0.1.0"

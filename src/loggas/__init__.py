"""Numerical laboratory for one-dimensional log gases.

Equilibrium measures for confined log gases, weighted Fekete sets,
renormalized energies of periodic configurations and their field-level
quadrature, Metropolis sampling of the Gibbs law, and next-order
partition function asymptotics, with closed forms cross-checked against
independent numerical routes throughout.
"""

__version__ = "0.1.0"

from .errors import BracketError, ConvergenceError, DegenerateConfigError
from .model import (
    BUILTIN_POTENTIALS,
    EquilibriumMeasure,
    ModelConstants,
    Potential,
    blend,
    double_well,
    equilibrium_for,
    log_potential,
    mean_field_energy,
    model_constants,
    polynomial,
    quadratic,
    quartic,
    semicircle_equilibrium,
    solve_equilibrium,
    zeta,
)
from .renorm import PeriodicConfig, lattice, lattice_min, periodic_w, rescale_w
from .hamiltonian import (
    Configuration,
    EnergyBreakdown,
    breakdown,
    discrepancy,
    energy,
    gradient,
)
from .fekete import FeketeResult, hermite_oracle, hessian, minimize
from .field import CylinderField, make_field, w_quadrature
from .sampler import GasStatistics, SamplerConfig, metropolis_accept, run, run_many
from .partition import (
    PartitionReport,
    mehta_log_z,
    next_order_report,
    quadrature_log_z,
    thermo_log_z,
)

__all__ = [
    "BUILTIN_POTENTIALS",
    "BracketError",
    "Configuration",
    "ConvergenceError",
    "CylinderField",
    "DegenerateConfigError",
    "EnergyBreakdown",
    "EquilibriumMeasure",
    "FeketeResult",
    "GasStatistics",
    "ModelConstants",
    "PartitionReport",
    "PeriodicConfig",
    "Potential",
    "SamplerConfig",
    "blend",
    "breakdown",
    "discrepancy",
    "double_well",
    "energy",
    "equilibrium_for",
    "gradient",
    "hermite_oracle",
    "hessian",
    "lattice",
    "lattice_min",
    "log_potential",
    "make_field",
    "mean_field_energy",
    "mehta_log_z",
    "metropolis_accept",
    "minimize",
    "model_constants",
    "next_order_report",
    "periodic_w",
    "polynomial",
    "quadratic",
    "quadrature_log_z",
    "quartic",
    "rescale_w",
    "run",
    "run_many",
    "semicircle_equilibrium",
    "solve_equilibrium",
    "thermo_log_z",
    "w_quadrature",
    "zeta",
]

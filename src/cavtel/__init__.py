"""Teleportation fidelity between an inertial sender and a receiver
cavity undergoing piecewise inertial / uniformly accelerated motion.

Gaussian covariance pipeline throughout: two-mode squeezed resource,
symplectic images of Bogoliubov mode transformations, fidelity and
entanglement read off the reduced two-mode state.
"""

__version__ = "0.1.0"

from .errors import (
    CavtelError,
    ConsistencyError,
    PhysicalityError,
    QuadratureError,
    TrajectoryParseError,
    TruncationError,
)
from .gaussian import (
    make_two_mode_squeezed,
    partial_transpose,
    symplectic_eigenvalues,
    teleport_fidelity,
)
from .bogoliubov import (
    BogoliubovPair,
    CavityGeometry,
    RindlerGeometry,
    f_sums,
    rindler_period,
    sudden_switch_oracle,
    sudden_switch_perturbative,
)
from .trajectory import (
    Accelerated,
    Inertial,
    Trajectory,
    h_parameter,
    ledger,
    parse_trajectory,
    phase_pair,
)
from .protocol import (
    DEFAULT_GEOMETRY,
    FidelityReport,
    ProtocolParams,
    consistency_report,
    fidelity_corrected,
    fidelity_optimal,
    fidelity_raw,
    perturbative_fidelity,
    perturbative_optimal,
)

__all__ = [
    "__version__",
    "CavtelError", "ConsistencyError", "PhysicalityError",
    "QuadratureError", "TrajectoryParseError", "TruncationError",
    "make_two_mode_squeezed", "partial_transpose",
    "symplectic_eigenvalues", "teleport_fidelity",
    "BogoliubovPair", "CavityGeometry", "RindlerGeometry", "f_sums",
    "rindler_period", "sudden_switch_oracle",
    "sudden_switch_perturbative",
    "Accelerated", "Inertial", "Trajectory", "h_parameter", "ledger",
    "parse_trajectory", "phase_pair",
    "DEFAULT_GEOMETRY", "FidelityReport", "ProtocolParams",
    "consistency_report", "fidelity_corrected", "fidelity_optimal",
    "fidelity_raw", "perturbative_fidelity", "perturbative_optimal",
]

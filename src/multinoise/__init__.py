"""Robust stability certificates and maximally robust LQR design for
discrete-time linear systems with multiplicative noise.

The package certifies deterministic robust stability of perturbed plants
from mean-square stability of a multiplicative-noise model, solves the
associated generalized Riccati fixed point, and synthesizes gains that
maximize certified robustness margins.
"""

from .design import (
    DesignDiagnostics,
    DesignOptions,
    DesignResult,
    certainty_equivalent,
    design_algorithm_1,
    design_algorithm_2,
)
from .errors import (
    DimensionError,
    GridSizeError,
    MultinoiseError,
    NotMeanSquareStableError,
    NumericalError,
    ProblemFormatError,
    SingularPencilError,
    UnstabilizableError,
)
from .gare import GareOptions, GareSolution, solve_gare
from .margins import (
    BisectOptions,
    MarginCertificate,
    MarginMethod,
    aux_system_margins,
    compute_margins,
    conservative_margin_linearized,
    conservative_margin_simple,
    conservative_margins,
    single_direction_margin,
    nlmi_feasible,
    scalar_exact_margins,
    scalar_margin,
    shared_lyapunov_margins,
)
from .matops import (
    is_psd,
    psd_split,
    spectral_radius,
    symmetrize,
)
from .model import (
    CostPair,
    NoiseModel,
    NominalSystem,
    PerturbationBox,
    TrueSystem,
    UncertaintyStructure,
    closed_loop_substitution,
)
from .problems import Problem, inverted_pendulum, load_problem, parse_problem
from .stability import (
    GleSolution,
    is_mean_square_stable,
    moment_operator,
    solve_gle,
)
from .verify import (
    GridReport,
    MomentHistory,
    MonteCarloConfig,
    grid_verify,
    simulate_second_moment,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "NominalSystem", "TrueSystem", "NoiseModel", "UncertaintyStructure",
    "PerturbationBox", "CostPair", "closed_loop_substitution",
    # matops
    "symmetrize", "spectral_radius", "psd_split", "is_psd",
    # stability
    "GleSolution", "moment_operator", "is_mean_square_stable", "solve_gle",
    # gare
    "GareOptions", "GareSolution", "solve_gare",
    # margins
    "BisectOptions", "MarginMethod", "MarginCertificate", "scalar_margin",
    "nlmi_feasible", "shared_lyapunov_margins", "single_direction_margin",
    "conservative_margin_linearized", "conservative_margin_simple",
    "conservative_margins", "scalar_exact_margins", "aux_system_margins",
    "compute_margins",
    # design
    "DesignOptions", "DesignDiagnostics", "DesignResult",
    "certainty_equivalent", "design_algorithm_1", "design_algorithm_2",
    # verify
    "GridReport", "MonteCarloConfig", "MomentHistory", "grid_verify",
    "simulate_second_moment",
    # problems
    "Problem", "load_problem", "parse_problem", "inverted_pendulum",
    # errors
    "MultinoiseError", "DimensionError", "NotMeanSquareStableError",
    "UnstabilizableError", "SingularPencilError", "NumericalError",
    "GridSizeError", "ProblemFormatError",
]

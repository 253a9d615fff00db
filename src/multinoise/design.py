"""Robust controller synthesis.

Two complementary designs plus a certainty-equivalent baseline. The first
pushes the noise variances along the given uncertainty directions as high
as the Riccati solver tolerates, then certifies margins for the resulting
gain with a shared quadratic form (one-sided margins). The second bisects
the margins directly, running the Riccati solver on dynamics scaled up by
the margin-dependent factor so that its feasibility certifies two-sided
margins. Gains are always evaluated at the last parameter value that
passed the feasibility probe, never at an unresolved midpoint: near the
feasibility boundary the value matrix blows up, and a returned gain must
correspond to a certified parameter.

Runs are deterministic: identical inputs and options produce bit-identical
gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, UnstabilizableError
from .gare import GareOptions, GareSolution, feasible_gare_solution
from .margins import (
    BisectOptions,
    MarginCertificate,
    MarginMethod,
    _confirmed_edge,
    _margin_probe,
    bisect_max_feasible,
)
from .matops import spectral_radius
from .model import (
    CostPair,
    NoiseModel,
    NominalSystem,
    PerturbationBox,
    TrueSystem,
    UncertaintyStructure,
    closed_loop_substitution,
)
from .stability import solve_gle
from .verify import grid_verify

#: point budget for the inline worst-case grid diagnostic; explicit
#: verification with larger grids goes through verify.grid_verify
_DIAG_GRID_POINTS = 100_000

__all__ = [
    "DesignOptions",
    "DesignDiagnostics",
    "DesignResult",
    "certainty_equivalent",
    "design_algorithm_1",
    "design_algorithm_2",
]


@dataclass
class DesignOptions:
    """Solver and bisection settings for the design pipelines."""

    gare: GareOptions = field(default_factory=GareOptions)
    bisect: BisectOptions = field(default_factory=BisectOptions)
    #: samples per direction for the worst-case grid diagnostic
    grid_samples_per_dir: int = 100


@dataclass
class DesignDiagnostics:
    """Spectral radii summarizing a design."""

    rho_closed_loop: float
    worst_box_rho: float | None = None
    rho_true_closed_loop: float | None = None


@dataclass
class DesignResult:
    """Gain, margin certificate and diagnostics of one design run.

    ``y_star`` is the margin scaling; ``z_star`` is the variance scaling of
    the first design or the dynamics scale factor of the second.
    ``cap_hit`` flags a search that reached the bracket cap, meaning the
    reported parameter is a lower bound on an unbounded quantity (e.g. a
    zero uncertainty direction) rather than a resolved maximum.
    """

    K: np.ndarray
    certificate: MarginCertificate | None
    y_star: float
    z_star: float | None
    diagnostics: DesignDiagnostics
    cap_hit: bool = False


def _grid_samples(count: int, requested: int) -> int:
    if count == 0:
        return requested
    while requested ** count > _DIAG_GRID_POINTS and requested > 2:
        requested = max(2, int(requested // 2))
    return requested


def _diagnostics(
    sys: NominalSystem,
    noise: NoiseModel,
    K: np.ndarray,
    box: PerturbationBox | None,
    opts: DesignOptions,
    true_system: TrueSystem | None,
) -> DesignDiagnostics:
    A_cl, dirs = closed_loop_substitution(sys, noise, K)
    rho = spectral_radius(A_cl)
    worst = None
    if box is not None and box.bounds.size:
        samples = _grid_samples(len(dirs), opts.grid_samples_per_dir)
        worst = grid_verify(A_cl, dirs, box, samples).worst_rho
    rho_true = None
    if true_system is not None:
        rho_true = spectral_radius(true_system.A_bar + true_system.B_bar @ K)
    return DesignDiagnostics(
        rho_closed_loop=rho,
        worst_box_rho=worst,
        rho_true_closed_loop=rho_true,
    )


def certainty_equivalent(
    sys: NominalSystem,
    costs: CostPair,
    opts: DesignOptions | None = None,
    true_system: TrueSystem | None = None,
) -> DesignResult:
    """Baseline design on the nominal model, ignoring all uncertainty."""
    if opts is None:
        opts = DesignOptions()
    noise = NoiseModel()
    sol = feasible_gare_solution(sys, noise, costs, opts.gare)
    if sol is None:
        raise UnstabilizableError("nominal pair admits no stabilizing gain")
    return DesignResult(
        K=sol.K,
        certificate=None,
        y_star=0.0,
        z_star=None,
        diagnostics=_diagnostics(sys, noise, sol.K, None, opts, true_system),
    )


def _checked_structure(
    a_dir_mats, b_dir_mats, structure: UncertaintyStructure
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    a_mats = [np.asarray(D, dtype=float) for D in a_dir_mats]
    b_mats = [np.asarray(D, dtype=float) for D in b_dir_mats]
    if len(a_mats) != structure.p or len(b_mats) != structure.q:
        raise DimensionError(
            f"{len(a_mats)}+{len(b_mats)} directions but structure has "
            f"p={structure.p}, q={structure.q}"
        )
    if structure.q and np.any(structure.phi <= 0):
        raise ValueError(
            "input-direction weights must be strictly positive for design"
        )
    return a_mats, b_mats


def design_algorithm_1(
    sys: NominalSystem,
    costs: CostPair,
    a_dir_mats,
    b_dir_mats,
    structure: UncertaintyStructure,
    opts: DesignOptions | None = None,
    true_system: TrueSystem | None = None,
) -> DesignResult:
    """Maximally robust design with one-sided margins.

    Step 1 bisects the variance scale z, with per-direction variances
    proportional to the uncertainty weights, for the largest z* at which
    the Riccati solve still succeeds and yields a mean-square stable loop.
    Step 2 takes the gain at z* and scales the margins y to the edge of the
    shared-quadratic-form inequality with constant term Q + K^T R K,
    evaluated on the closed loop with the input directions folded in.
    """
    if opts is None:
        opts = DesignOptions()
    a_mats, b_mats = _checked_structure(a_dir_mats, b_dir_mats, structure)
    theta, phi = structure.theta, structure.phi

    last: GareSolution | None = None  # solution at the last feasible z

    def noise_at(z: float) -> NoiseModel:
        return NoiseModel(
            a_dirs=[(D, float(t * z)) for D, t in zip(a_mats, theta)],
            b_dirs=[(D, float(f * z)) for D, f in zip(b_mats, phi)],
        )

    def feasible_z(z: float) -> bool:
        nonlocal last
        sol = feasible_gare_solution(sys, noise_at(z), costs, opts.gare)
        if sol is not None:
            last = sol
        return sol is not None

    # the bisection probes z = 0 first; no feasible probe means none at 0
    z_star, z_cap = bisect_max_feasible(feasible_z, opts.bisect)
    if last is None:
        raise UnstabilizableError(
            "no stabilizing gain exists even at zero noise"
        )
    K, P = last.K, last.P
    noise = noise_at(z_star)
    A_cl, dirs = closed_loop_substitution(sys, noise, K)
    q_term = costs.Q + K.T @ costs.R @ K
    y_star, y_cap = _confirmed_edge(
        *_margin_probe(A_cl, dirs, q_term, P, structure.weights),
        opts.bisect.bracket_cap)
    box = PerturbationBox(
        eta=y_star * theta, psi=y_star * phi, bidirectional=False
    )
    cert = MarginCertificate(
        box=box,
        method=MarginMethod.SHARED_UNI,
        y_star=y_star,
        P=P,
        q_matrix=q_term,
        cap_hit=y_cap,
    )
    return DesignResult(
        K=K,
        certificate=cert,
        y_star=y_star,
        z_star=z_star,
        diagnostics=_diagnostics(sys, noise, K, box, opts, true_system),
        cap_hit=z_cap or y_cap,
    )


def design_algorithm_2(
    sys: NominalSystem,
    costs: CostPair,
    a_dir_mats,
    b_dir_mats,
    structure: UncertaintyStructure,
    opts: DesignOptions | None = None,
    true_system: TrueSystem | None = None,
) -> DesignResult:
    """Maximally robust design with two-sided margins.

    Bisects the margin scale y directly. At each candidate the margins are
    eta = y * weights, every direction receives variance
    eta_k * (1 + sum(eta)), and the Riccati solve runs on dynamics and
    input matrices scaled by sqrt(1 + sum(eta)). Feasibility of that
    auxiliary problem certifies the two-sided box, and the returned gain is
    the optimal gain of the auxiliary problem at the largest feasible y.
    """
    if opts is None:
        opts = DesignOptions()
    a_mats, b_mats = _checked_structure(a_dir_mats, b_dir_mats, structure)
    theta, phi = structure.theta, structure.phi
    w = structure.weights

    last: GareSolution | None = None  # solution at the last feasible y

    def scaled_problem(y: float) -> tuple[NominalSystem, NoiseModel, float]:
        bounds = y * w
        s = float(bounds.sum())
        z = math.sqrt(1.0 + s)
        noise = NoiseModel(
            a_dirs=[(D, float(b * (1.0 + s)))
                    for D, b in zip(a_mats, bounds[: structure.p])],
            b_dirs=[(D, float(b * (1.0 + s)))
                    for D, b in zip(b_mats, bounds[structure.p:])],
        )
        return NominalSystem(A=z * sys.A, B=z * sys.B), noise, z

    def feasible_y(y: float) -> bool:
        nonlocal last
        scaled_sys, noise, _ = scaled_problem(y)
        sol = feasible_gare_solution(scaled_sys, noise, costs, opts.gare)
        if sol is not None:
            last = sol
        return sol is not None

    # the bisection probes y = 0 first; no feasible probe means none at 0
    y_star, y_cap = bisect_max_feasible(feasible_y, opts.bisect)
    if last is None:
        raise UnstabilizableError(
            "no stabilizing gain exists even at zero margins"
        )
    K = last.K
    _, noise, z = scaled_problem(y_star)
    box = PerturbationBox(
        eta=y_star * theta, psi=y_star * phi, bidirectional=True
    )
    # steady-state solution of the auxiliary closed loop, the quadratic
    # form that simultaneously certifies every sign corner of the box
    A_cl, dirs = closed_loop_substitution(sys, noise, K)
    aux = solve_gle(z * A_cl, dirs, np.eye(sys.n))
    cert = MarginCertificate(
        box=box,
        method=MarginMethod.AUX_SCALED,
        y_star=y_star,
        P=aux.P,
        cap_hit=y_cap,
    )
    return DesignResult(
        K=K,
        certificate=cert,
        y_star=y_star,
        z_star=z,
        diagnostics=_diagnostics(sys, noise, K, box, opts, true_system),
        cap_hit=y_cap,
    )

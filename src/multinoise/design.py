"""Robust controller synthesis.

Two complementary designs plus a certainty-equivalent baseline. The first
pushes the noise variances along the given uncertainty directions as high
as the Riccati solver tolerates, then certifies margins for the resulting
gain with a shared quadratic form (one-sided margins). The second bisects
the margins directly, running the Riccati solver on dynamics scaled up by
the margin-dependent factor so that its feasibility certifies two-sided
margins. Gains always come from the Riccati solution that the bisection
hands back with the parameter it reports, never from an unresolved
midpoint: near the feasibility boundary the value matrix blows up, and a
returned gain must correspond to a certified parameter. Both designs take
their certificates from the builders in :mod:`multinoise.margins` that the
margin methods use: the shared-Lyapunov box on the Riccati P for the first,
the auxiliary-system box for the second. The second's P solves the GLE of
the auxiliary closed loop built from the same matrices whose mean-square
verdict the bisection read at y*, so the certificate rests on that verdict
bit for bit.

Each bisection asks for the points of its next few steps at once, and
their Riccati probes run as one stacked value iteration that returns one
verdict per point, a call with no arguments. Each verdict carries its
member's lead, the log of its stopping ratio carried to the iteration cap,
and once the bracket holds leads of both signs the bisection asks for the
path it predicts it will walk to the interpolated crossing. The bisection
calls the verdicts it would have probed one at a time and no others, so a
member's closed-loop check runs, and its numerical failure is raised, only
if the bisection reads it: the stacking and the leads change how long a
design takes, never what it returns. A true plant is checked against the
nominal one before any probe.

Runs are deterministic: identical inputs and options produce bit-identical
gains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionError, UnstabilizableError
from .gare import (GareOptions, GareSolution, _probe_stack,
                   feasible_gare_solution)
from .margins import (
    BisectOptions,
    MarginCertificate,
    _aux_certificate,
    _aux_scaling,
    _shared_certificate,
    bisect_max_feasible,
)
from .matops import spectral_radius
from .model import (
    CostPair,
    DirList,
    NoiseModel,
    NominalSystem,
    PerturbationBox,
    TrueSystem,
    UncertaintyStructure,
    _check_options,
    _check_true_shapes,
    closed_loop_substitution,
)
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


@dataclass(frozen=True)
class DesignOptions:
    """Solver and bisection settings for the design pipelines."""

    gare: GareOptions = field(default_factory=GareOptions)
    bisect: BisectOptions = field(default_factory=BisectOptions)
    #: samples per direction for the worst-case grid diagnostic, >= 2;
    #: halved while the grid exceeds the diagnostic's point budget
    grid_samples_per_dir: int = 100

    def __post_init__(self):
        _check_options(self, {"grid_samples_per_dir": 2})


@dataclass
class DesignDiagnostics:
    """Spectral radii summarizing a design. ``worst_box_rho`` is None
    without a box, or when 2 samples per direction already exceed the
    grid diagnostic's point budget."""

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


def _grid_samples(count: int, requested: int) -> int | None:
    """Samples per direction for the inline grid diagnostic: the request,
    halved until the grid fits the point budget; None when even 2 per
    direction overrun it."""
    if 2 ** count > _DIAG_GRID_POINTS:
        return None
    while requested ** count > _DIAG_GRID_POINTS and requested > 2:
        requested = max(2, requested // 2)
    return requested


def _diagnostics(
    A_cl: np.ndarray,
    dirs: DirList,
    K: np.ndarray,
    box: PerturbationBox | None,
    opts: DesignOptions,
    true_system: TrueSystem | None,
) -> DesignDiagnostics:
    rho = spectral_radius(A_cl)
    worst = None
    if box is not None and box.bounds.size:
        samples = _grid_samples(len(dirs), opts.grid_samples_per_dir)
        if samples is not None:
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
    opts = opts or DesignOptions()
    _check_true_shapes(sys, true_system)
    noise = NoiseModel()
    sol = feasible_gare_solution(sys, noise, costs, opts.gare)
    if sol is None:
        raise UnstabilizableError("nominal pair admits no stabilizing gain")
    A_cl, dirs = closed_loop_substitution(sys, noise, sol.K)
    return DesignResult(
        K=sol.K,
        certificate=None,
        y_star=0.0,
        z_star=None,
        diagnostics=_diagnostics(A_cl, dirs, sol.K, None, opts, true_system),
    )


def _checked_structure(
    a_dir_mats, b_dir_mats, structure: UncertaintyStructure
) -> NoiseModel:
    """The directions as a zero-variance noise model, after checking them
    against the structure."""
    a_mats, b_mats = list(a_dir_mats), list(b_dir_mats)
    if len(a_mats) != structure.p or len(b_mats) != structure.q:
        raise DimensionError(
            f"{len(a_mats)}+{len(b_mats)} directions but structure has "
            f"p={structure.p}, q={structure.q}"
        )
    if structure.q and np.any(structure.phi <= 0):
        raise ValueError(
            "input-direction weights must be strictly positive for design"
        )
    return NoiseModel(a_dirs=[(D, 0.0) for D in a_mats],
                      b_dirs=[(D, 0.0) for D in b_mats])


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
    opts = opts or DesignOptions()
    _check_true_shapes(sys, true_system)
    base = _checked_structure(a_dir_mats, b_dir_mats, structure)

    def noise_at(z: float) -> NoiseModel:
        return base.with_variances(z * structure.theta, z * structure.phi)

    def feasible_z(
        zs: tuple[float, ...],
    ) -> list[Callable[[], GareSolution | None]]:
        return _probe_stack([sys] * len(zs), [noise_at(z) for z in zs],
                            costs, opts.gare)

    # the bisection probes z = 0 first; no witness means none at 0
    z_star, z_cap, sol = bisect_max_feasible(feasible_z, opts.bisect)
    if sol is None:
        raise UnstabilizableError(
            "no stabilizing gain exists even at zero noise"
        )
    K = sol.K
    A_cl, dirs = closed_loop_substitution(sys, noise_at(z_star), K)
    cert = _shared_certificate(A_cl, dirs, costs.Q + K.T @ costs.R @ K,
                               sol.P, structure, False)
    return DesignResult(
        K=K,
        certificate=cert,
        y_star=cert.y_star,
        z_star=z_star,
        diagnostics=_diagnostics(A_cl, dirs, K, cert.box, opts, true_system),
        cap_hit=z_cap or cert.cap_hit,
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
    opts = opts or DesignOptions()
    _check_true_shapes(sys, true_system)
    base = _checked_structure(a_dir_mats, b_dir_mats, structure)
    w, p = structure.weights, structure.p

    def member(y: float) -> tuple[NominalSystem, NoiseModel]:
        # the auxiliary plant and noise whose Riccati probe decides y
        z, var = _aux_scaling(y, w)
        return (NominalSystem(A=z * sys.A, B=z * sys.B),
                base.with_variances(var[:p], var[p:]))

    def feasible_y(
        ys: tuple[float, ...],
    ) -> list[Callable[[], GareSolution | None]]:
        systems, noises = zip(*map(member, ys))
        return _probe_stack(systems, noises, costs, opts.gare)

    # the bisection probes y = 0 first; no witness means none at 0
    y_star, y_cap, sol = bisect_max_feasible(feasible_y, opts.bisect)
    if sol is None:
        raise UnstabilizableError(
            "no stabilizing gain exists even at zero margins"
        )
    K = sol.K
    # the steady-state solution of the auxiliary closed loop is the
    # quadratic form that certifies every sign corner of the box at once;
    # it is solved on the loop whose verdict the bisection read at y*
    cert = _aux_certificate(
        *closed_loop_substitution(*member(y_star), K), structure, y_star,
        y_cap)
    A_cl, dirs = closed_loop_substitution(sys, base, K)
    return DesignResult(
        K=K,
        certificate=cert,
        y_star=y_star,
        z_star=_aux_scaling(y_star, w)[0],
        diagnostics=_diagnostics(A_cl, dirs, K, cert.box, opts, true_system),
        cap_hit=y_cap,
    )

"""Robustness-margin computation.

Two families of certificates are produced. The shared-Lyapunov family fixes
the positive definite solution P of the steady-state quadratic equation and
scales the margin vector to the edge of a matrix inequality whose
feasibility proves that the same P certifies every perturbed plant in the
box. The auxiliary-system family instead scales the dynamics up by
sqrt(1 + sum of margins) and assigns each direction the matched variance;
mean-square stability of that auxiliary system proves two-sided
deterministic stability of the original plant.

Every margin edge, shared-Lyapunov, single-direction or aux, is 1 over a
quadratic pencil's largest real root, backed off until the method's own
check confirms it, so every returned certificate corresponds to a verified
feasibility test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, TypeVar

import numpy as np
import numpy.linalg as la

from .errors import DimensionError, NotMeanSquareStableError
from .matops import (_gen_eig_max, abs_part, is_psd, pos_part,
                     spectral_radius, symmetrize)
from .model import (DirList, PerturbationBox, UncertaintyStructure,
                    _check_options)
from .stability import _mss_holds, _svec_lift, solve_gle

__all__ = [
    "BisectOptions",
    "MarginMethod",
    "MarginCertificate",
    "bisect_max_feasible",
    "scalar_margin",
    "nlmi_feasible",
    "shared_lyapunov_margins",
    "single_direction_margin",
    "conservative_margin_linearized",
    "conservative_margin_simple",
    "conservative_margins",
    "scalar_exact_margins",
    "aux_system_margins",
    "compute_margins",
]

_W = TypeVar("_W")


class MarginMethod(str, Enum):
    """How a margin certificate was produced."""

    SHARED_UNI = "shared-uni"
    SHARED_BI = "shared-bi"
    AUX_SCALED = "aux"
    SCALAR_EXACT = "scalar"
    CONS_LINEARIZED = "cons-lin"
    CONS_SIMPLE = "cons-simple"


#: largest y any search reports, the margin edges and the designs'
#: bisections over z and y alike; a check that still passes there is
#: reported as ``cap_hit`` (an unbounded or degenerate margin), not as a
#: maximum. A power of two, so the bisection bracket doubles from 1 onto it.
BRACKET_CAP = 2.0 ** 60


@dataclass(frozen=True)
class BisectOptions:
    """Stopping rule for the designs' feasibility bisections over z and y.

    The bisection ends once its bracket is no wider than
    ``rel_tol * hi + 1e-12``, or when no float is left between its ends.
    ``rel_tol`` must be finite and >= 0, or building the options raises
    ``ValueError`` naming the field. The bracket cap is the constant
    :data:`BRACKET_CAP`, which the margin methods share.
    """

    rel_tol: float = 1e-6

    def __post_init__(self):
        _check_options(self, {"rel_tol": ">= 0"})


@dataclass
class MarginCertificate:
    """Certified perturbation box with its provenance.

    ``P`` is the certifying quadratic form for the shared-Lyapunov methods
    and the auxiliary-system steady-state solution for the aux method.
    ``q_matrix`` stores the constant left-hand term of the certifying
    matrix inequality when one was used, so the certificate can be
    re-verified standalone. ``zeta`` records the per-direction auxiliary
    scalars of the conservative routes.
    """

    box: PerturbationBox
    method: MarginMethod
    y_star: float
    P: np.ndarray | None = None
    q_matrix: np.ndarray | None = None
    zeta: np.ndarray | None = None
    cap_hit: bool = False


#: the bracket's upper ends while it grows: 0, then 1 doubling onto the cap
_GROWTH = (0.0,) + tuple(2.0 ** k
                         for k in range(int(math.log2(BRACKET_CAP)) + 1))
#: points asked for at once while the bracket grows, and levels of
#: midpoints (2^levels - 1 points) while it shrinks: one stacked probe of a
#: design bisection costs about its slowest member, and the verdicts the
#: walk does not reach are never called
_GROWTH_BATCH = 4
_LEVELS = 3


def _midpoints(lo: float, hi: float, rel_tol: float,
               levels: int) -> list[float]:
    """Every midpoint the bisection can probe in its next ``levels`` steps
    from [lo, hi], whichever way each step goes, under its own end test."""
    if levels == 0 or not hi - lo > rel_tol * hi + 1e-12:
        return []
    mid = 0.5 * (lo + hi)
    if not lo < mid < hi:  # no float left between the ends
        return []
    return ([mid] + _midpoints(lo, mid, rel_tol, levels - 1)
            + _midpoints(mid, hi, rel_tol, levels - 1))


def bisect_max_feasible(
    feasible: Callable[[tuple[float, ...]], Sequence[Callable[[], _W | None]]],
    opts: BisectOptions | None = None,
) -> tuple[float, bool, _W | None]:
    """Largest y >= 0 with a truthy verdict, for predicates that are
    monotone nonincreasing in y.

    ``feasible`` takes a tuple of y values and returns one verdict per
    value, a call with no arguments that decides its point: it returns a
    truthy witness or a falsy value, or raises. The bracket starts at
    [0, 1] and its upper end doubles until a probe fails; it then halves
    until it is no wider than ``rel_tol * hi + 1e-12``, or no float is
    left between its ends. Each call of ``feasible`` asks for the points
    of several steps at once: the next 4 points of the doubling (0 first,
    never past :data:`BRACKET_CAP`), then the 7 midpoints of the next 3
    halvings, whichever way each goes. The walk then calls the verdicts of
    exactly the points a one-point-at-a-time bisection would probe, in its
    order, so it returns the same result; the other verdicts are never
    called, and whatever they would decide or raise stays undone.

    Returns ``(y, cap_hit, witness)``: y was itself evaluated feasible,
    ``witness`` is what the verdict of y returned, and ``cap_hit`` says y
    is :data:`BRACKET_CAP`. If even y = 0 is infeasible, returns
    (0.0, False, None) without claiming feasibility.
    """
    rel_tol = (opts or BisectOptions()).rel_tol

    def ask(points):
        return dict(zip(points, feasible(tuple(points)), strict=True))

    lo, witness, verdicts = 0.0, None, {}
    for k, hi in enumerate(_GROWTH):
        if hi not in verdicts:
            verdicts = ask(_GROWTH[k:k + _GROWTH_BATCH])
        if not (probe := verdicts[hi]()):
            break
        lo, witness = hi, probe
    else:
        return lo, True, witness
    if witness is None:
        return 0.0, False, None
    verdicts = {}
    while hi - lo > rel_tol * hi + 1e-12:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # no float left between the ends
            break
        if mid not in verdicts:
            verdicts = ask(_midpoints(lo, hi, rel_tol, _LEVELS))
        if probe := verdicts[mid]():
            lo, witness = mid, probe
        else:
            hi = mid
    return lo, False, witness


def _pencil_root(L, R1, R0) -> float:
    """Largest real mu at which mu^2 L - mu R1 - R0 is singular: the
    largest real eigenvalue of the 2n companion [[L^-1 R1, L^-1 R0], [I, 0]]
    (Tisseur & Meerbergen, SIAM Review 2001), from one LU solve with L;
    inf if L is singular. The pencil need not be symmetric."""
    try:
        top = la.solve(L, np.hstack([R1, R0]))
    except la.LinAlgError:  # L singular along a direction: the edge y is 0
        return math.inf
    mu = la.eigvals(np.vstack([top, np.eye(len(L), 2 * len(L))]))
    # the largest real root is semisimple: its imaginary part is rounding
    real = mu.real[np.abs(mu.imag) <= 1e-8 * np.abs(mu).max()]
    return float(real.max()) if real.size else 0.0


def _confirmed_edge(pencil, holds,
                    cap: float = BRACKET_CAP) -> tuple[float, bool]:
    """Least y > 0 (at most cap) at which L - y R1 - y^2 R0 turns singular,
    for the pencil (L, R1, R0): 1/mu backed off by a relative 1e-9, tenfold
    further while the method's check ``holds(y)`` fails, else 0, which
    nominal stability proves; ``cap_hit``: the check passes at the cap."""
    mu = _pencil_root(*pencil)
    edge = cap if mu * cap <= 1.0 else 1.0 / mu  # mu <= 0: no root
    if edge == cap and holds(cap):
        return cap, True
    for k in range(9, 0, -1):
        y = edge * (1.0 - 10.0 ** -k)
        if y > 0.0 and holds(y):
            return y, False
    return 0.0, False


def _sqrt_shift_gap(zeta: float, alpha: float) -> float:
    # sqrt(zeta^2 + alpha) - zeta, in the cancellation-free form
    # alpha / (sqrt(zeta^2 + alpha) + zeta)
    if alpha == 0.0:
        return 0.0
    return alpha / (math.sqrt(zeta * zeta + alpha) + zeta)


def scalar_margin(a: float, alpha: float) -> float:
    """One-dimensional margin sqrt(a^2 + alpha) - |a|.

    Requires a^2 + alpha < 1 (the scalar mean-square stability condition);
    every constant shift of magnitude up to the returned value keeps the
    scalar plant stable. Collapses to zero when alpha = 0.
    """
    a = float(a)
    alpha = float(alpha)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if a * a + alpha >= 1.0:
        raise NotMeanSquareStableError(
            f"a^2 + alpha = {a * a + alpha:.6g} >= 1; no margin exists"
        )
    return _sqrt_shift_gap(abs(a), alpha)


def _dir_mats(dirs: DirList) -> list[np.ndarray]:
    return [np.asarray(D, dtype=float) for D, _ in dirs]


def _margin_probe(
    A_cl,
    dirs: DirList,
    Q_eff,
    P,
    w,
    bidirectional: bool = False,
) -> tuple[tuple[np.ndarray, ...], Callable[[float], bool]]:
    """Split the y-independent parts of the margin inequality
    L - y R1 - y^2 R0 >= 0 once; return its pencil (L, R1, R0) and the
    probe ``holds(y)`` at eta = y * w. The parts are L, the first-order and
    the pair parts of the directions with nonzero weight; a probe adds them
    in the order of a direct evaluation, so every verdict is bit-identical
    to splitting the terms afresh.
    """
    A_cl = np.asarray(A_cl, dtype=float)
    P = symmetrize(P)
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.size != len(dirs):
        raise DimensionError(
            f"got {w.size} margins for {len(dirs)} directions"
        )
    part = abs_part if bidirectional else pos_part
    lhs = symmetrize(np.asarray(Q_eff, dtype=float)).copy()
    mats = _dir_mats(dirs)
    for (D, a), Dm in zip(dirs, mats):
        if a != 0.0:
            lhs += a * (Dm.T @ P @ Dm)
    active = np.flatnonzero(w).tolist()
    PA = P @ A_cl
    first = {i: part(mats[i].T @ PA + PA.T @ mats[i]) for i in active}
    pairs = {}
    for i in active:
        PDi = P @ mats[i]
        for j in active:
            pairs[i, j] = part(mats[j].T @ PDi + PDi.T @ mats[j])
    R1 = sum((w[i] * F for i, F in first.items()), 0.0 * lhs)
    R0 = sum((w[i] * w[j] * F for (i, j), F in pairs.items()), 0.0 * lhs)

    def holds(y: float) -> bool:
        eta = y * w
        rhs = np.zeros_like(lhs)
        for i, F in first.items():
            rhs += eta[i] * F
        for (i, j), F in pairs.items():
            rhs += eta[i] * eta[j] * F
        return is_psd(lhs - rhs)

    return (lhs, R1, R0), holds


def nlmi_feasible(
    A_cl,
    dirs: DirList,
    Q_eff,
    P,
    eta,
    bidirectional: bool = False,
) -> bool:
    """Evaluate the margin matrix inequality at the given per-direction
    bounds.

    The left-hand side is ``Q_eff + sum_k alpha_k D_k^T P D_k`` with the
    variances taken from ``dirs``; the right-hand side collects the
    positive parts of the first-order cross terms with A_cl and of all
    second-order direction pairs, weighted by eta. In bidirectional mode
    the positive part is replaced by the matrix absolute value, which
    dominates both sign choices.
    """
    return _margin_probe(A_cl, dirs, Q_eff, P, eta, bidirectional)[1](1.0)


def _check_q_eff(Q_eff, n: int) -> np.ndarray:
    if Q_eff is None:
        return np.eye(n)
    Q_eff = symmetrize(Q_eff)
    if Q_eff.shape != (n, n):
        raise DimensionError(f"Q_eff must be {n}x{n}, got {Q_eff.shape}")
    return Q_eff


def _split_box(bounds: np.ndarray, p: int, bidirectional: bool) -> PerturbationBox:
    return PerturbationBox(
        eta=bounds[:p], psi=bounds[p:], bidirectional=bidirectional
    )


def _stable_gle(A_cl, dirs: DirList, Q) -> np.ndarray:
    """The steady-state GLE solution P; NotMeanSquareStableError if the
    instance is not mean-square stable."""
    sol = solve_gle(A_cl, dirs, Q)
    if not sol.mss:
        raise NotMeanSquareStableError(
            f"instance is not mean-square stable "
            f"(moment radius {sol.moment_radius:.6g})"
        )
    return sol.P


def _shared_certificate(A_cl, dirs: DirList, q_term, P, structure,
                        bidirectional: bool) -> MarginCertificate:
    """Certificate of the form P: the margins y * weights at the confirmed
    pencil edge of the margin inequality with constant term q_term."""
    w = structure.weights
    y_star, cap_hit = _confirmed_edge(
        *_margin_probe(A_cl, dirs, q_term, P, w, bidirectional))
    return MarginCertificate(
        box=_split_box(y_star * w, structure.p, bidirectional),
        method=MarginMethod.SHARED_BI if bidirectional else MarginMethod.SHARED_UNI,
        y_star=y_star,
        P=P,
        q_matrix=q_term,
        cap_hit=cap_hit,
    )


def _aux_scaling(y: float, w) -> tuple[float, np.ndarray]:
    """The auxiliary system at margins eta = y * w: its dynamics factor
    sqrt(1 + sum eta) and the matched variances eta (1 + sum eta)."""
    eta = y * w
    s = float(eta.sum())
    return math.sqrt(1.0 + s), eta * (1.0 + s)


def _aux_certificate(A_cl, dirs: DirList, structure, y: float,
                     cap_hit: bool) -> MarginCertificate:
    """Certificate of the two-sided box y * weights whose P solves the GLE
    of the auxiliary closed loop at y, with constant term I. The variances
    stored in ``dirs`` are not read."""
    w = structure.weights
    z, var = _aux_scaling(y, w)
    aux = solve_gle(z * A_cl, list(zip(_dir_mats(dirs), var)),
                    np.eye(len(A_cl)))
    return MarginCertificate(
        box=_split_box(y * w, structure.p, True),
        method=MarginMethod.AUX_SCALED,
        y_star=y,
        P=aux.P,
        cap_hit=cap_hit,
    )


def shared_lyapunov_margins(
    A_cl,
    dirs: DirList,
    Q_eff,
    structure: UncertaintyStructure,
    bidirectional: bool = False,
) -> MarginCertificate:
    """Maximal proportional margins certified by one quadratic form.

    Solves P = c * Q_eff + A_cl^T P A_cl + sum alpha_k D_k^T P D_k with c
    the direction count, then scales the margin vector eta = y * weights to
    the edge of :func:`nlmi_feasible`. Requires Q_eff >= I and a
    mean-square stable instance.
    """
    A_cl = np.asarray(A_cl, dtype=float)
    n = A_cl.shape[0]
    if len(dirs) != structure.p + structure.q:
        raise DimensionError(
            f"{len(dirs)} directions but structure has p+q = "
            f"{structure.p + structure.q}"
        )
    Q_eff = _check_q_eff(Q_eff, n)
    if not is_psd(Q_eff - np.eye(n)):
        raise ValueError("Q_eff must dominate the identity (Q_eff >= I)")
    q_term = len(dirs) * Q_eff
    return _shared_certificate(
        A_cl, dirs, q_term, _stable_gle(A_cl, dirs, q_term), structure,
        bidirectional)


def _single_dir_condition(zeta, alpha, Q_eff, DPD, cross_plus) -> bool:
    # coefficient 1 / (sqrt(zeta^2 + alpha) - zeta) grows without bound in
    # zeta, so feasibility is monotone nondecreasing
    coef = (math.sqrt(zeta * zeta + alpha) + zeta) / alpha
    return is_psd(coef * Q_eff + 2.0 * zeta * DPD - cross_plus)


def single_direction_margin(
    A_cl, A1, alpha1: float, Q_eff=None
) -> tuple[float, float]:
    """Single-direction margin from the smallest feasible auxiliary scalar.

    Finds the smallest zeta >= 0 satisfying the single-direction
    inequality and returns ``eta1 = sqrt(zeta^2 + alpha1) - zeta`` together
    with zeta. The margin is one-sided and never exceeds sqrt(alpha1).
    zeta is (alpha1 t - 1/t) / 2 at the largest root t of the pencil
    t^2 (Q_eff + alpha1 S) - t C - S, with S = A1'P A1 and C the positive
    part of A_cl'P A1 + A1'P A_cl; inf if there is none.
    """
    A_cl = np.asarray(A_cl, dtype=float)
    A1 = np.asarray(A1, dtype=float)
    alpha1 = float(alpha1)
    n = A_cl.shape[0]
    Q_eff = _check_q_eff(Q_eff, n)
    if alpha1 < 0:
        raise ValueError("alpha1 must be nonnegative")
    P = _stable_gle(A_cl, [(A1, alpha1)], Q_eff)
    if alpha1 == 0.0:  # the margin collapses with the variance
        return 0.0, 0.0
    DPD = A1.T @ P @ A1
    cross_plus = pos_part(A_cl.T @ P @ A1 + A1.T @ P @ A_cl)
    y_zero = math.sqrt(alpha1)  # the y = 1/t at which zeta is 0

    def zeta_at(y: float) -> float:
        return 0.5 * (alpha1 / y - y) if y < y_zero else 0.0

    y, _ = _confirmed_edge(
        (Q_eff + alpha1 * DPD, cross_plus, DPD),
        lambda y: _single_dir_condition(zeta_at(y), alpha1, Q_eff, DPD,
                                        cross_plus),
        y_zero,
    )
    zeta = zeta_at(y) if y > 0.0 else math.inf
    return _sqrt_shift_gap(zeta, alpha1), zeta


def conservative_margin_linearized(
    A_cl, A_i, alpha_i: float, P, Q_eff
) -> float:
    """Auxiliary scalar from one generalized eigenvalue, obtained by
    linearizing the coefficient function about zero (a global
    underestimator, hence conservative). The returned zeta satisfies the
    single-direction inequality."""
    A_cl = np.asarray(A_cl, dtype=float)
    A_i = np.asarray(A_i, dtype=float)
    P = symmetrize(P)
    Q_eff = symmetrize(Q_eff)
    alpha_i = float(alpha_i)
    if alpha_i <= 0:
        raise ValueError("alpha_i must be positive")
    cross_plus = pos_part(A_cl.T @ P @ A_i + A_i.T @ P @ A_cl)
    lhs = cross_plus - Q_eff / math.sqrt(alpha_i)
    rhs = Q_eff / alpha_i + 2.0 * (A_i.T @ P @ A_i)
    lam = _gen_eig_max(lhs, rhs)
    return max(lam, 0.0)


def conservative_margin_simple(A_cl, A_i, P, Q_eff, alpha_i: float) -> float:
    """Auxiliary scalar from the crudest generalized eigenvalue bound,
    which additionally discards the helpful quadratic direction term."""
    A_cl = np.asarray(A_cl, dtype=float)
    A_i = np.asarray(A_i, dtype=float)
    P = symmetrize(P)
    Q_eff = symmetrize(Q_eff)
    alpha_i = float(alpha_i)
    if alpha_i < 0:
        raise ValueError("alpha_i must be nonnegative")
    cross_plus = pos_part(A_cl.T @ P @ A_i + A_i.T @ P @ A_cl)
    lam = _gen_eig_max(cross_plus, Q_eff)
    if lam <= 1e-14:
        return 0.0
    return max(0.5 * (alpha_i * lam - 1.0 / lam), 0.0)


def conservative_margins(
    A_cl,
    dirs: DirList,
    Q_eff=None,
    kind: MarginMethod = MarginMethod.CONS_LINEARIZED,
    n_state_dirs: int | None = None,
) -> MarginCertificate:
    """Margin certificate built from per-direction auxiliary scalars.

    Each direction gets zeta_k from the chosen generalized-eigenvalue
    lemma and the per-direction envelope
    eta_bar_k = sqrt(zeta_k^2 + alpha_k) - zeta_k. With a single direction
    the envelope itself is the certified (one-sided) margin. With several,
    margins proportional to the envelopes are scaled to the edge of the
    joint matrix inequality, capped at the envelopes, which keeps every
    margin at or below its single-direction bound.
    """
    if kind not in (MarginMethod.CONS_LINEARIZED, MarginMethod.CONS_SIMPLE):
        raise ValueError(f"not a conservative method: {kind}")
    A_cl = np.asarray(A_cl, dtype=float)
    n = A_cl.shape[0]
    Q_eff = _check_q_eff(Q_eff, n)
    count = len(dirs)
    if count == 0:
        raise DimensionError("at least one direction is required")
    if n_state_dirs is None:
        n_state_dirs = count
    q_term = count * Q_eff
    P = _stable_gle(A_cl, dirs, q_term)
    zetas = np.zeros(count)
    caps = np.zeros(count)
    for k, (D, a) in enumerate(dirs):
        if a <= 0.0:
            zetas[k] = 0.0
            caps[k] = 0.0
            continue
        if kind is MarginMethod.CONS_LINEARIZED:
            zetas[k] = conservative_margin_linearized(A_cl, D, a, P, Q_eff)
        else:
            zetas[k] = conservative_margin_simple(A_cl, D, P, Q_eff, a)
        caps[k] = _sqrt_shift_gap(zetas[k], a)
    total = float(caps.sum())
    if total <= 0.0:
        return MarginCertificate(
            box=_split_box(np.zeros(count), n_state_dirs, False),
            method=kind, y_star=0.0, P=P, q_matrix=q_term, zeta=zetas,
        )
    if count == 1:
        bounds = caps.copy()
        y_star = total
    else:
        w = caps / total
        y_star, _ = _confirmed_edge(*_margin_probe(A_cl, dirs, q_term, P, w),
                                    min(total, BRACKET_CAP))
        bounds = y_star * w
    return MarginCertificate(
        box=_split_box(bounds, n_state_dirs, False),
        method=kind,
        y_star=y_star,
        P=P,
        q_matrix=q_term,
        zeta=zetas,
    )


def scalar_exact_margins(
    A_cl,
    dirs: DirList,
    structure: UncertaintyStructure,
) -> MarginCertificate:
    """Exact two-sided margins for one-dimensional plants.

    For scalars the quadratic-form machinery collapses to the closed form
    sqrt(a^2 + total variance) - |a| on the combined shift; the budget is
    split across directions in proportion to the uncertainty weights.
    """
    A_cl = np.asarray(A_cl, dtype=float)
    if A_cl.shape != (1, 1):
        raise DimensionError("scalar margins require a 1x1 plant")
    if len(dirs) != structure.p + structure.q:
        raise DimensionError("direction count does not match structure")
    a = float(A_cl[0, 0])
    coeffs = np.array([float(np.asarray(D).reshape(())) for D, _ in dirs])
    variances = np.array([v for _, v in dirs])
    total_var = float(np.sum(variances * coeffs ** 2))
    if a * a + total_var >= 1.0:
        raise NotMeanSquareStableError(
            f"a^2 + total variance = {a * a + total_var:.6g} >= 1"
        )
    margin = _sqrt_shift_gap(abs(a), total_var)
    w = structure.weights
    denom = float(np.sum(w * np.abs(coeffs)))
    cap_hit = False
    if denom <= 0.0:
        # perturbations along zero directions never destabilize
        y_star = BRACKET_CAP
        cap_hit = True
    else:
        y_star = margin / denom
    P = np.array([[1.0 / (1.0 - a * a - total_var)]])
    return MarginCertificate(
        box=_split_box(y_star * w, structure.p, True),
        method=MarginMethod.SCALAR_EXACT,
        y_star=y_star,
        P=P,
        cap_hit=cap_hit,
    )


def aux_system_margins(
    A_cl,
    dirs: DirList,
    structure: UncertaintyStructure,
) -> MarginCertificate:
    """Two-sided margins via mean-square stability of a scaled auxiliary
    system.

    At scaling y the margins are eta = y * weights (which sum to one), the
    dynamics are multiplied by sqrt(1 + y) and each direction receives the
    least variance eta_k (1 + y) meeting the variance condition; mean-square
    stability of that system certifies |mu_k| < eta_k. Its moment operator
    T(y) = (1 + y)(M0 + y M1), M0 the lift of A_cl and M1 the weighted lift
    of the directions, is a positive map growing in y, so I - T(y) first
    turns singular at the edge of the pencil (I - M0, M0 + M1, M1). A
    nominal loop that is not Schur stable certifies no box and raises
    :class:`NotMeanSquareStableError`, as the other methods do.
    """
    A_cl = np.asarray(A_cl, dtype=float)
    if len(dirs) != structure.p + structure.q:
        raise DimensionError("direction count does not match structure")
    w = structure.weights
    mats = _dir_mats(dirs)

    def holds(y: float) -> bool:
        z, var = _aux_scaling(y, w)
        return _mss_holds(z * A_cl, list(zip(mats, var)))

    if not holds(0.0):
        # at y = 0 the auxiliary system is the nominal loop itself
        raise NotMeanSquareStableError(
            f"nominal loop is not stable "
            f"(spectral radius {spectral_radius(A_cl):.6g})"
        )
    M0 = _svec_lift(A_cl, [])
    M1 = sum(wk * _svec_lift(D, []) for D, wk in zip(mats, w) if wk)
    y_star, cap_hit = _confirmed_edge(
        (np.eye(len(M0)) - M0, M0 + M1, M1), holds)
    return _aux_certificate(A_cl, dirs, structure, y_star, cap_hit)


def compute_margins(
    method: MarginMethod | str,
    A_cl,
    dirs: DirList,
    structure: UncertaintyStructure,
    Q_eff=None,
) -> MarginCertificate:
    """Dispatch a margin query to the requested method.

    Only the shared-form and conservative methods read ``Q_eff`` (default
    I); the aux method certifies with the constant term I and the scalar
    method with its closed form. No method reads solver options: every
    edge is capped at :data:`BRACKET_CAP`.
    """
    method = MarginMethod(method)
    if method is MarginMethod.SHARED_UNI:
        return shared_lyapunov_margins(A_cl, dirs, Q_eff, structure, False)
    if method is MarginMethod.SHARED_BI:
        return shared_lyapunov_margins(A_cl, dirs, Q_eff, structure, True)
    if method is MarginMethod.AUX_SCALED:
        return aux_system_margins(A_cl, dirs, structure)
    if method is MarginMethod.SCALAR_EXACT:
        return scalar_exact_margins(A_cl, dirs, structure)
    return conservative_margins(A_cl, dirs, Q_eff, method, structure.p)

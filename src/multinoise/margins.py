"""Robustness-margin computation.

Two families of certificates are produced. The shared-Lyapunov family fixes
the positive definite solution P of the steady-state quadratic equation and
bisects a scaling of the margin vector on a matrix inequality whose
feasibility proves that the same P certifies every perturbed plant in the
box. The auxiliary-system family instead scales the dynamics up by
sqrt(1 + sum of margins) and assigns each direction the matched variance;
mean-square stability of that auxiliary system proves two-sided
deterministic stability of the original plant.

All bisections return the last parameter value that was actually evaluated
feasible, never the midpoint of an unresolved bracket, so every returned
certificate corresponds to a verified feasibility test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DimensionError, NotMeanSquareStableError, NumericalError
from .matops import abs_part, is_psd, pos_part, symmetrize
from .model import DirList, PerturbationBox, UncertaintyStructure
from .stability import _mss_holds, solve_gle

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


class MarginMethod(str, Enum):
    """How a margin certificate was produced."""

    SHARED_UNI = "shared-uni"
    SHARED_BI = "shared-bi"
    AUX_SCALED = "aux"
    SCALAR_EXACT = "scalar"
    CONS_LINEARIZED = "cons-lin"
    CONS_SIMPLE = "cons-simple"


@dataclass
class BisectOptions:
    """Bracket policy for feasibility bisections.

    The bracket starts at [0, 1] and the upper end doubles until it turns
    infeasible; hitting ``bracket_cap`` is reported as a distinct
    ``cap_hit`` diagnostic (the margin is unbounded or degenerate) rather
    than silently returned as a maximum.
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-12
    bracket_cap: float = 2.0 ** 60


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


def bisect_max_feasible(
    feasible: Callable[[float], bool],
    opts: BisectOptions | None = None,
) -> tuple[float, bool]:
    """Largest y >= 0 with ``feasible(y)`` true, for predicates that are
    monotone nonincreasing in y.

    Returns ``(y, cap_hit)`` where y was itself evaluated feasible. If even
    y = 0 is infeasible, returns (0.0, False) without claiming feasibility;
    callers that need feasibility at zero must check it themselves.
    """
    if opts is None:
        opts = BisectOptions()
    if not feasible(0.0):
        return 0.0, False
    lo, hi = 0.0, 1.0
    while feasible(hi):
        lo = hi
        hi *= 2.0
        if hi > opts.bracket_cap:
            return lo, True
    while hi - lo > opts.rel_tol * hi + opts.abs_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # no float left between the ends
            break
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo, False


def _bisect_min_feasible(
    feasible: Callable[[float], bool],
    abs_tol: float = 1e-9,
    cap: float = 2.0 ** 60,
) -> float:
    """Smallest z >= 0 with ``feasible(z)`` true, for predicates monotone
    nondecreasing in z; returns the feasible upper end of the final
    bracket."""
    if feasible(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while not feasible(hi):
        lo = hi
        hi *= 2.0
        if hi > cap:
            raise NumericalError(
                "auxiliary-scalar bisection found no feasible value"
            )
    while hi - lo > abs_tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


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
    support,
    bidirectional: bool = False,
) -> Callable[[np.ndarray], bool]:
    """Split the y-independent parts of the margin inequality once and
    return the probe ``holds(eta)`` that weights them.

    The parts are the left-hand side, the p first-order parts and the p^2
    pair parts of the directions flagged in ``support``; ``eta`` must
    vanish outside it. A probe adds the weighted parts in the same order
    and skips the same zero entries as a direct evaluation, so every
    verdict is bit-identical to splitting the terms afresh.
    """
    A_cl = np.asarray(A_cl, dtype=float)
    P = symmetrize(P)
    support = np.atleast_1d(np.asarray(support, dtype=bool))
    if support.size != len(dirs):
        raise DimensionError(
            f"got {support.size} margins for {len(dirs)} directions"
        )
    part = abs_part if bidirectional else pos_part
    lhs = symmetrize(np.asarray(Q_eff, dtype=float)).copy()
    mats = _dir_mats(dirs)
    for (D, a), Dm in zip(dirs, mats):
        if a != 0.0:
            lhs += a * (Dm.T @ P @ Dm)
    active = np.flatnonzero(support).tolist()
    PA = P @ A_cl
    first = {i: part(mats[i].T @ PA + PA.T @ mats[i]) for i in active}
    pairs = {}
    for i in active:
        PDi = P @ mats[i]
        for j in active:
            pairs[i, j] = part(mats[j].T @ PDi + PDi.T @ mats[j])

    def holds(eta: np.ndarray) -> bool:
        rhs = np.zeros_like(lhs)
        for i in active:
            if eta[i] != 0.0:
                rhs += eta[i] * first[i]
        for i in active:
            ei = eta[i]
            if ei == 0.0:
                continue
            for j in active:
                ej = eta[j]
                if ej != 0.0:
                    rhs += ei * ej * pairs[i, j]
        return is_psd(lhs - rhs)

    return holds


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
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    return _margin_probe(A_cl, dirs, Q_eff, P, eta != 0.0, bidirectional)(eta)


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


def shared_lyapunov_margins(
    A_cl,
    dirs: DirList,
    Q_eff,
    structure: UncertaintyStructure,
    bidirectional: bool = False,
    bisect_opts: BisectOptions | None = None,
) -> MarginCertificate:
    """Maximal proportional margins certified by one quadratic form.

    Solves P = c * Q_eff + A_cl^T P A_cl + sum alpha_k D_k^T P D_k with c
    the direction count, then bisects the scaling y of the margin vector
    eta = y * weights on :func:`nlmi_feasible`. Requires Q_eff >= I and a
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
    count = len(dirs)
    q_term = count * Q_eff
    sol = solve_gle(A_cl, dirs, q_term)
    if not sol.mss:
        raise NotMeanSquareStableError(
            f"instance is not mean-square stable "
            f"(moment radius {sol.moment_radius:.6g})"
        )
    w = structure.weights
    holds = _margin_probe(A_cl, dirs, q_term, sol.P, w != 0.0, bidirectional)

    def feasible(y: float) -> bool:
        return holds(y * w)

    y_star, cap_hit = bisect_max_feasible(feasible, bisect_opts)
    return MarginCertificate(
        box=_split_box(y_star * w, structure.p, bidirectional),
        method=MarginMethod.SHARED_BI if bidirectional else MarginMethod.SHARED_UNI,
        y_star=y_star,
        P=sol.P,
        q_matrix=q_term,
        cap_hit=cap_hit,
    )


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
    """
    A_cl = np.asarray(A_cl, dtype=float)
    A1 = np.asarray(A1, dtype=float)
    alpha1 = float(alpha1)
    n = A_cl.shape[0]
    Q_eff = _check_q_eff(Q_eff, n)
    if alpha1 < 0:
        raise ValueError("alpha1 must be nonnegative")
    sol = solve_gle(A_cl, [(A1, alpha1)], Q_eff)
    if not sol.mss:
        raise NotMeanSquareStableError(
            f"instance is not mean-square stable "
            f"(moment radius {sol.moment_radius:.6g})"
        )
    if alpha1 == 0.0:  # the margin collapses with the variance
        return 0.0, 0.0
    P = sol.P
    DPD = A1.T @ P @ A1
    cross_plus = pos_part(A_cl.T @ P @ A1 + A1.T @ P @ A_cl)
    zeta = _bisect_min_feasible(
        lambda z: _single_dir_condition(z, alpha1, Q_eff, DPD, cross_plus),
        abs_tol=1e-9,
    )
    return _sqrt_shift_gap(zeta, alpha1), zeta


def conservative_margin_linearized(
    A_cl, A_i, alpha_i: float, P, Q_eff
) -> float:
    """Auxiliary scalar from one generalized eigenvalue, obtained by
    linearizing the coefficient function about zero (a global
    underestimator, hence conservative). The returned zeta satisfies the
    single-direction inequality."""
    from .matops import gen_eig_max

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
    lam = gen_eig_max(lhs, rhs)
    return max(lam, 0.0)


def conservative_margin_simple(A_cl, A_i, P, Q_eff, alpha_i: float) -> float:
    """Auxiliary scalar from the crudest generalized eigenvalue bound,
    which additionally discards the helpful quadratic direction term."""
    from .matops import gen_eig_max

    A_cl = np.asarray(A_cl, dtype=float)
    A_i = np.asarray(A_i, dtype=float)
    P = symmetrize(P)
    Q_eff = symmetrize(Q_eff)
    alpha_i = float(alpha_i)
    if alpha_i < 0:
        raise ValueError("alpha_i must be nonnegative")
    cross_plus = pos_part(A_cl.T @ P @ A_i + A_i.T @ P @ A_cl)
    lam = gen_eig_max(cross_plus, Q_eff)
    if lam <= 1e-14:
        return 0.0
    return max(0.5 * (alpha_i * lam - 1.0 / lam), 0.0)


def conservative_margins(
    A_cl,
    dirs: DirList,
    Q_eff=None,
    kind: MarginMethod = MarginMethod.CONS_LINEARIZED,
    n_state_dirs: int | None = None,
    bisect_opts: BisectOptions | None = None,
) -> MarginCertificate:
    """Margin certificate built from per-direction auxiliary scalars.

    Each direction gets zeta_k from the chosen generalized-eigenvalue
    lemma and the per-direction envelope
    eta_bar_k = sqrt(zeta_k^2 + alpha_k) - zeta_k. With a single direction
    the envelope itself is the certified (one-sided) margin. With several,
    margins proportional to the envelopes are bisected on the joint matrix
    inequality and additionally capped at the envelopes, which keeps every
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
    sol = solve_gle(A_cl, dirs, q_term)
    if not sol.mss:
        raise NotMeanSquareStableError(
            f"instance is not mean-square stable "
            f"(moment radius {sol.moment_radius:.6g})"
        )
    P = sol.P
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
        holds = _margin_probe(A_cl, dirs, q_term, P, w != 0.0)

        def feasible(y: float) -> bool:
            return holds(y * w)

        y_nlmi, _ = bisect_max_feasible(feasible, bisect_opts)
        y_star = min(y_nlmi, total)
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
    bisect_opts: BisectOptions | None = None,
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
    if bisect_opts is None:
        bisect_opts = BisectOptions()
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
        y_star = bisect_opts.bracket_cap
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
    q_cert=None,
    bisect_opts: BisectOptions | None = None,
) -> MarginCertificate:
    """Two-sided margins via mean-square stability of a scaled auxiliary
    system.

    At candidate scaling y the margins are eta = y * weights, the dynamics
    are multiplied by sqrt(1 + sum(eta)) and each direction receives
    variance eta_k * (1 + sum(eta)), the least-noise choice satisfying the
    variance condition with equality. The largest y whose auxiliary system
    is mean-square stable certifies |mu_k| < eta_k. If the plant itself is
    unstable a zero-margin certificate is returned.
    """
    A_cl = np.asarray(A_cl, dtype=float)
    n = A_cl.shape[0]
    if len(dirs) != structure.p + structure.q:
        raise DimensionError("direction count does not match structure")
    w = structure.weights
    mats = _dir_mats(dirs)

    def aux_dirs(y: float) -> DirList:
        eta = y * w
        s = float(eta.sum())
        return [(D, e * (1.0 + s)) for D, e in zip(mats, eta)], s

    any_feasible = False

    def feasible(y: float) -> bool:
        nonlocal any_feasible
        d, s = aux_dirs(y)
        mss = _mss_holds(math.sqrt(1.0 + s) * A_cl, d)
        any_feasible = any_feasible or mss
        return mss

    # the bisection probes y = 0 first; no feasible probe means none at 0
    y_star, cap_hit = bisect_max_feasible(feasible, bisect_opts)
    if not any_feasible:
        return MarginCertificate(
            box=_split_box(np.zeros(len(dirs)), structure.p, True),
            method=MarginMethod.AUX_SCALED,
            y_star=0.0,
        )
    d, s = aux_dirs(y_star)
    q_cert = _check_q_eff(q_cert, n)
    aux_sol = solve_gle(math.sqrt(1.0 + s) * A_cl, d, q_cert)
    return MarginCertificate(
        box=_split_box(y_star * w, structure.p, True),
        method=MarginMethod.AUX_SCALED,
        y_star=y_star,
        P=aux_sol.P,
        cap_hit=cap_hit,
    )


def compute_margins(
    method: MarginMethod | str,
    A_cl,
    dirs: DirList,
    structure: UncertaintyStructure,
    Q_eff=None,
    bisect_opts: BisectOptions | None = None,
) -> MarginCertificate:
    """Dispatch a margin query to the requested method."""
    method = MarginMethod(method)
    if method is MarginMethod.SHARED_UNI:
        return shared_lyapunov_margins(A_cl, dirs, Q_eff, structure, False,
                                       bisect_opts)
    if method is MarginMethod.SHARED_BI:
        return shared_lyapunov_margins(A_cl, dirs, Q_eff, structure, True,
                                       bisect_opts)
    if method is MarginMethod.AUX_SCALED:
        return aux_system_margins(A_cl, dirs, structure, Q_eff, bisect_opts)
    if method is MarginMethod.SCALAR_EXACT:
        return scalar_exact_margins(A_cl, dirs, structure, bisect_opts)
    return conservative_margins(
        A_cl, dirs, Q_eff, method, structure.p, bisect_opts
    )

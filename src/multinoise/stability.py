"""Exact mean-square and deterministic stability certification.

Mean-square stability of a multiplicative-noise system is decided by the
spectral radius of the lifted second-moment operator, an n^2 x n^2 matrix
acting on vectorized symmetric matrices. The same lift turns the
steady-state quadratic (generalized Lyapunov) equation into a direct linear
solve. The direct solve is O(n^6), which is fine in the intended
desk-scale design regime; large-scale iterative solvers are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as la

from .errors import NumericalError
from .matops import is_psd, spectral_radius, symmetrize, unvec, vec
from .model import DirList

__all__ = [
    "GleSolution",
    "moment_operator",
    "is_mean_square_stable",
    "solve_gle",
    "MSS_MARGIN",
]

#: Strictness slack: a moment radius within this of 1 counts as unstable.
MSS_MARGIN = 1e-10


@dataclass
class GleSolution:
    """Solution record of the steady-state quadratic equation
    P = Q + A_cl^T P A_cl + sum_i alpha_i D_i^T P D_i.

    ``P`` is present (symmetric positive definite, small residual) exactly
    when the instance is mean-square stable; ``moment_radius`` is the
    spectral radius of the second-moment operator either way.
    """

    P: np.ndarray | None
    mss: bool
    moment_radius: float


def moment_operator(A_cl, dirs: DirList) -> np.ndarray:
    """Lift of the map P -> A_cl^T P A_cl + sum_i alpha_i D_i^T P D_i.

    Acts on column-stacked vec(P); its transpose propagates state
    covariances forward in time.
    """
    A_cl = np.asarray(A_cl, dtype=float)
    M = np.kron(A_cl.T, A_cl.T)
    for D, a in dirs:
        if a != 0.0:
            D = np.asarray(D, dtype=float)
            M = M + a * np.kron(D.T, D.T)
    return M


def is_mean_square_stable(A_cl, dirs: DirList) -> tuple[bool, float]:
    """Decide mean-square stability and return the moment radius.

    The state second moment converges to zero for every bounded initial
    state iff the moment-operator spectral radius is strictly below one.
    """
    return _mss_verdict(moment_operator(A_cl, dirs))


def _mss_verdict(M) -> tuple[bool, float]:
    r = spectral_radius(M)
    return r < 1.0 - MSS_MARGIN, r


def solve_gle(A_cl, dirs: DirList, Q) -> GleSolution:
    """Solve the steady-state quadratic equation for P given Q > 0.

    Returns ``mss=False`` with no P when the instance is not mean-square
    stable. On success P is symmetrized and checked for positive
    definiteness and a relative fixed-point residual below 1e-8.
    """
    A_cl = np.asarray(A_cl, dtype=float)
    Q = symmetrize(Q)
    n = A_cl.shape[0]
    M = moment_operator(A_cl, dirs)
    mss, radius = _mss_verdict(M)
    if not mss:
        return GleSolution(P=None, mss=False, moment_radius=radius)
    try:
        pv = la.solve(np.eye(n * n) - M, vec(Q))
    except la.LinAlgError as exc:
        raise NumericalError(f"lifted solve failed: {exc}") from exc
    P = symmetrize(unvec(pv, n))
    residual = la.norm(P - Q - unvec(M @ vec(P), n), "fro")
    pnorm = la.norm(P, "fro")
    if residual > 1e-8 * pnorm:
        raise NumericalError(
            f"fixed-point residual {residual:.3e} exceeds 1e-8 * ||P||"
        )
    if not is_psd(P, tol=0.0) or la.eigvalsh(P)[0] <= 0:
        raise NumericalError("solution P is not positive definite")
    return GleSolution(P=P, mss=True, moment_radius=radius)

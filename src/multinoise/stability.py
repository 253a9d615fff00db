"""Exact mean-square and deterministic stability certification.

Mean-square stability of a multiplicative-noise system is decided by the
second-moment operator M: P -> A_cl^T P A_cl + sum_i alpha_i D_i^T P D_i,
a positive map that sends symmetric matrices to symmetric matrices. The
system is mean-square stable iff rho(M) < 1.

Two exact facts make that decision cheap:

- **The symmetric lift.** M acts on svec coordinates (the stacked lower
  triangle of a symmetric matrix), an N x N matrix with N = n(n+1)/2 in
  place of the n^2 x n^2 lift on vec coordinates. It loses nothing: the
  spectral radius of a positive map is attained at a symmetric PSD
  eigenvector (Krein-Rutman), so both lifts have the same radius. The
  svec lift is built from index maps cached per n.
- **A verdict from one LU.** rho(M) < 1 iff the solution X of
  (I - M)(X) = I exists and is positive definite. If rho(M) < 1 then
  X = sum_k M^k(I) >= I. Conversely, pair X - M(X) = I with the PSD Perron
  eigenvector Y of the adjoint map: (1 - rho) <Y, X> = tr Y > 0, which
  rules out a positive definite X when rho >= 1.

The verdict thus costs one O(N^3) LU and an n x n Cholesky factorization,
with no eigensolver, and the steady-state quadratic (generalized Lyapunov)
equation is one more LU solve on the same lift, made only once the verdict
passes: :func:`solve_gle` returns a P or raises. :func:`is_mean_square_stable`
reports the eigenvalue radius of this lift too, and the value iteration of
:mod:`multinoise.gare` runs on svec coordinates; :func:`moment_operator`,
the n^2 x n^2 lift on vec coordinates, is only the reference for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
import numpy.linalg as la

from .errors import DimensionError, NotMeanSquareStableError, NumericalError
from .matops import spectral_radius, symmetrize
from .model import DirList, _closed_loop_stack

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

    ``P`` is symmetric positive definite with a small residual: a solve
    that cannot certify one raises instead of returning.
    """

    P: np.ndarray


def _lifted_dirs(A_cl, dirs: DirList):
    # the closed loop and the directions with nonzero variance, as one
    # stack of matrices and their weights
    weights = np.array([1.0] + [a for _, a in dirs])
    keep = weights != 0.0
    return _closed_loop_stack(A_cl, dirs)[keep], weights[keep]


def moment_operator(A_cl, dirs: DirList) -> np.ndarray:
    """Lift of the map P -> A_cl^T P A_cl + sum_i alpha_i D_i^T P D_i on
    column-stacked vec(P), an n^2 x n^2 sum of Kronecker products; its
    transpose propagates state covariances forward in time.

    The reference lift: the solvers use the svec lift, with the same
    spectral radius, and share only the shape checks with this one, which
    the tests and the benchmark checks use as their oracle.
    """
    mats, weights = _lifted_dirs(A_cl, dirs)
    M = np.kron(mats[0].T, mats[0].T)
    for D, a in zip(mats[1:], weights[1:]):
        M = M + a * np.kron(D.T, D.T)
    return M


@cache
def _svec_maps(n: int):
    """Index maps of svec coordinates for n x n symmetric matrices:
    coordinate r stands for the entry (R[r], C[r]) with R[r] >= C[r], and
    ``eye`` is the svec of the identity."""
    R, C = np.tril_indices(n)
    eye = (R == C).astype(float)
    for a in (R, C, eye):
        a.flags.writeable = False
    return R, C, eye


def _svec_map_lift(U, V, weights, rows, cols) -> np.ndarray:
    """Matrix of X -> sum_t w_t U_t^T X V_t from the svec coordinates of a
    symmetric n x n X to the entries (rows[r], cols[r]) of the result.

    U and V are stacks of T matrices with n rows each. Column c = (i, j)
    holds the map at E_ij + E_ji for i != j and at E_ii for i = j, so its
    row r = (k, l) is, summed over t with the weights,
    U[i, k] V[j, l] + U[j, k] V[i, l], halved when i = j. The four factors
    are gathered from the transposes through the index maps, one factor
    pair at a time to bound the temporaries.
    """
    R, C, eye = _svec_maps(U.shape[1])
    UR = U.transpose(0, 2, 1).take(rows, axis=1)
    VC = V.transpose(0, 2, 1).take(cols, axis=1)
    terms = UR.take(R, axis=2)  # U[i, k]
    terms *= VC.take(C, axis=2)  # V[j, l]
    pair = UR.take(C, axis=2)  # U[j, k]
    pair *= VC.take(R, axis=2)  # V[i, l]
    terms += pair
    S = (weights @ terms.reshape(len(weights), -1)).reshape(len(rows), R.size)
    return S * (1.0 - 0.5 * eye)


def _svec_lift(A_cl, dirs: DirList) -> np.ndarray:
    """The second-moment operator on svec coordinates, N = n(n+1)/2: the
    map of :func:`_svec_map_lift` with U = V = the lifted matrices and the
    svec coordinates as output rows."""
    mats, weights = _lifted_dirs(A_cl, dirs)
    R, C, _ = _svec_maps(mats.shape[1])
    return _svec_map_lift(mats, mats, weights, R, C)


def _unsvec(x, n: int) -> np.ndarray:
    R, C, _ = _svec_maps(n)
    X = np.empty((n, n))
    X[R, C] = x
    X[C, R] = x
    return X


def _shifted(S, c: float) -> np.ndarray:
    """c I - S."""
    K = -S
    K.flat[::K.shape[0] + 1] += c
    return K


def _lift_verdict(S, n: int) -> bool:
    """Mean-square stability from the svec lift S of M, by one LU.

    Factors (1 - MSS_MARGIN) I - S and checks that the solution X of
    ((1 - MSS_MARGIN) I - M)(X) = I is positive definite. That holds iff
    rho(M / (1 - MSS_MARGIN)) < 1, that is iff rho(M) < 1 - MSS_MARGIN:
    the same threshold as the radius verdict of
    :func:`is_mean_square_stable`, never a looser one. The two may differ
    by rounding only in a thin band around the threshold. A singular
    factorization, a non-finite lift or a non-finite X reads unstable.
    """
    if not np.isfinite(S).all():
        return False
    _, _, eye = _svec_maps(n)
    K = _shifted(S, 1.0 - MSS_MARGIN)
    try:
        L = la.cholesky(_unsvec(la.solve(K, eye), n))
    except la.LinAlgError:
        return False
    # numpy's Cholesky passes NaN and inf through instead of failing
    return bool(np.isfinite(L).all())


def _mss_holds(A_cl, dirs: DirList) -> bool:
    """The mean-square stability verdict without an eigensolver: one svec
    lift and one LU (see :func:`_lift_verdict`). The aux margins confirm
    their edge with it, and the Riccati designs' probes call it."""
    S = _svec_lift(A_cl, dirs)
    return _lift_verdict(S, np.shape(A_cl)[0])


def is_mean_square_stable(A_cl, dirs: DirList) -> tuple[bool, float]:
    """Decide mean-square stability and return the moment radius.

    The state second moment converges to zero for every bounded initial
    state iff the moment-operator spectral radius is strictly below one;
    a radius within ``MSS_MARGIN`` of one counts as unstable. This is the
    reporting verdict: it computes the eigenvalue radius of the svec lift,
    the same radius as that of the n^2 x n^2 lift (see the module
    docstring), and shares only the lift with the LU verdict that the
    solvers use.
    """
    r = spectral_radius(_svec_lift(A_cl, dirs))
    return r < 1.0 - MSS_MARGIN, r


def solve_gle(A_cl, dirs: DirList, Q) -> GleSolution:
    """Solve the steady-state quadratic equation for P given Q > 0.

    Raises :class:`NotMeanSquareStableError`, naming the eigenvalue radius
    of the svec lift (nan if the lift is not finite), when the instance is
    not mean-square stable by the LU verdict; the radius is computed only
    then. Otherwise P, one more LU solve on the same svec lift, is checked
    for positive definiteness and a relative fixed-point residual below
    1e-8, and a failed check raises :class:`NumericalError`.
    """
    A_cl = np.asarray(A_cl, dtype=float)
    Q = symmetrize(Q)
    n = A_cl.shape[0]
    if Q.shape != A_cl.shape:
        raise DimensionError(f"Q has shape {Q.shape}, A_cl has {A_cl.shape}")
    S = _svec_lift(A_cl, dirs)
    if not _lift_verdict(S, n):
        # a lift with a non-finite entry has no radius to report
        radius = spectral_radius(S) if np.isfinite(S).all() else np.nan
        raise NotMeanSquareStableError(
            f"instance is not mean-square stable (moment radius {radius:.6g})"
        )
    R, C, _ = _svec_maps(n)
    try:
        P = _unsvec(la.solve(_shifted(S, 1.0), Q[R, C]), n)
    except la.LinAlgError as exc:
        raise NumericalError(f"lifted solve failed: {exc}") from exc
    MP = A_cl.T @ P @ A_cl
    for D, a in dirs:
        if a != 0.0:
            D = np.asarray(D, dtype=float)
            MP = MP + a * (D.T @ P @ D)
    residual = la.norm(P - Q - MP, "fro")
    if not residual <= 1e-8 * la.norm(P, "fro"):
        raise NumericalError(
            f"fixed-point residual {residual:.3e} exceeds 1e-8 * ||P||"
        )
    if la.eigvalsh(P)[0] <= 0:
        raise NumericalError("solution P is not positive definite")
    return GleSolution(P=P)

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
equation is one more LU solve on the same lift. The eigenvalue radius of
the n^2 x n^2 lift is kept for reporting, in :func:`is_mean_square_stable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
import numpy.linalg as la

from .errors import DimensionError, NumericalError
from .matops import spectral_radius, symmetrize
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
    when the instance is mean-square stable. ``moment_radius`` is the
    spectral radius of the second-moment operator either way; it is
    computed from the svec lift when first read.
    """

    P: np.ndarray | None
    mss: bool
    _lift: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def moment_radius(self) -> float:
        return spectral_radius(self._lift)


def _lifted_dirs(A_cl, dirs: DirList):
    # the closed loop and the directions with nonzero variance, as one
    # stack of matrices and their weights; shapes must agree, since the
    # lifts would otherwise broadcast or read wrong entries silently
    A_cl = np.asarray(A_cl, dtype=float)
    if A_cl.ndim != 2 or A_cl.shape[0] != A_cl.shape[1]:
        raise DimensionError(f"A_cl must be square, got shape {A_cl.shape}")
    mats, weights = [A_cl], [1.0]
    for i, (D, a) in enumerate(dirs):
        D = np.asarray(D, dtype=float)
        if D.shape != A_cl.shape:
            raise DimensionError(
                f"direction {i} has shape {D.shape}, A_cl has {A_cl.shape}"
            )
        if a != 0.0:
            mats.append(D)
            weights.append(a)
    return mats, weights


def moment_operator(A_cl, dirs: DirList) -> np.ndarray:
    """Lift of the map P -> A_cl^T P A_cl + sum_i alpha_i D_i^T P D_i.

    Acts on column-stacked vec(P); its transpose propagates state
    covariances forward in time.
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


def _svec_lift(A_cl, dirs: DirList) -> np.ndarray:
    """The second-moment operator on svec coordinates, N = n(n+1)/2.

    Column c = (i, j) holds svec M(E_ij + E_ji) for i != j and svec M(E_ii)
    for i = j, so its row r = (k, l) is, summed over the lifted matrices T
    with their weights, T[i, k] T[j, l] + T[j, k] T[i, l], halved when
    i = j. The four factors are gathered from the transposes through the
    index maps, one factor pair at a time to bound the temporaries.
    """
    mats, weights = _lifted_dirs(A_cl, dirs)
    R, C, eye = _svec_maps(mats[0].shape[0])
    N = R.size
    Tt = np.stack(mats).transpose(0, 2, 1)
    TR, TC = Tt.take(R, axis=1), Tt.take(C, axis=1)
    terms = TR.take(R, axis=2)  # T[i, k]
    terms *= TC.take(C, axis=2)  # T[j, l]
    pair = TR.take(C, axis=2)  # T[j, k]
    pair *= TC.take(R, axis=2)  # T[i, l]
    terms += pair
    S = (np.array(weights) @ terms.reshape(len(mats), -1)).reshape(N, N)
    return S * (1.0 - 0.5 * eye)


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
    lift and one LU (see :func:`_lift_verdict`). The probes of the margin
    bisections and of the Riccati designs call this."""
    S = _svec_lift(A_cl, dirs)
    return _lift_verdict(S, np.shape(A_cl)[0])


def is_mean_square_stable(A_cl, dirs: DirList) -> tuple[bool, float]:
    """Decide mean-square stability and return the moment radius.

    The state second moment converges to zero for every bounded initial
    state iff the moment-operator spectral radius is strictly below one;
    a radius within ``MSS_MARGIN`` of one counts as unstable. This is the
    reporting verdict: it computes the eigenvalue radius of the n^2 x n^2
    lift and shares only the shape checks with the LU verdict that the
    solvers use.
    """
    r = spectral_radius(moment_operator(A_cl, dirs))
    return r < 1.0 - MSS_MARGIN, r


def solve_gle(A_cl, dirs: DirList, Q) -> GleSolution:
    """Solve the steady-state quadratic equation for P given Q > 0.

    Returns ``mss=False`` with no P when the instance is not mean-square
    stable by the LU verdict. On success P, one more LU solve on the same
    svec lift, is checked for positive definiteness and a relative
    fixed-point residual below 1e-8.
    """
    A_cl = np.asarray(A_cl, dtype=float)
    Q = symmetrize(Q)
    n = A_cl.shape[0]
    if Q.shape != A_cl.shape:
        raise DimensionError(f"Q has shape {Q.shape}, A_cl has {A_cl.shape}")
    S = _svec_lift(A_cl, dirs)
    if not _lift_verdict(S, n):
        return GleSolution(P=None, mss=False, _lift=S)
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
    return GleSolution(P=P, mss=True, _lift=S)

"""Symmetric-matrix and spectral primitives used by every other module.

All functions are pure and operate on plain ``numpy`` arrays. Semidefinite
comparisons use a relative tolerance by default so that bisection routines
built on top of them do not flip on floating-point dust.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as la

from .errors import DimensionError, NumericalError, SingularPencilError

__all__ = [
    "PsdSplit",
    "symmetrize",
    "spectral_radius",
    "psd_split",
    "pos_part",
    "abs_part",
    "is_psd",
]


def _as_square(M, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    return M


def symmetrize(M) -> np.ndarray:
    """Return the symmetric part (M + M^T) / 2 of a square matrix."""
    M = _as_square(M)
    return 0.5 * (M + M.T)


def spectral_radius(M) -> float:
    """Largest eigenvalue magnitude of a square matrix (complex included)."""
    M = _as_square(M)
    try:
        w = la.eigvals(M)
    except la.LinAlgError as exc:  # pragma: no cover - eigensolver failure
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    return float(np.max(np.abs(w))) if w.size else 0.0


@dataclass
class PsdSplit:
    """Split of a symmetric matrix into S = plus + minus with plus positive
    semidefinite and minus negative semidefinite. Zero eigenvalues are
    assigned to ``plus``."""

    plus: np.ndarray
    minus: np.ndarray


def psd_split(S) -> PsdSplit:
    """Eigendecompose a symmetric matrix and split it by eigenvalue sign."""
    S = symmetrize(S)
    w, V = la.eigh(S)
    plus = (V * np.where(w >= 0.0, w, 0.0)) @ V.T
    minus = (V * np.where(w < 0.0, w, 0.0)) @ V.T
    return PsdSplit(plus=symmetrize(plus), minus=symmetrize(minus))


def pos_part(S) -> np.ndarray:
    """Positive semidefinite part of a symmetric matrix."""
    return psd_split(S).plus


def abs_part(S) -> np.ndarray:
    """Matrix absolute value plus - minus; dominates both the positive part
    and the negated negative part."""
    sp = psd_split(S)
    return sp.plus - sp.minus


def is_psd(S, tol: float | None = None) -> bool:
    """True iff the minimum eigenvalue of the symmetric matrix is >= -tol.

    When ``tol`` is omitted it defaults to ``1e-9 * max(1, ||S||_2)``.
    """
    S = symmetrize(S)
    if S.size == 0:
        return True
    w = la.eigvalsh(S)
    if tol is None:
        tol = 1e-9 * max(1.0, float(np.max(np.abs(w))))
    elif tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return bool(w[0] >= -tol)


def _gen_eig_max(lhs, rhs) -> float:
    """Maximum generalized eigenvalue ``lam`` of ``lhs v = lam rhs v`` for a
    symmetric pair with ``rhs`` positive definite.

    Solved by Cholesky whitening: factor rhs = L L^T and take the largest
    eigenvalue of L^-1 lhs L^-T, which makes ``lam * rhs - lhs`` positive
    semidefinite and tight. A singular ``rhs`` would push the result to
    infinity, so it is rejected.
    """
    lhs = symmetrize(lhs)
    rhs = symmetrize(rhs)
    if lhs.shape != rhs.shape:
        raise DimensionError(
            f"pencil shapes differ: {lhs.shape} vs {rhs.shape}"
        )
    w = la.eigvalsh(rhs)
    if w[0] <= 1e-12 * max(w[-1], 0.0):
        raise SingularPencilError(
            "right-hand pencil matrix is not positive definite; the maximum "
            "generalized eigenvalue is unbounded"
        )
    L = la.cholesky(rhs)
    Y = la.solve(L, lhs)
    Y = la.solve(L, Y.T).T
    return float(la.eigvalsh(symmetrize(Y))[-1])


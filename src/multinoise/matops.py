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


def _sym(M: np.ndarray) -> np.ndarray:
    # the symmetric part of a matrix, or of each matrix of a stack
    return 0.5 * (M + M.swapaxes(-1, -2))


def symmetrize(M) -> np.ndarray:
    """Return the symmetric part (M + M^T) / 2 of a square matrix."""
    return _sym(_as_square(M))


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


def _psd_split_stack(
    S: np.ndarray, two_sided: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Split the symmetric part of every matrix of a (k, n, n) stack by
    eigenvalue sign, with one eigendecomposition call for the whole stack.

    Returns ``(plus, minus)``, each (k, n, n), with ``minus`` None unless
    ``two_sided``. Every slice is computed as if it were split alone, so
    ``plus[i]`` and ``minus[i]`` do not depend on the rest of the stack.
    """
    w, V = la.eigh(_sym(S))
    Vt = V.swapaxes(-1, -2)
    plus = _sym((V * np.where(w >= 0.0, w, 0.0)[..., None, :]) @ Vt)
    if not two_sided:
        return plus, None
    return plus, _sym((V * np.where(w < 0.0, w, 0.0)[..., None, :]) @ Vt)


def psd_split(S) -> PsdSplit:
    """Eigendecompose a symmetric matrix and split it by eigenvalue sign."""
    plus, minus = _psd_split_stack(_as_square(S)[None], two_sided=True)
    return PsdSplit(plus=plus[0], minus=minus[0])


def pos_part(S) -> np.ndarray:
    """Positive semidefinite part of a symmetric matrix."""
    return _psd_split_stack(_as_square(S)[None])[0][0]


def abs_part(S) -> np.ndarray:
    """Matrix absolute value plus - minus; dominates both the positive part
    and the negated negative part."""
    plus, minus = _psd_split_stack(_as_square(S)[None], two_sided=True)
    return (plus - minus)[0]


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


def _gen_eig_max(lhs, rhs) -> np.ndarray:
    """Maximum generalized eigenvalue ``lam`` of ``lhs v = lam rhs v`` for
    each symmetric pair of a stack, with ``rhs`` positive definite.

    ``lhs`` is a (k, n, n) stack, and ``rhs`` is the same or one (n, n)
    matrix shared by the whole stack; the result is a (k,) array. Solved by
    Cholesky whitening: factor rhs = L L^T and take the largest eigenvalue
    of L^-1 lhs L^-T, which makes ``lam * rhs - lhs`` positive semidefinite
    and tight. Each step is one call on the whole stack, and each slice is
    computed as if it were solved alone. A singular ``rhs`` would push the
    result to infinity, so it is rejected.
    """
    lhs = _sym(np.asarray(lhs, dtype=float))
    rhs = _sym(np.asarray(rhs, dtype=float))
    if lhs.shape[-2:] != rhs.shape[-2:]:
        raise DimensionError(
            f"pencil shapes differ: {lhs.shape[-2:]} vs {rhs.shape[-2:]}"
        )
    w = la.eigvalsh(rhs)
    if np.any(w[..., 0] <= 1e-12 * np.maximum(w[..., -1], 0.0)):
        raise SingularPencilError(
            "right-hand pencil matrix is not positive definite; the maximum "
            "generalized eigenvalue is unbounded"
        )
    L = la.cholesky(rhs)
    Y = la.solve(L, lhs)
    Y = la.solve(L, Y.swapaxes(-1, -2)).swapaxes(-1, -2)
    return la.eigvalsh(_sym(Y))[..., -1]

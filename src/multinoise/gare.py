"""Generalized algebraic Riccati equation solver and optimal-gain
computation for multiplicative-noise LQR.

The fixed point is found by value iteration started from the state cost
matrix. A step is the Schur complement of the inner input block in the
joint quadratic form Z(P) = [[Q + A^T P A + ..., A^T P B], [B^T P A,
R + B^T P B + ...]] (Damm, *Rational Matrix Equations in Stochastic
Control*, 2004): one matrix-vector product gives the lower triangle of Z
from svec(P), and m elimination steps on that vector leave svec of the
next iterate, with no linear solve until the gain at convergence.
Divergence of the iterates doubles as the mean-square stabilizability
probe used by the design bisections: when no finite value exists, the
iterates grow without bound, and when the noise parameters sit near the
stabilizability boundary the iteration converges arbitrarily slowly, so
the iteration cap acts as the effective feasibility boundary.

Semidefinite-programming formulations of the same fixed point are not
implemented; value iteration is the sole solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
import numpy.linalg as la

from .errors import NumericalError
from .matops import symmetrize
from .model import (CostPair, NoiseModel, NominalSystem, _check_dir_shapes,
                    closed_loop_substitution)
from .stability import (
    _mss_holds, _svec_lift, _svec_map_lift, _svec_maps, _unsvec,
)

__all__ = [
    "GareOptions",
    "GareSolution",
    "solve_gare",
    "feasible_gare_solution",
]


@dataclass
class GareOptions:
    """Stopping policy for the value iteration.

    Convergence: ||P_{t+1} - P_t||_F <= tol_abs + tol_rel * ||P_{t+1}||_F.
    Divergence: ||P_t||_F > blowup, or a non-finite iterate; it signals
    mean-square unstabilizability at the given parameters. The design
    probes read divergence and the iteration cap alike as infeasible;
    :attr:`GareSolution.status` says which limit stopped the iteration.
    """

    tol_abs: float = 1e-10
    tol_rel: float = 1e-9
    blowup: float = 1e12
    max_iter: int = 100_000


@dataclass
class GareSolution:
    """Converged value matrix and optimal gain, or the reason the value
    iteration stopped without them.

    ``status`` is ``"converged"`` (the convergence test passed),
    ``"iteration_cap"`` (``max_iter`` iterations ran without it),
    ``"blowup"`` (the iterate norm passed ``blowup``) or ``"non_finite"``
    (an iterate was not finite). Only the last two are evidence of
    divergence.
    """

    P: np.ndarray | None
    K: np.ndarray | None
    iterations: int
    status: str

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@cache
def _schur_layout(n: int, m: int):
    """Index maps of the lifted Schur matrix Z = [[Q + L(P), H(P)^T],
    [H(P), R + G(P)]], stored as the row-major lower triangle
    (``np.tril_indices(n + m)``) of Z with its variables ordered as the
    states, then the inputs, last input first.

    In that order the first N = n(n+1)/2 entries are svec(Q + L(P)), and
    input k sits at position p = n + m - 1 - k, so once inputs 0..k-1 are
    eliminated, what is left is the leading p + 1 rows. Each pivot is
    (base, kk, ik, jk): eliminating input k updates z[:base], its pivot is
    z[kk], and ik, jk index the entries of its row that multiply into each
    of z[:base]. ``inner`` and ``cross`` index R + G(P) (m x m) and
    H(P) = B^T P A (m x n) in input order.
    """
    R, C = np.tril_indices(n + m)
    pos = n + m - 1 - np.arange(m)  # position of input k
    start = pos * (pos + 1) // 2  # flat index of the row of input k
    pivots = tuple((int(b), int(b + p), b + R[:b], b + C[:b])
                   for b, p in zip(start, pos))
    hi, lo = np.maximum.outer(pos, pos), np.minimum.outer(pos, pos)
    inner = hi * (hi + 1) // 2 + lo
    cross = start[:, None] + np.arange(n)
    for _, _, ik, jk in pivots:
        ik.flags.writeable = jk.flags.writeable = False
    inner.flags.writeable = cross.flags.writeable = False
    return pivots, inner, cross


def _lifted_step_operators(sys: NominalSystem, noise: NoiseModel):
    # The matrix of svec(P) -> Z(P) - [[Q, 0], [0, R]] in the order of
    # _schur_layout. Its state rows are the moment lift of (A, a_dirs).
    # Its input rows are one lift with U_t = B_t and V_t = [A_t | B_t],
    # A_0 = A and the other A_t zero, inputs last first: input k's row
    # holds row k of B^T P A and of B^T P B + sum_j beta_j B_j^T P B_j.
    # Each iteration is then one matvec plus m pivots, with no linear
    # solve, which matters when bisection drives thousands of
    # near-boundary solves. Both come from the builder of the moment lift,
    # so P is never formed until the end.
    A, B = sys.A, sys.B
    n, m = sys.n, sys.m
    b_dirs = [(D, b) for D, b in noise.b_dirs if b != 0.0]
    Bs = np.stack([B] + [D for D, _ in b_dirs])[:, :, ::-1]
    As = np.zeros((len(Bs), n, n))
    As[0] = A
    b_weights = np.array([1.0] + [b for _, b in b_dirs])
    R, C = np.tril_indices(n + m)
    N = n * (n + 1) // 2
    inputs = _svec_map_lift(Bs, np.concatenate([As, Bs], axis=2), b_weights,
                            R[N:] - n, C[N:])
    return np.vstack([_svec_lift(A, noise.a_dirs), inputs])


def solve_gare(
    sys: NominalSystem,
    noise: NoiseModel,
    costs: CostPair,
    opts: GareOptions | None = None,
) -> GareSolution:
    """Iterate the value recursion from P_0 = Q to the fixed point:

    P_{t+1} = Q + A^T P A + sum_i alpha_i A_i^T P A_i
              - A^T P B (R + B^T P B + sum_j beta_j B_j^T P B_j)^-1 B^T P A

    Requires Q > 0 and R > 0. Each step is the Schur complement of the
    inner block in Z = [[Q + A^T P A + ..., A^T P B], [B^T P A, R + ...]],
    taken as m unpivoted elimination steps on the lifted lower triangle of
    Z; the inner block is positive definite since R > 0 and P >= Q, so a
    finite pivot <= 0 raises :class:`NumericalError`. On convergence the
    optimal gain K = -(R + B^T P B + sum_j beta_j B_j^T P B_j)^-1 B^T P A
    is returned; whether its closed loop is mean-square stable is checked
    separately by :func:`feasible_gare_solution`.
    """
    if opts is None:
        opts = GareOptions()
    _check_dir_shapes(sys, noise)
    if la.eigvalsh(symmetrize(costs.Q))[0] <= 0:
        raise ValueError("Q must be positive definite for the value iteration")
    n, m = sys.n, sys.m
    R, C, eye = _svec_maps(n)
    N = eye.size
    pivots, inner, cross = _schur_layout(n, m)
    # off-diagonal svec coordinates stand for two entries of P, so these
    # weights make the norms below Frobenius norms
    w = 2.0 - eye
    S = _lifted_step_operators(sys, noise)
    q = costs.Q[R, C]
    const = np.zeros(len(S))  # the lifted [[Q, 0], [0, R]]
    const[:N] = q
    const[inner] = costs.R

    s = q
    iterations = 0
    while iterations < opts.max_iter:
        z = S @ s
        z += const
        for base, kk, ik, jk in pivots:
            # a non-finite pivot is left to the non_finite status
            piv = z.item(kk)
            if piv <= 0.0 and math.isfinite(piv):
                raise NumericalError(
                    "inner input-weight matrix is not positive definite"
                )
            z[:base] -= z.take(ik) * z.take(jk) / piv
        s_next = z[:N]
        step = s_next - s
        diff = math.sqrt(step @ (w * step))
        pnorm = math.sqrt(s_next @ (w * s_next))
        s = s_next
        iterations += 1
        if not math.isfinite(pnorm) or pnorm > opts.blowup:
            status = "blowup" if math.isfinite(pnorm) else "non_finite"
            return GareSolution(P=None, K=None, iterations=iterations,
                                status=status)
        if diff <= opts.tol_abs + opts.tol_rel * pnorm:
            z = S @ s + const
            K = -la.solve(z[inner], z[cross])
            return GareSolution(P=_unsvec(s, n), K=K, iterations=iterations,
                                status="converged")
    return GareSolution(P=None, K=None, iterations=iterations,
                        status="iteration_cap")


def feasible_gare_solution(
    sys: NominalSystem,
    noise: NoiseModel,
    costs: CostPair,
    opts: GareOptions | None = None,
) -> GareSolution | None:
    """Converged solution whose closed loop is mean-square stable, else
    None. This is the probe the design bisections call."""
    sol = solve_gare(sys, noise, costs, opts)
    if not sol.converged:
        return None
    A_cl, dirs = closed_loop_substitution(sys, noise, sol.K)
    return sol if _mss_holds(A_cl, dirs) else None

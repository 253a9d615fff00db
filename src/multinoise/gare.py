"""Generalized algebraic Riccati equation solver and optimal-gain
computation for multiplicative-noise LQR.

The fixed point is found by value iteration started from the state cost
matrix. Divergence of the iterates doubles as the mean-square
stabilizability probe used by the design bisections: when no finite value
exists, the iterates grow without bound, and when the noise parameters sit
near the stabilizability boundary the iteration converges arbitrarily
slowly, so the iteration cap acts as the effective feasibility boundary.

Semidefinite-programming formulations of the same fixed point are not
implemented; value iteration is the sole solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.linalg as la

from .errors import NumericalError
from .matops import symmetrize
from .model import CostPair, NoiseModel, NominalSystem, closed_loop_substitution
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

    Convergence: ||P_{t+1} - P_t||_F <= tol_abs + tol_rel * ||P_t||_F.
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


def _lifted_step_operators(sys: NominalSystem, noise: NoiseModel):
    # The three lifts stacked as [L; H; G] on svec(P), so that one matvec
    # gives svec(A^T P A + sum_i alpha_i A_i^T P A_i) and, row-major,
    # B^T P A and B^T P B + sum_j beta_j B_j^T P B_j; each iteration is
    # then one matvec plus an m x m solve, which matters when bisection
    # drives thousands of near-boundary solves. All three come from the
    # builder of the moment lift, so P is never formed until the end.
    A, B = sys.A, sys.B
    n, m = sys.n, sys.m
    b_dirs = [(D, b) for D, b in noise.b_dirs if b != 0.0]
    Bs = np.stack([B] + [D for D, _ in b_dirs])
    b_weights = np.array([1.0] + [b for _, b in b_dirs])
    pairs = np.divmod(np.arange(m * n), n)  # (k, l) of B^T P A, row-major
    H = _svec_map_lift(B[None], A[None], np.ones(1), *pairs)
    G = _svec_map_lift(Bs, Bs, b_weights, *np.divmod(np.arange(m * m), m))
    return np.vstack([_svec_lift(A, noise.a_dirs), H, G])


def solve_gare(
    sys: NominalSystem,
    noise: NoiseModel,
    costs: CostPair,
    opts: GareOptions | None = None,
) -> GareSolution:
    """Iterate the value recursion from P_0 = Q to the fixed point:

    P_{t+1} = Q + A^T P A + sum_i alpha_i A_i^T P A_i
              - A^T P B (R + B^T P B + sum_j beta_j B_j^T P B_j)^-1 B^T P A

    Requires Q > 0 and R > 0. On convergence the optimal gain
    K = -(R + B^T P B + sum_j beta_j B_j^T P B_j)^-1 B^T P A is returned;
    whether its closed loop is mean-square stable is checked separately by
    :func:`feasible_gare_solution`.
    """
    if opts is None:
        opts = GareOptions()
    if la.eigvalsh(symmetrize(costs.Q))[0] <= 0:
        raise ValueError("Q must be positive definite for the value iteration")
    n, m = sys.n, sys.m
    R, C, eye = _svec_maps(n)
    N, mn = R.size, m * n
    lower = R * n + C  # flat indices of the svec coordinates
    # off-diagonal svec coordinates stand for two entries of P, so these
    # weights make the norms below Frobenius norms
    w = 2.0 - eye
    S = _lifted_step_operators(sys, noise)

    def lifted_terms(s):
        # (svec of the state term, B^T P A, inner^-1 B^T P A) at svec(P) = s
        v = S @ s
        BtPA = v[N:N + mn].reshape(m, n)
        inner = costs.R + v[N + mn:].reshape(m, m)
        try:
            X = la.solve(inner, BtPA)
        except la.LinAlgError as exc:
            raise NumericalError(
                f"inner input-weight matrix is singular: {exc}"
            ) from exc
        return v[:N], BtPA, X

    q = costs.Q.take(lower)
    s = q
    iterations = 0
    while iterations < opts.max_iter:
        Ls, BtPA, X = lifted_terms(s)
        s_next = q + Ls - (BtPA.T @ X).take(lower)
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
            _, _, X = lifted_terms(s)
            return GareSolution(P=_unsvec(s, n), K=-X, iterations=iterations,
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

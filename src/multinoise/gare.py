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
from .matops import symmetrize, vec
from .model import CostPair, NoiseModel, NominalSystem, closed_loop_substitution
from .stability import _mss_holds

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
    # The three lifts stacked as [L; H; G], so that one matvec gives
    # vec(A^T P A + sum_i alpha_i A_i^T P A_i), vec(B^T P A) and
    # vec(B^T P B + sum_j beta_j B_j^T P B_j); each iteration is then one
    # matvec plus an m x m solve, which matters when bisection drives
    # thousands of near-boundary solves.
    A, B = sys.A, sys.B
    L = np.kron(A.T, A.T)
    for D, a in noise.a_dirs:
        if a != 0.0:
            L = L + a * np.kron(D.T, D.T)
    H = np.kron(A.T, B.T)
    G = np.kron(B.T, B.T)
    for D, b in noise.b_dirs:
        if b != 0.0:
            G = G + b * np.kron(D.T, D.T)
    return np.vstack([L, H, G])


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
    nn, mn = n * n, m * n
    S = _lifted_step_operators(sys, noise)

    def lifted_terms(pv):
        # (vec of the state term, B^T P A, inner^-1 B^T P A) at vec(P) = pv
        v = S @ pv
        BtPA = v[nn:nn + mn].reshape((m, n), order="F")
        inner = costs.R + v[nn + mn:].reshape((m, m), order="F")
        try:
            X = la.solve(inner, BtPA)
        except la.LinAlgError as exc:
            raise NumericalError(
                f"inner input-weight matrix is singular: {exc}"
            ) from exc
        return v[:nn], BtPA, X

    qv = vec(costs.Q)
    pv = qv.copy()
    iterations = 0
    while iterations < opts.max_iter:
        Lp, BtPA, X = lifted_terms(pv)
        Pn = (qv + Lp).reshape((n, n), order="F") - BtPA.T @ X
        Pn = 0.5 * (Pn + Pn.T)
        # Pn is exactly symmetric, so its row-major ravel is vec(Pn)
        pv_next = Pn.ravel()
        step = pv_next - pv
        diff = math.sqrt(step @ step)
        pnorm = math.sqrt(pv_next @ pv_next)
        pv = pv_next
        iterations += 1
        if not math.isfinite(pnorm) or pnorm > opts.blowup:
            status = "blowup" if math.isfinite(pnorm) else "non_finite"
            return GareSolution(P=None, K=None, iterations=iterations,
                                status=status)
        if diff <= opts.tol_abs + opts.tol_rel * pnorm:
            _, _, X = lifted_terms(pv)
            return GareSolution(P=Pn, K=-X, iterations=iterations,
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

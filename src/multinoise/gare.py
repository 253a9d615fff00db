"""Generalized algebraic Riccati equation solver and optimal-gain
computation for multiplicative-noise LQR.

The fixed point is found by value iteration started from the state cost
matrix. A step is the Schur complement of the inner input block in the
joint quadratic form Z(P) = [[Q + A^T P A + ..., A^T P B], [B^T P A,
R + B^T P B + ...]] (Damm, *Rational Matrix Equations in Stochastic
Control*, 2004): one matrix-vector product gives the lower triangle of Z
from svec(P), and m elimination steps on that vector leave svec of the
next iterate, with no linear solve until the gain at convergence.
The iterates are computed in blocks of 32, and the stopping rule and the
divergence test are evaluated once per block for all of its iterates; the
solve returns at the first iterate that meets either, so its result is the
per-step rule's, with at most 31 iterates computed past the stop and
discarded.
The iteration runs on a stack of problems that share n, m and the costs,
such as the design bisections' probes at several noise levels: each
iteration is one stacked matrix-vector product and the pivots of every
member at once, and the tests run per member once per block, so each
member stops at its own iterate with the result it has alone.
:func:`solve_gare` is the one-member stack.
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
from functools import cache, partial
from typing import Callable, Sequence

import numpy as np
import numpy.linalg as la

from .errors import NumericalError
from .matops import symmetrize
from .model import (CostPair, NoiseModel, NominalSystem, _check_cost_shapes,
                    _check_dir_shapes, _check_options,
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


@dataclass(frozen=True)
class GareOptions:
    """Stopping policy for the value iteration.

    Convergence: ||P_{t+1} - P_t||_F <= tol_abs + tol_rel * ||P_{t+1}||_F.
    Divergence: ||P_t||_F > blowup, or a non-finite iterate; it signals
    mean-square unstabilizability at the given parameters. The design
    probes read divergence and the iteration cap alike as infeasible;
    :attr:`GareSolution.status` says which limit stopped the iteration.

    Both tests are evaluated once per block of 32 iterates, and the solve
    stops at the first iterate of the block that meets either, so the
    result equals the per-step rule's: the same stopping iterate, with at
    most 31 iterates discarded per solve.
    ``tol_abs`` and ``tol_rel`` must be finite and >= 0, ``blowup`` finite
    and > 0, and ``max_iter`` an integer >= 1, or building the options
    raises ``ValueError`` naming the field.
    """

    tol_abs: float = 1e-10
    tol_rel: float = 1e-9
    blowup: float = 1e12
    max_iter: int = 100_000

    def __post_init__(self):
        _check_options(self, {"tol_abs": ">= 0", "tol_rel": ">= 0",
                              "blowup": "> 0", "max_iter": 1})


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


#: the options of a solve given none; frozen, so every such solve shares it
_DEFAULT_OPTIONS = GareOptions()

#: iterates per block of the value iteration. The tests cost a few array
#: calls per block, and a stop discards the rest of its block, at most
#: _BLOCK - 1 iterates, which solves that stop within a few dozen
#: iterations feel most
_BLOCK = 32


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
    Bs = np.array([B] + [D for D, _ in b_dirs])[:, :, ::-1]
    As = np.zeros((len(Bs), n, n))
    As[0] = A
    b_weights = np.array([1.0] + [b for _, b in b_dirs])
    R, C, _ = _svec_maps(n + m)  # the lower triangle of Z, row by row
    N = n * (n + 1) // 2
    inputs = _svec_map_lift(Bs, np.concatenate([As, Bs], axis=2), b_weights,
                            R[N:] - n, C[N:])
    return np.concatenate([_svec_lift(A, noise.a_dirs), inputs])


class _Stack:
    """The members still iterating and their block buffer: ``buf[i, :, b]``
    holds Z of member b's iterate i of the block, entries first, so that
    every pivot reads and writes whole rows. Its first N entries are svec
    of the iterate once the pivots are done, and row 0 is the last iterate
    of the previous block, ``x0`` at the start. The views of each row that
    an iteration uses are built once: the row, as the matmul's (b, K, 1)
    output and its first N entries as the next matmul's input, and per
    pivot the row's target and divisor with the pivot's index maps."""

    def __init__(self, S, const, x0, N: int, pivots):
        b, K, _ = S.shape
        self.S = S
        self.const = np.repeat(const[:, None], b, axis=1)
        self.buf = buf = np.empty((_BLOCK + 1, K, b))
        buf[0, :N] = x0
        by_member = buf.transpose(0, 2, 1)[..., None]
        self.z, self.out = list(buf), list(by_member)
        self.x = list(by_member[:, :, :N])
        self.elims = [(list(buf[:, :base]), list(buf[:, kk]), ik, jk)
                      for base, kk, ik, jk in pivots]


def _solve_stack(
    systems: Sequence[NominalSystem],
    noises: Sequence[NoiseModel],
    costs: CostPair,
    opts: GareOptions | None = None,
) -> list[GareSolution | NumericalError]:
    """:func:`solve_gare` for a stack of problems that share n, m and the
    costs, in one value iteration: member b's result is what
    ``solve_gare(systems[b], noises[b], costs, opts)`` returns, bit for bit,
    or the :class:`NumericalError` it raises.

    Each iteration is one stacked matmul of the members' lifted Schur
    matrices with their iterates, then the m pivots of every member at
    once. The stopping rule, the blowup test and the pivot test run per
    member once per block; a member leaves the stack at its first iterate
    that meets one, and the others go on without it.
    """
    opts = opts or _DEFAULT_OPTIONS
    for sys, noise in zip(systems, noises):
        _check_dir_shapes(sys, noise)
        _check_cost_shapes(sys, costs)
    if la.eigvalsh(symmetrize(costs.Q))[0] <= 0:
        raise ValueError("Q must be positive definite for the value iteration")
    n, m = systems[0].n, systems[0].m
    R, C, eye = _svec_maps(n)
    N = eye.size
    pivots, inner, cross = _schur_layout(n, m)
    kks = [kk for _, kk, _, _ in pivots]
    # off-diagonal svec coordinates stand for two entries of P, so these
    # weights make the norms below Frobenius norms
    w = 2.0 - eye
    S = np.array([_lifted_step_operators(sys, noise)
                  for sys, noise in zip(systems, noises)])
    q = costs.Q[R, C]
    const = np.zeros(S.shape[1])  # the lifted [[Q, 0], [0, R]]
    const[:N] = q
    const[inner] = costs.R

    results: list = [None] * len(S)
    members = list(range(len(S)))  # stack column -> member
    stack = _Stack(S, const, q[:, None], N, pivots)
    iterations = 0
    # iterates past a stop are discarded; they may overflow harmlessly
    with np.errstate(all="ignore"):
        while iterations < opts.max_iter:
            size = min(_BLOCK, opts.max_iter - iterations)
            S, const_b, buf = stack.S, stack.const, stack.buf
            zs, outs, ins, elims = stack.z, stack.out, stack.x, stack.elims
            for i in range(1, size + 1):
                z = zs[i]
                np.matmul(S, ins[i - 1], out=outs[i])
                z += const_b
                for targets, divisors, ik, jk in elims:
                    targets[i] -= (z.take(ik, axis=0) * z.take(jk, axis=0)
                                   / divisors[i])
            iterations += size
            new = buf[1:size + 1, :N]
            step = new - buf[:size, :N]
            diff = np.sqrt(w @ (step * step))
            pnorm = np.sqrt(w @ (new * new))
            # blowup is finite, so a NaN or infinite norm fails this too
            blown = ~(pnorm <= opts.blowup)
            stop = blown | (diff <= opts.tol_abs + opts.tol_rel * pnorm)
            # a finite pivot <= 0 ends its member at that iterate; a
            # non-finite one is left to the non_finite status
            pivs = buf[1:size + 1].take(kks, axis=1)
            failed = None
            if not pivs.min() > 0.0:  # a pivot <= 0 or NaN
                failed = ((pivs <= 0.0) & np.isfinite(pivs)).any(axis=1)
                stop |= failed
            if not stop.any():
                buf[0] = buf[size]
                continue
            hits = stop.any(axis=0).tolist()
            for b, i in enumerate(stop.argmax(axis=0).tolist()):
                if not hits[b]:
                    continue
                done = iterations - size + i + 1
                if failed is not None and failed[i, b]:
                    sol = NumericalError(
                        "inner input-weight matrix is not positive definite")
                elif blown[i, b]:
                    status = ("blowup" if math.isfinite(pnorm[i, b])
                              else "non_finite")
                    sol = GareSolution(P=None, K=None, iterations=done,
                                       status=status)
                else:
                    s = buf[i + 1, :N, b]
                    z = S[b] @ s + const
                    sol = GareSolution(P=_unsvec(s, n),
                                       K=-la.solve(z[inner], z[cross]),
                                       iterations=done, status="converged")
                results[members[b]] = sol
            if all(hits):
                return results
            going = [b for b, hit in enumerate(hits) if not hit]
            members = [members[b] for b in going]
            stack = _Stack(S[going], const, buf[size, :N][:, going], N,
                           pivots)
    for mb in members:
        results[mb] = GareSolution(P=None, K=None, iterations=iterations,
                                   status="iteration_cap")
    return results


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
    separately by :func:`feasible_gare_solution`. This is the one-member
    case of the stacked value iteration that the design bisections run.
    """
    sol = _solve_stack([sys], [noise], costs, opts)[0]
    if isinstance(sol, NumericalError):
        raise sol
    return sol


def _verdict(sys: NominalSystem, noise: NoiseModel,
             result: GareSolution | NumericalError) -> GareSolution | None:
    """The probe's verdict on one member's result: its NumericalError
    raised; else the solution if it converged and its gain's closed loop is
    mean-square stable, and None if not."""
    if isinstance(result, NumericalError):
        raise result
    if not result.converged:
        return None
    A_cl, dirs = closed_loop_substitution(sys, noise, result.K)
    return result if _mss_holds(A_cl, dirs) else None


def _probe_stack(
    systems: Sequence[NominalSystem],
    noises: Sequence[NoiseModel],
    costs: CostPair,
    opts: GareOptions | None = None,
) -> list[Callable[[], GareSolution | None]]:
    """:func:`feasible_gare_solution` of each member of a stack as a call
    with no arguments, from one :func:`_solve_stack`: a member's
    closed-loop check runs, and its pivot failure is raised, only when its
    verdict is called, so a bisection decides only the members it reads."""
    return [partial(_verdict, sys, noise, sol) for sys, noise, sol in
            zip(systems, noises, _solve_stack(systems, noises, costs, opts))]


def feasible_gare_solution(
    sys: NominalSystem,
    noise: NoiseModel,
    costs: CostPair,
    opts: GareOptions | None = None,
) -> GareSolution | None:
    """Converged solution whose closed loop is mean-square stable, else
    None; a pivot failure raises :class:`NumericalError`. The probe of the
    design bisections, which run it on a stack of noise levels at once and
    decide only the members they read."""
    return _probe_stack([sys], [noise], costs, opts)[0]()

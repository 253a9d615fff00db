"""Seeded problem instances for the benchmark workloads.

Every random instance is drawn from ``numpy.random.default_rng(seed)``, so
the same seed gives the same instances; the library only ever sees the
generated problems.

Redraw rule, fixed before any measurement: a plant is drawn again, from the
same stream, until it is mean-square stabilizable at its nominal noise
level, that is until ``feasible_gare_solution`` at the nominal variances,
with the pendulum's stopping rule, returns a solution. The nominal level is zero noise for design plants (the
designs start their bisections there) and ``NOMINAL_LEVEL`` times the
uncertainty weights for the certify and verify plants. No instance is ever
selected by timing or by any outcome other than this precondition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import multinoise as mn
from multinoise import gare

#: Total noise variance of a certify/verify plant at its nominal level; the
#: weights sum to one, so direction k gets NOMINAL_LEVEL * weight_k.
NOMINAL_LEVEL = 0.2

#: The inverted pendulum's stopping rule (tol_rel 1e-6, max_iter 1000).
PENDULUM_GARE = mn.GareOptions(tol_abs=0.0, tol_rel=1e-6, max_iter=1000)


@dataclass
class Plant:
    """A nominal plant with its uncertainty directions and weights, and the
    nominal noise model at which the redraw rule accepted it."""

    system: mn.NominalSystem
    costs: mn.CostPair
    a_mats: list
    b_mats: list
    structure: mn.UncertaintyStructure
    noise: mn.NoiseModel
    redraws: int = 0

    @property
    def label(self) -> str:
        s = self.system
        return f"n{s.n}m{s.m}p{len(self.a_mats)}q{len(self.b_mats)}"


def _unit(M: np.ndarray) -> np.ndarray:
    return M / np.linalg.norm(M, 2)


def draw_plant(rng, n: int, m: int, p: int, q: int, level: float) -> Plant:
    """Draw a plant under the redraw rule.

    A has spectral radius uniform in [0.8, 1.2] (open loops on both sides of
    stability), B is standard normal, directions are standard normal scaled
    to unit spectral norm, weights are uniform in [0.5, 1.5]; Q = I, R = I.
    """
    redraws = 0
    while True:
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.8, 1.2) / np.max(np.abs(np.linalg.eigvals(A)))
        B = rng.standard_normal((n, m))
        a_mats = [_unit(rng.standard_normal((n, n))) for _ in range(p)]
        b_mats = [_unit(rng.standard_normal((n, m))) for _ in range(q)]
        structure = mn.UncertaintyStructure(
            theta=rng.uniform(0.5, 1.5, p),
            phi=rng.uniform(0.5, 1.5, q) if q else np.zeros(0),
        )
        noise = mn.NoiseModel(
            a_dirs=[(D, level * t) for D, t in zip(a_mats, structure.theta)],
            b_dirs=[(D, level * f) for D, f in zip(b_mats, structure.phi)],
        )
        system = mn.NominalSystem(A=A, B=B)
        costs = mn.CostPair(Q=np.eye(n), R=np.eye(m))
        if gare.feasible_gare_solution(system, noise, costs,
                                       PENDULUM_GARE) is not None:
            return Plant(system, costs, a_mats, b_mats, structure, noise,
                         redraws)
        redraws += 1


#: (n, m, p, q) of the design plants: one per n in {2, 3, 4, 6, 8}, with
#: m <= 2, p <= 3, q <= 1. The dimensions are fixed so that a seed changes
#: the entries of the matrices, not the size of the work.
DESIGN_SHAPES = ((2, 1, 1, 1), (3, 2, 2, 0), (4, 1, 3, 0), (6, 2, 1, 1),
                 (8, 1, 2, 1))

#: (n, p) of the certify plants: each of the nine pairs with n in {2, 3, 4}
#: and p in {1, 2, 3}, eleven times over, then the size-sweep tail.
CERTIFY_SHAPES = [(n, p) for n in (2, 3, 4) for p in (1, 2, 3)] * 11 + [
    (8, 3), (16, 2)]


def design_plants(rng) -> list[Plant]:
    """One plant per entry of DESIGN_SHAPES, drawn at zero noise."""
    return [draw_plant(rng, n, m, p, q, 0.0) for n, m, p, q in DESIGN_SHAPES]


def certify_plants(rng) -> list[Plant]:
    """One plant per entry of CERTIFY_SHAPES with m drawn from {1, 2}.
    State-matrix directions only, as for open-loop margins, so
    single-direction margins apply when p = 1."""
    return [draw_plant(rng, n, int(rng.integers(1, 3)), p, 0, NOMINAL_LEVEL)
            for n, p in CERTIFY_SHAPES]


def verify_plant(rng) -> Plant:
    """A 4 x 4 plant with two state-matrix directions, behind one of the
    verify workload's auxiliary-system certificates."""
    return draw_plant(rng, 4, int(rng.integers(1, 3)), 2, 0, NOMINAL_LEVEL)


def input_noise_plant() -> Plant:
    """The fixed 2 x 2 instance with one state and one input direction whose
    algorithm-1 frontier is set by the ``blowup`` threshold."""
    a_mats = [np.array([[0.0, 1.0], [0.0, 0.0]])]
    b_mats = [np.array([[0.0], [1.0]])]
    return Plant(
        system=mn.NominalSystem(A=np.array([[0.9, 0.3], [0.0, 0.8]]),
                                B=np.array([[0.0], [1.0]])),
        costs=mn.CostPair(Q=np.eye(2), R=np.eye(1)),
        a_mats=a_mats,
        b_mats=b_mats,
        structure=mn.UncertaintyStructure(theta=[1.0], phi=[0.5]),
        noise=mn.NoiseModel(a_dirs=[(a_mats[0], 0.0)],
                            b_dirs=[(b_mats[0], 0.0)]),
    )

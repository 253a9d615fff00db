import numpy as np
import numpy.linalg as la
import pytest

from multinoise import (
    DesignOptions,
    certainty_equivalent,
    design_algorithm_1,
    design_algorithm_2,
    inverted_pendulum,
    moment_operator,
    spectral_radius,
    symmetrize,
)
from multinoise.matops import abs_part, pos_part


#: The LU stability verdict and the eigenvalue-radius verdict are both
#: exact, so they can differ only by rounding near the threshold. The tests
#: assert their agreement for moment radii farther than this from 1.
VERDICT_BAND = 1e-6


def random_mss_instance(rng, n, p, target_radius):
    """Random closed loop with noise directions, scaled exactly so the
    second-moment operator has the requested spectral radius.

    The moment operator is homogeneous of degree two in (A_cl, sqrt(alpha)),
    so a joint rescaling hits any target radius exactly.
    """
    A0 = rng.normal(size=(n, n))
    mats = [rng.normal(size=(n, n)) for _ in range(p)]
    variances = rng.uniform(0.2, 1.0, size=p)
    dirs0 = list(zip(mats, variances))
    r0 = spectral_radius(moment_operator(A0, dirs0))
    s = np.sqrt(target_radius / r0)
    return s * A0, [(D, float(s * s * a)) for D, a in dirs0]


def direct_value_step(P_t, sys, noise, costs):
    """One step of the value recursion in direct matrix form, symmetrized:

    P_{t+1} = Q + A^T P A + sum_i alpha_i A_i^T P A_i
              - A^T P B (R + B^T P B + sum_j beta_j B_j^T P B_j)^-1 B^T P A

    An oracle for ``solve_gare``, which iterates the same map through
    Kronecker lifts; the two share no code.
    """
    P = symmetrize(P_t)
    A, B = sys.A, sys.B
    S = costs.Q + A.T @ P @ A
    for D, a in noise.a_dirs:
        S = S + a * (D.T @ P @ D)
    G = costs.R + B.T @ P @ B
    for D, b in noise.b_dirs:
        G = G + b * (D.T @ P @ D)
    BtPA = B.T @ P @ A
    return symmetrize(S - BtPA.T @ la.solve(G, BtPA))


def direct_margin_matrix(A_cl, dirs, Q_eff, P, eta, bidirectional=False):
    """The matrix whose semidefiniteness decides the margin inequality at
    eta, with every part split afresh: Q_eff + sum_k alpha_k D_k^T P D_k
    minus the weighted parts of the first-order and pair terms, added in
    index order and skipping zero entries of eta.

    An oracle for the probes of ``nlmi_feasible``, which split the
    eta-independent parts once; the two share only the matops primitives.
    """
    part = abs_part if bidirectional else pos_part
    P = symmetrize(P)
    mats = [np.asarray(D, dtype=float) for D, _ in dirs]
    lhs = symmetrize(Q_eff).copy()
    for (_, a), D in zip(dirs, mats):
        if a != 0.0:
            lhs += a * (D.T @ P @ D)
    rhs = np.zeros_like(lhs)
    PA = P @ A_cl
    for ei, Di in zip(eta, mats):
        if ei != 0.0:
            rhs += ei * part(Di.T @ PA + PA.T @ Di)
    for ei, Di in zip(eta, mats):
        if ei == 0.0:
            continue
        PDi = P @ Di
        for ej, Dj in zip(eta, mats):
            if ej != 0.0:
                rhs += ei * ej * part(Dj.T @ PDi + PDi.T @ Dj)
    return lhs - rhs


@pytest.fixture(scope="session")
def pendulum():
    return inverted_pendulum()


@pytest.fixture(scope="session")
def pendulum_opts(pendulum):
    return DesignOptions(
        gare=pendulum.gare_options,
        bisect=pendulum.bisect_options,
        grid_samples_per_dir=10_000,
    )


@pytest.fixture(scope="session")
def pendulum_ce(pendulum, pendulum_opts):
    return certainty_equivalent(
        pendulum.system, pendulum.costs, pendulum_opts, pendulum.true_system
    )


@pytest.fixture(scope="session")
def pendulum_alg1(pendulum, pendulum_opts):
    a_mats = [D for D, _ in pendulum.noise.a_dirs]
    return design_algorithm_1(
        pendulum.system, pendulum.costs, a_mats, [], pendulum.structure,
        pendulum_opts, pendulum.true_system,
    )


@pytest.fixture(scope="session")
def pendulum_alg2(pendulum, pendulum_opts):
    a_mats = [D for D, _ in pendulum.noise.a_dirs]
    return design_algorithm_2(
        pendulum.system, pendulum.costs, a_mats, [], pendulum.structure,
        pendulum_opts, pendulum.true_system,
    )

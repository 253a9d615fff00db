import math

import numpy as np
import numpy.linalg as la
import pytest

from multinoise import (
    BisectOptions,
    DesignOptions,
    DimensionError,
    GareOptions,
    GareSolution,
    NumericalError,
    certainty_equivalent,
    design_algorithm_1,
    design_algorithm_2,
    inverted_pendulum,
    moment_operator,
    nlmi_feasible,
    spectral_radius,
    symmetrize,
)
from multinoise.gare import _lifted_step_operators, _schur_layout
from multinoise.margins import BRACKET_CAP, bisect_max_feasible
from multinoise.matops import abs_part, pos_part
from multinoise.problems import _OPTIONS
from multinoise.stability import _svec_maps, _unsvec
from multinoise.verify import _grid_axes, _psd_sqrt


#: The LU stability verdict and the eigenvalue-radius verdict are both
#: exact, so they can differ only by rounding near the threshold. The tests
#: assert their agreement for moment radii farther than this from 1.
VERDICT_BAND = 1e-6


def vec(X):
    """Column-stacking vectorization, the coordinates of the reference lift
    ``moment_operator``."""
    return np.asarray(X, dtype=float).reshape(-1, order="F")


def unvec(v, n):
    """Inverse of :func:`vec` for an n x n matrix."""
    return np.asarray(v, dtype=float).reshape((n, n), order="F")


def perturbed_matrix(A_cl, dirs, mu):
    """Closed-loop matrix shifted by constant perturbation coefficients:
    ``A_cl + sum_k mu_k * D_k``."""
    A_cl = np.asarray(A_cl, dtype=float)
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu.size != len(dirs):
        raise DimensionError(
            f"got {mu.size} coefficients for {len(dirs)} directions"
        )
    M = A_cl.copy()
    for c, (D, _) in zip(mu, dirs):
        M += c * D
    return M


def problem_to_dict(problem):
    """Serialize a problem back into the document schema."""
    data = {
        "A": problem.system.A.tolist(),
        "B": problem.system.B.tolist(),
    }
    if problem.true_system is not None:
        data["A_bar"] = problem.true_system.A_bar.tolist()
        data["B_bar"] = problem.true_system.B_bar.tolist()
    if problem.noise.p:
        data["A_dirs"] = [D.tolist() for D, _ in problem.noise.a_dirs]
        data["alpha"] = [v for _, v in problem.noise.a_dirs]
    if problem.noise.q:
        data["B_dirs"] = [D.tolist() for D, _ in problem.noise.b_dirs]
        data["beta"] = [v for _, v in problem.noise.b_dirs]
    if problem.structure is not None:
        data["theta"] = problem.structure.theta.tolist()
        if problem.structure.q:
            data["phi"] = problem.structure.phi.tolist()
    if problem.costs is not None:
        data["Q"] = problem.costs.Q.tolist()
        data["R"] = problem.costs.R.tolist()
    data["options"] = {key: getattr(getattr(problem, group), name)
                       for key, (group, name, _) in _OPTIONS.items()}
    return data


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

    An oracle for ``solve_gare``, which iterates the same map on svec
    coordinates through stacked lifts; the two share no code.
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


def stepwise_solve_gare(sys, noise, costs, opts=None):
    """``solve_gare`` with the stopping rule and the blowup test evaluated
    after every step, on the same lifted operator and pivots.

    An oracle for ``solve_gare``, which evaluates both tests once per block
    of iterates and must stop at the same iterate with the same result.
    """
    if opts is None:
        opts = GareOptions()
    n, m = sys.n, sys.m
    R, C, eye = _svec_maps(n)
    N = eye.size
    pivots, inner, cross = _schur_layout(n, m)
    w = 2.0 - eye
    S = _lifted_step_operators(sys, noise)
    q = costs.Q[R, C]
    const = np.zeros(len(S))
    const[:N] = q
    const[inner] = costs.R

    s = q
    iterations = 0
    while iterations < opts.max_iter:
        z = S @ s
        z += const
        for base, kk, ik, jk in pivots:
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


def bisect_min_feasible(feasible, abs_tol=1e-9, cap=2.0 ** 60):
    """Smallest z >= 0 with ``feasible(z)`` true, for predicates monotone
    nondecreasing in z; returns the feasible upper end of the final
    bracket.

    An oracle for the single-direction auxiliary scalar, which the library
    takes from the root of a quadratic pencil instead of bisecting.
    """
    if feasible(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while not feasible(hi):
        lo = hi
        hi *= 2.0
        assert hi <= cap, "no feasible value below the cap"
    while hi - lo > abs_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # no float left between the ends
            break
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def sequential_bisect(feasible, rel_tol=1e-6):
    """``bisect_max_feasible`` one probe at a time, for a predicate of a
    single y: ``(y, cap_hit, witness)``.

    An oracle for ``bisect_max_feasible``, which asks for the points of
    several steps at once and must read the verdicts of these probes, in
    this order, and no others.
    """
    witness = feasible(0.0)
    if not witness:
        return 0.0, False, None
    lo, hi = 0.0, 1.0
    while probe := feasible(hi):
        lo, witness = hi, probe
        if hi == BRACKET_CAP:
            return lo, True, witness
        hi *= 2.0
    while hi - lo > rel_tol * hi + 1e-12:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # no float left between the ends
            break
        if probe := feasible(mid):
            lo, witness = mid, probe
        else:
            hi = mid
    return lo, False, witness


def nlmi_bracket(A_cl, dirs, q_matrix, P, w, bidirectional=False):
    """Final bracket of a bisection at rel_tol 1e-9 on ``nlmi_feasible``
    at eta = y * w: the feasible end, the smallest infeasible probe (inf if
    none) and the cap flag."""
    infeasible = [math.inf]

    def feasible(ys):
        verdicts = [nlmi_feasible(A_cl, dirs, q_matrix, P, y * w,
                                  bidirectional) for y in ys]
        infeasible.extend(y for y, ok in zip(ys, verdicts) if not ok)
        return verdicts

    lo, cap_hit, _ = bisect_max_feasible(feasible,
                                         BisectOptions(rel_tol=1e-9))
    return lo, min(infeasible), cap_hit


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


def full_grid_sweep(A_cl, dirs, box, samples_per_dir):
    """(samples, worst_rho, worst_mu, all_stable) of an eigen-solve at every
    point of the tensor grid, in chunks of 65536 points in grid order; the
    first point in grid order wins a tie. Each matrix is built entry by
    entry in direction order, A_cl and then mu_i D_i for each direction in
    turn, so its bits do not depend on the chunk.

    An oracle for ``grid_verify``, which solves only the points that its
    radius bound cannot rule out; the two share only the grid axes.
    """
    A_cl = np.asarray(A_cl, dtype=float)
    axes = _grid_axes(box, samples_per_dir)
    mesh = np.meshgrid(*axes, indexing="ij")
    combos = np.stack([m.reshape(-1) for m in mesh], axis=1)
    D = np.stack([np.asarray(M, dtype=float) for M, _ in dirs])
    worst = -np.inf
    worst_mu = combos[0]
    chunk = 65536
    for start in range(0, combos.shape[0], chunk):
        part = combos[start:start + chunk]
        mats = np.repeat(A_cl[None], len(part), axis=0)
        for i, D_i in enumerate(D):
            mats += part[:, i, None, None] * D_i
        rho = np.abs(la.eigvals(mats)).max(axis=1)
        idx = int(np.argmax(rho))
        if rho[idx] > worst:
            worst = float(rho[idx])
            worst_mu = part[idx].copy()
    return int(combos.shape[0]), worst, worst_mu, worst < 1.0


def assert_sweep_matches_oracle(report, A_cl, dirs, box, samples_per_dir):
    """The report equals the full sweep's bit for bit."""
    samples, worst, worst_mu, stable = full_grid_sweep(A_cl, dirs, box,
                                                       samples_per_dir)
    assert report.samples == samples
    assert report.worst_rho.hex() == worst.hex()
    assert report.worst_mu.dtype == worst_mu.dtype
    assert report.worst_mu.tobytes() == worst_mu.tobytes()
    assert report.all_stable == stable
    assert 1 <= report.eigensolves <= samples



def row_loop_second_moment(A_cl, dirs, cfg, x0_cov):
    """Monte Carlo estimate of E[x_t x_t^T], shape (horizon + 1, n, n),
    with the states of each block of 1024 trials as rows, stepped by one
    three-operand einsum over the directions.

    An oracle for ``simulate_second_moment``, which draws the same numbers
    from the same per-trial streams and steps every state of a block with
    one stacked product; the two share only the square root of ``x0_cov``.
    """
    A_cl = np.asarray(A_cl, dtype=float)
    n, k = A_cl.shape[0], len(dirs)
    D = (np.stack([np.asarray(M, dtype=float) for M, _ in dirs]) if k
         else np.zeros((0, n, n)))
    stds = np.sqrt(np.array([v for _, v in dirs])) if k else np.zeros(0)
    Lx = _psd_sqrt(symmetrize(x0_cov))
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    sums = np.zeros((cfg.horizon + 1, n, n))
    for start in range(0, cfg.trials, 1024):
        block = streams[start:start + 1024]
        X = np.zeros((len(block), n))
        noise = np.zeros((len(block), cfg.horizon, k))
        for i, child in enumerate(block):
            rng = np.random.Generator(np.random.PCG64(child))
            X[i] = Lx @ rng.standard_normal(n)
            if k:
                if cfg.noise_law == "gaussian":
                    noise[i] = rng.standard_normal((cfg.horizon, k)) * stds
                else:
                    signs = rng.integers(0, 2, size=(cfg.horizon, k)) * 2 - 1
                    noise[i] = signs * stds
        sums[0] += np.einsum("ti,tj->ij", X, X)
        for t in range(cfg.horizon):
            Xn = X @ A_cl.T
            if k:
                Xn = Xn + np.einsum("tk,kij,tj->ti", noise[:, t, :], D, X)
            X = Xn
            sums[t + 1] += np.einsum("ti,tj->ij", X, X)
    return sums / cfg.trials

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

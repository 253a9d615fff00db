"""Property tests of the svec lift, the LU stability verdict, the
pencil-root margins, the speculative bisection, the bound-then-solve grid
sweep and the stacked Monte Carlo propagation."""

import math
from functools import partial
from unittest import mock

import numpy as np
import numpy.linalg as la
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import multinoise.verify
from multinoise import (
    BisectOptions,
    MonteCarloConfig,
    PerturbationBox,
    UncertaintyStructure,
    grid_verify,
    is_mean_square_stable,
    moment_operator,
    nlmi_feasible,
    shared_lyapunov_margins,
    simulate_second_moment,
    single_direction_margin,
    solve_gle,
    spectral_radius,
)
from multinoise.margins import (BRACKET_CAP, _single_dir_condition,
                                bisect_max_feasible)
from multinoise.matops import pos_part, symmetrize
from multinoise.stability import _mss_holds, _svec_lift
from multinoise.verify import (
    _MC_BLOCK,
    _survivors,
    exact_moment_recursion,
)

from conftest import (
    VERDICT_BAND,
    assert_sweep_matches_oracle,
    bisect_min_feasible,
    direct_margin_matrix,
    nlmi_bracket,
    random_mss_instance,
    row_loop_second_moment,
    sequential_bisect,
)

#: derandomized, so that every run draws the same examples
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def instances(draw):
    """A seeded closed loop with 0-3 directions, n in 1..5."""
    n = draw(st.integers(1, 5))
    p = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A_cl = rng.normal(size=(n, n))
    dirs = [(rng.normal(size=(n, n)), float(rng.uniform(0.0, 1.0)))
            for _ in range(p)]
    return A_cl, dirs


@PROPERTY
@given(instances(), st.floats(0.05, 20.0))
def test_svec_lift_homogeneous_of_degree_two(instance, c):
    A_cl, dirs = instance
    S = _svec_lift(A_cl, dirs)
    scaled = _svec_lift(c * A_cl, [(c * D, a) for D, a in dirs])
    np.testing.assert_allclose(scaled, c * c * S, rtol=1e-12,
                               atol=1e-12 * c * c * np.abs(S).max())


@PROPERTY
@given(instances(),
       st.floats(0.01, 4.0).filter(lambda r: abs(r - 1.0) > 2 * VERDICT_BAND))
def test_lu_verdict_agrees_with_radius_outside_band(instance, target):
    A0, dirs0 = instance
    r0 = spectral_radius(moment_operator(A0, dirs0))
    assume(r0 > 0.0)
    # rescaled to the target radius, as in conftest.random_mss_instance
    s = np.sqrt(target / r0)
    A_cl, dirs = s * A0, [(D, s * s * a) for D, a in dirs0]
    mss, _ = is_mean_square_stable(A_cl, dirs)
    assert _mss_holds(A_cl, dirs) == mss == (target < 1.0)


@st.composite
def margin_instances(draw):
    """A seeded mean-square stable closed loop, n in 1..4 with 1-3
    directions at moment radius at most 0.95, and positive weights."""
    n = draw(st.integers(1, 4))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A_cl, dirs = random_mss_instance(rng, n, p, draw(st.floats(0.05, 0.95)))
    return A_cl, dirs, rng.uniform(0.2, 1.0, size=p)


def _tolerance_floor(y_tol, L, S, scale=1.0):
    """Lower bound on the exact edge of L - y R1 - y^2 R0 >= 0, given that
    its matrix S at y_tol passed is_psd under the default tolerance
    1e-9 * max(1, ||S||) after division by ``scale``.

    lambda_min of the concave matrix function is concave in y, at least
    lambda_min(L) at 0 and at least -tau at y_tol, so it stays positive
    below y_tol * lambda_min(L) / (lambda_min(L) + tau).
    """
    lam = la.eigvalsh(L)[0]
    tau = scale * 1e-9 * max(1.0, np.abs(la.eigvalsh(S / scale)).max())
    return y_tol * lam / (lam + tau)


@PROPERTY
@given(margin_instances(), st.booleans())
def test_shared_margin_root_in_bisection_bracket(instance, bidirectional):
    # the root passes nlmi_feasible at its box and lies in the final bracket
    # of the rel_tol 1e-9 bisection, whose feasible end may sit beyond the
    # exact edge by the is_psd tolerance
    A_cl, dirs, theta = instance
    structure = UncertaintyStructure(theta=theta)
    cert = shared_lyapunov_margins(A_cl, dirs, None, structure,
                                   bidirectional)
    w = structure.weights
    assert nlmi_feasible(A_cl, dirs, cert.q_matrix, cert.P, cert.box.bounds,
                         bidirectional)
    lo, hi, _ = nlmi_bracket(A_cl, dirs, cert.q_matrix, cert.P, w,
                             bidirectional)
    L = direct_margin_matrix(A_cl, dirs, cert.q_matrix, cert.P, 0.0 * w)
    S = direct_margin_matrix(A_cl, dirs, cert.q_matrix, cert.P, lo * w,
                             bidirectional)
    assert _tolerance_floor(lo, L, S) * (1 - 1e-8) <= cert.y_star <= hi


@PROPERTY
@given(margin_instances())
def test_single_direction_root_matches_bisection(instance):
    # zeta passes its defining check, no smaller zeta passes the bisection
    # oracle, and the margin eta = 1/t sits at the oracle's, less the
    # is_psd tolerance; the check's matrix is t (L - eta C - eta^2 D'PD)
    A_cl, ((D, alpha), *_), _ = instance
    n = A_cl.shape[0]
    Q = np.eye(n)
    eta, zeta = single_direction_margin(A_cl, D, alpha, Q)
    P = solve_gle(A_cl, [(D, alpha)], Q).P
    DPD = D.T @ P @ D
    cross = pos_part(A_cl.T @ P @ D + D.T @ P @ A_cl)
    assert _single_dir_condition(zeta, alpha, Q, DPD, cross)
    z_ref = bisect_min_feasible(
        lambda z: _single_dir_condition(z, alpha, Q, DPD, cross),
        abs_tol=1e-12)
    assert zeta >= z_ref - 1e-12
    eta_ref = np.sqrt(z_ref * z_ref + alpha) - z_ref
    L = Q + alpha * DPD
    S = L - eta_ref * cross - eta_ref ** 2 * DPD
    assert eta >= _tolerance_floor(eta_ref, L, S, eta_ref) * (1 - 1e-8)


#: frontiers of monotone threshold predicates y <= t: infeasible at 0, at
#: 0, subnormal, interior, and at or above the cap
THRESHOLDS = st.one_of(
    st.sampled_from([-1.0, 0.0, BRACKET_CAP, 2.0 * BRACKET_CAP, math.inf]),
    st.floats(5e-324, np.finfo(float).tiny, exclude_max=True),
    st.floats(0.0, BRACKET_CAP, exclude_min=True, exclude_max=True),
)


@PROPERTY
@given(THRESHOLDS, st.sampled_from([0.0, 1e-6, 0.25]))
def test_bisection_reads_the_sequential_probes(threshold, rel_tol):
    # each verdict records when the walk calls it and returns a witness of
    # its own, and every point the one-at-a-time oracle never probes
    # answers with a verdict that fails the test if the walk calls it
    probes = []

    def scalar(y):
        probes.append(y)
        return y <= threshold

    want_y, want_cap, want_witness = sequential_bisect(scalar, rel_tol)
    read, witnesses = [], {}

    def verdict(y):
        read.append(y)
        return witnesses.setdefault(y, object()) if y <= threshold else None

    def unread(y):
        raise AssertionError(f"read the unprobed point {y!r}")

    def feasible(ys):
        return [partial(verdict if y in probes else unread, y) for y in ys]

    y, cap_hit, witness = bisect_max_feasible(feasible,
                                              BisectOptions(rel_tol))
    assert (y, cap_hit) == (want_y, want_cap)
    assert read == probes
    assert witness is (witnesses[y] if want_witness else None)


@st.composite
def grid_instances(draw):
    """A seeded closed loop, n in 1..5 with 1-3 directions, a box in either
    mode with bounds that may be zero, and at most about 3000 grid points."""
    n = draw(st.integers(1, 5))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A_cl = draw(st.floats(0.1, 2.0)) * rng.normal(size=(n, n))
    dirs = [(rng.normal(size=(n, n)), 1.0) for _ in range(p)]
    bounds = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                           min_size=p, max_size=p))
    box = PerturbationBox(eta=bounds, psi=[], bidirectional=draw(st.booleans()))
    samples = draw(st.integers(2, max(2, int(3000 ** (1 / p)))))
    return A_cl, dirs, box, samples


@PROPERTY
@given(grid_instances(), st.sampled_from([1, 100, 65536]))
def test_grid_sweep_matches_full_sweep_bitwise(instance, block_entries):
    # blocks of one entry bound and solve point by point, 100 entries give
    # many blocks, and the library's blocks at most a few per grid here
    A_cl, dirs, box, samples = instance
    with mock.patch.object(multinoise.verify, "_BLOCK_ENTRIES",
                           block_entries):
        report = grid_verify(A_cl, dirs, box, samples)
    assert_sweep_matches_oracle(report, A_cl, dirs, box, samples)


@PROPERTY
@given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.integers(-300, 300),
       st.booleans())
def test_radius_bound_lies_above_the_radius(n, seed, exponent, symmetric):
    # a floor just below each radius keeps every matrix, so no level's
    # bound fell below the radius; an inf or NaN bound keeps its matrix
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(16, n, n))
    if symmetric:
        M = M + M.transpose(0, 2, 1)
    M *= 10.0 ** exponent
    for X in M:
        rho = np.abs(la.eigvals(X)).max()
        assert _survivors(X[None], rho * (1 - 1e-12)).size == 1
        if symmetric and abs(exponent) <= 100:
            # ||N^256||_F <= sqrt(n) rho(N)^256 for symmetric N, so the
            # last level rules out a floor 2% above the radius
            assert _survivors(X[None], 1.02 * rho).size == 0


@st.composite
def monte_carlo_instances(draw):
    """A seeded closed loop, n in 1..4 with 0-3 directions, and a random
    positive semidefinite initial covariance, possibly singular."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(0.1, 1.5)) / np.sqrt(n)
    A_cl = scale * rng.normal(size=(n, n))
    dirs = [(scale * rng.normal(size=(n, n)), float(rng.uniform(0.0, 1.0)))
            for _ in range(k)]
    L = rng.normal(size=(n, draw(st.integers(1, n))))
    return A_cl, dirs, L @ L.T


@PROPERTY
@given(monte_carlo_instances(), st.sampled_from(["gaussian", "rademacher"]),
       st.sampled_from([1, _MC_BLOCK, _MC_BLOCK + 1]), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_monte_carlo_matches_row_loop(instance, law, trials, horizon, seed):
    # same streams and draws; only the order of the summations differs
    A_cl, dirs, x0_cov = instance
    cfg = MonteCarloConfig(horizon=horizon, trials=trials, seed=seed,
                           noise_law=law)
    hist = simulate_second_moment(A_cl, dirs, cfg, x0_cov)
    oracle = row_loop_second_moment(A_cl, dirs, cfg, x0_cov)
    for got, want in zip(hist.empirical, oracle):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    exact = exact_moment_recursion(A_cl, dirs, symmetrize(x0_cov), horizon)
    assert hist.exact.tobytes() == exact.tobytes()

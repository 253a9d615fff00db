import math
import warnings

import numpy as np
import numpy.linalg as la
import pytest
import scipy.linalg

from multinoise import (
    CostPair,
    DimensionError,
    GareOptions,
    NoiseModel,
    NominalSystem,
    NumericalError,
    closed_loop_substitution,
    is_mean_square_stable,
    solve_gare,
)
from multinoise import gare
from multinoise.gare import feasible_gare_solution

from conftest import (direct_value_step, random_mss_instance,
                      stepwise_solve_gare)

TIGHT = GareOptions(tol_abs=1e-14, tol_rel=1e-14)
#: the largest finite tolerance accepts any finite first iterate P_1 as
#: converged, so solve_gare returns one lifted step from P_0 = Q
ONE_STEP = GareOptions(tol_abs=np.finfo(float).max, max_iter=1)


def scalar_problem(a=1.0, b=1.0, q=1.0, r=1.0):
    sys = NominalSystem(A=[[a]], B=[[b]])
    costs = CostPair(Q=[[q]], R=[[r]])
    return sys, costs


def finite_horizon_oracle(A, B, Q, R, horizon=2000):
    """Independent oracle: backward Riccati difference recursion."""
    P = np.array(Q, dtype=float)
    for _ in range(horizon):
        G = R + B.T @ P @ B
        P = Q + A.T @ P @ A - A.T @ P @ B @ la.solve(G, B.T @ P @ A)
        P = 0.5 * (P + P.T)
    return P


def random_controllable(rng, n, m):
    while True:
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
        if np.linalg.matrix_rank(ctrb) == n:
            return A, B


def test_value_iteration_step_scalar():
    sys, costs = scalar_problem()
    # P_1 = 1 + 1 - 1 * (1 + 1)^-1 * 1 from P_0 = Q = 1
    sol = solve_gare(sys, NoiseModel(), costs, ONE_STEP)
    assert sol.iterations == 1
    assert sol.P[0, 0] == pytest.approx(1.5)
    P1 = direct_value_step(np.array([[1.0]]), sys, NoiseModel(), costs)
    assert P1[0, 0] == pytest.approx(1.5)


def test_value_iteration_step_zero_b_reduces_to_quadratic_recursion():
    rng = np.random.default_rng(10)
    A = 0.5 * rng.normal(size=(3, 3))
    D = rng.normal(size=(3, 3))
    sys = NominalSystem(A=A, B=np.zeros((3, 1)))
    noise = NoiseModel(a_dirs=[(D, 0.3)])
    costs = CostPair(Q=np.eye(3), R=np.eye(1))
    P = np.eye(3)
    expected = np.eye(3) + A.T @ P @ A + 0.3 * (D.T @ P @ D)
    lifted = solve_gare(sys, noise, costs, ONE_STEP).P
    np.testing.assert_allclose(lifted, expected, atol=1e-12)
    stepped = direct_value_step(P, sys, noise, costs)
    np.testing.assert_allclose(stepped, expected, atol=1e-12)


@pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (4, 1), (4, 2), (4, 3),
                                  (6, 1), (6, 2), (6, 3)])
def test_value_iteration_step_with_input_noise_matches_direct_form(n, m):
    # m = 3 has a pivot that updates a later input's cross and inner entries
    rng = np.random.default_rng(100 + 10 * n + m)
    sys = NominalSystem(A=rng.normal(size=(n, n)) / np.sqrt(n),
                        B=rng.normal(size=(n, m)))
    noise = NoiseModel(
        a_dirs=[(rng.normal(size=(n, n)), a) for a in (0.3, 0.0, 0.1)],
        b_dirs=[(rng.normal(size=(n, m)), b) for b in (0.2, 0.05)],
    )
    X = rng.normal(size=(n, n))
    costs = CostPair(Q=np.eye(n) + X @ X.T, R=np.eye(m))
    lifted = solve_gare(sys, noise, costs, ONE_STEP).P
    stepped = direct_value_step(costs.Q, sys, noise, costs)
    np.testing.assert_allclose(lifted, stepped, rtol=1e-12,
                               atol=1e-12 * la.norm(stepped))


def test_stopping_rule_and_blowup_use_the_frobenius_norm():
    # P_0 = I and P_1 = I + A^T A = [[2, 1], [1, 2]]. The step A^T A has
    # Frobenius norm 2 but the plain norm of its lower triangle is sqrt(3);
    # P_1 has Frobenius norm sqrt(10) but lower-triangle norm 3.
    sys = NominalSystem(A=[[1.0, 1.0], [0.0, 0.0]], B=np.zeros((2, 1)))
    costs = CostPair(Q=np.eye(2), R=np.eye(1))
    capped = solve_gare(sys, NoiseModel(), costs,
                        GareOptions(tol_abs=1.9, tol_rel=0.0, max_iter=1))
    assert capped.status == "iteration_cap"
    blown = solve_gare(sys, NoiseModel(), costs,
                       GareOptions(blowup=3.1, max_iter=1))
    assert blown.status == "blowup"
    kept = solve_gare(sys, NoiseModel(), costs,
                      GareOptions(tol_abs=2.0, tol_rel=0.0, blowup=3.2,
                                  max_iter=1))
    assert kept.status == "converged"
    np.testing.assert_array_equal(kept.P, [[2.0, 1.0], [1.0, 2.0]])


def test_fixed_point_is_stationary():
    sys, costs = scalar_problem()
    noise = NoiseModel()
    sol = solve_gare(sys, noise, costs, TIGHT)
    assert sol.converged
    stepped = direct_value_step(sol.P, sys, noise, costs)
    assert la.norm(stepped - sol.P, "fro") <= 1e-12


def test_golden_ratio_scalar():
    sys, costs = scalar_problem()
    sol = solve_gare(sys, NoiseModel(), costs, TIGHT)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    assert sol.P[0, 0] == pytest.approx(golden, abs=1e-10)
    assert sol.K[0, 0] == pytest.approx(-1.0 / golden, abs=1e-10)


def test_zero_noise_pendulum_gain(pendulum):
    sol = solve_gare(pendulum.system, NoiseModel(), pendulum.costs,
                     pendulum.gare_options)
    assert sol.converged
    np.testing.assert_allclose(sol.K, [[-9.14, -4.15]], rtol=0.01)


def test_zero_noise_matches_dare_oracles():
    rng = np.random.default_rng(11)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        A, B = random_controllable(rng, n, m)
        A = A / max(1.0, 0.8 * np.max(np.abs(la.eigvals(A))))
        sys = NominalSystem(A=A, B=B)
        costs = CostPair(Q=np.eye(n), R=np.eye(m))
        sol = solve_gare(sys, NoiseModel(), costs, TIGHT)
        assert sol.converged
        P_dare = scipy.linalg.solve_discrete_are(A, B, np.eye(n), np.eye(m))
        assert la.norm(sol.P - P_dare, "fro") <= 1e-6 * la.norm(P_dare, "fro")
        P_fh = finite_horizon_oracle(A, B, np.eye(n), np.eye(m))
        assert la.norm(sol.P - P_fh, "fro") <= 1e-6 * la.norm(P_fh, "fro")


def test_divergence_above_stabilizability_threshold(pendulum):
    noise = pendulum.noise.with_variances([110.0], [])
    sol = solve_gare(pendulum.system, noise, pendulum.costs,
                     pendulum.gare_options)
    assert not sol.converged and sol.status == "blowup"
    assert sol.P is None and sol.K is None


def test_status_names_the_stop(pendulum):
    opts = pendulum.gare_options
    sol = solve_gare(pendulum.system, pendulum.noise, pendulum.costs, opts)
    assert sol.converged and sol.status == "converged"
    capped = GareOptions(tol_abs=opts.tol_abs, tol_rel=opts.tol_rel,
                         blowup=opts.blowup, max_iter=2)
    sol = solve_gare(pendulum.system, pendulum.noise, pendulum.costs, capped)
    assert sol.status == "iteration_cap" and sol.iterations == 2
    assert not sol.converged and sol.P is None and sol.K is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_status_non_finite_when_an_iterate_overflows():
    # A^2 overflows in the first iterate, before any norm can pass blowup
    sys, costs = scalar_problem(a=1e200)
    sol = solve_gare(sys, NoiseModel(), costs)
    assert sol.status == "non_finite" and sol.iterations == 1
    assert not sol.converged


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("A, B", [
    ([[1.0]], [[1e160]]),
    (np.eye(2), [[1e200, 0.0], [0.0, 1.0]]),  # one of two inputs
])
def test_status_non_finite_when_the_inner_matrix_overflows(A, B):
    # B^T P B is infinite at P_0 = Q; an infinite pivot must not eliminate
    # its input as if the input weighed nothing, which would leave finite
    # iterates growing until the iteration cap
    sys = NominalSystem(A=A, B=B)
    costs = CostPair(Q=np.eye(sys.n), R=np.eye(sys.m))
    sol = solve_gare(sys, NoiseModel(), costs)
    assert sol.status == "non_finite" and sol.iterations == 1
    assert not sol.converged


def test_inner_matrix_that_rounds_to_singular_is_a_numerical_error():
    # R + B^T P B = [[1 + 1e18, 1e18], [1e18, 1 + 1e18]] rounds to a
    # singular matrix, so the second pivot is exactly zero
    sys = NominalSystem(A=[[1.0]], B=[[1e9, 1e9]])
    costs = CostPair(Q=[[1.0]], R=np.eye(2))
    with pytest.raises(NumericalError, match="not positive definite"):
        solve_gare(sys, NoiseModel(), costs)


def test_converged_solve_takes_no_linear_solve_per_iteration(monkeypatch):
    # the loop eliminates the inputs by pivots; only the gain at
    # convergence solves with the inner matrix
    calls = []
    solve = gare.la.solve

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(gare.la, "solve", counted)
    # state noise near the stabilizability edge slows the iteration down
    sys = NominalSystem(A=[[1.0, 0.5], [0.0, 1.0]], B=np.eye(2))
    noise = NoiseModel(a_dirs=[(np.eye(2), 0.9)])
    sol = solve_gare(sys, noise, CostPair(Q=np.eye(2), R=np.eye(2)), TIGHT)
    assert sol.converged and sol.iterations >= 100
    assert len(calls) <= 1


def assert_matches_stepwise(sys, noise, costs, opts, got=None):
    """``got``, by default solve_gare's result, equals the per-step loop's
    bit for bit; returns its status."""
    with np.errstate(all="ignore"):  # the oracle's last iterate may overflow
        want = stepwise_solve_gare(sys, noise, costs, opts)
    if got is None:
        got = solve_gare(sys, noise, costs, opts)
    assert (got.status, got.iterations) == (want.status, want.iterations)
    for a, b in ((got.P, want.P), (got.K, want.K)):
        assert (a is None and b is None) or a.tobytes() == b.tobytes()
    return got.status


def seeded_plant(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
    sys = NominalSystem(A=rng.normal(size=(n, n)), B=rng.normal(size=(n, m)))
    alpha = float(10 ** rng.uniform(-2, 1))
    noise = NoiseModel(a_dirs=[(rng.normal(size=(n, n)) / n, alpha)],
                       b_dirs=[(rng.normal(size=(n, m)), 0.1)])
    return sys, noise, CostPair(Q=np.eye(n), R=np.eye(m))


def test_block_stopping_rule_matches_the_per_step_loop():
    # the plants stop at iterates all through the blocks, by every status:
    # the default blowup stops diverging plants, while a blowup of 1e300 lets
    # them run until the norm's square overflows
    statuses = set()
    for seed in range(40):
        plant = seeded_plant(seed)
        for blowup in (1e12, 1e300):
            opts = GareOptions(blowup=blowup, max_iter=1000)
            statuses.add(assert_matches_stepwise(*plant, opts))
    assert statuses == {"converged", "iteration_cap", "blowup", "non_finite"}


def test_stacked_members_match_the_per_step_loop():
    # the seeded plants stacked by shape: members stop by every status at
    # iterates all through the blocks, and each leaves the stack on its own
    by_shape = {}
    for seed in range(40):
        sys, noise, costs = seeded_plant(seed)
        by_shape.setdefault((sys.n, sys.m), []).append((sys, noise, costs))
    statuses = set()
    for plants in by_shape.values():
        systems, noises, costs = zip(*plants)
        for blowup in (1e12, 1e300):
            opts = GareOptions(blowup=blowup, max_iter=1000)
            stack = gare._solve_stack(systems, noises, costs[0], opts)
            assert len(stack) == len(plants)
            for plant, got in zip(plants, stack):
                statuses.add(assert_matches_stepwise(*plant, opts, got))
    assert statuses == {"converged", "iteration_cap", "blowup", "non_finite"}


def test_a_member_that_fails_its_pivot_leaves_the_others_alone():
    # the second member is test_inner_matrix_that_rounds_to_singular's
    # plant; its failure is returned, and the members around it converge,
    # blow up and run to the cap exactly as they do alone
    costs = CostPair(Q=[[1.0]], R=np.eye(2))
    systems = [NominalSystem(A=[[0.5]], B=[[1.0, 0.5]]),
               NominalSystem(A=[[1.0]], B=[[1e9, 1e9]]),
               NominalSystem(A=[[3.0]], B=[[0.0, 0.0]]),
               NominalSystem(A=[[1.0]], B=[[1.0, 0.0]])]
    noises = [NoiseModel(), NoiseModel(), NoiseModel(),
              NoiseModel(a_dirs=[(np.eye(1), 0.999)])]
    opts = GareOptions(max_iter=300)
    stack = gare._solve_stack(systems, noises, costs, opts)
    assert isinstance(stack[1], NumericalError)
    assert "not positive definite" in str(stack[1])
    with pytest.raises(NumericalError):
        stepwise_solve_gare(systems[1], noises[1], costs, opts)
    healthy = [0, 2, 3]
    statuses = [assert_matches_stepwise(systems[i], noises[i], costs, opts,
                                        stack[i]) for i in healthy]
    assert statuses == ["converged", "blowup", "iteration_cap"]
    # the probes of the design bisections raise the failure only when its
    # verdict is called
    verdicts = gare._probe_stack(systems, noises, costs, opts)
    assert verdicts[0]() is not None
    assert [verdict() for verdict in verdicts[2:]] == [None, None]
    with pytest.raises(NumericalError, match="not positive definite"):
        verdicts[1]()


@pytest.mark.parametrize("max_iter", [1, 7, 8, 9, 23, 24, 25, 31, 32, 33,
                                      55, 56, 57, 63, 64, 65, 95, 96, 97,
                                      119, 120, 121])
@pytest.mark.parametrize("seed, status, stop", [(38, "converged", 94),
                                               (35, "blowup", 58)])
def test_iteration_cap_at_block_edges_matches_the_per_step_loop(
        max_iter, seed, status, stop):
    # blocks of 32 iterates end at iterations 32, 64 and 96, and the caps
    # around them cut a block at, just before and just after its end; the
    # other caps cut a block in its middle. At the defaults each plant
    # stops by its status at ``stop``
    assert gare._BLOCK == 32
    got = assert_matches_stepwise(*seeded_plant(seed),
                                  GareOptions(max_iter=max_iter))
    assert got == (status if max_iter >= stop else "iteration_cap")


def test_a_stop_earlier_in_a_block_beats_a_bad_pivot_later(monkeypatch):
    # with this operator (n = m = 1, P_0 = Q = 1) iterate 1 is 1e13 + 1,
    # past blowup, and iterate 2's pivot is 1 - 0.5 * (1e13 + 1) < 0; the
    # per-step loop returns before computing iterate 2
    monkeypatch.setattr(gare, "_lifted_step_operators",
                        lambda sys, noise: np.array([[1e13], [0.0], [-0.5]]))
    sys, costs = scalar_problem()
    sol = solve_gare(sys, NoiseModel(), costs)
    assert sol.status == "blowup" and sol.iterations == 1


def test_a_negative_pivot_mid_block_is_a_numerical_error(monkeypatch):
    # with this operator (n = m = 1, P_0 = Q = 1) iterate 1 is -1.5, iterate
    # 2's pivot is 1 - 1.5 = -0.5 and iterate 3 passes blowup with pivot
    # 9.5 > 0: the solve fails at iterate 2, alone and stacked between
    # members that converge and blow up
    failing = NominalSystem(A=[[1.0]], B=[[1.0]])
    lift = gare._lifted_step_operators
    monkeypatch.setattr(
        gare, "_lifted_step_operators",
        lambda sys, noise: (np.array([[-2.0], [1.0], [1.0]])
                            if sys is failing else lift(sys, noise)))
    _, costs = scalar_problem()
    opts = GareOptions(blowup=10.0)
    with pytest.raises(NumericalError, match="not positive definite"):
        solve_gare(failing, NoiseModel(), costs, opts)
    converging, _ = scalar_problem(a=0.5)
    diverging, _ = scalar_problem(a=3.0, b=0.0)
    stack = gare._solve_stack([converging, failing, diverging],
                              [NoiseModel()] * 3, costs, opts)
    assert isinstance(stack[1], NumericalError)
    assert assert_matches_stepwise(converging, NoiseModel(), costs, opts,
                                   stack[0]) == "converged"
    assert assert_matches_stepwise(diverging, NoiseModel(), costs, opts,
                                   stack[2]) == "blowup"


def test_discarded_iterates_raise_no_warning():
    # iterate 1 is 1e80, past blowup; the iterates after it in the block
    # overflow, and nothing may warn about them
    sys, costs = scalar_problem(a=1e40, b=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve_gare(sys, NoiseModel(), costs)
    assert sol.status == "blowup" and sol.iterations == 1


@pytest.mark.parametrize("field, value", [
    ("max_iter", 0), ("max_iter", -3), ("max_iter", 2.5), ("max_iter", True),
    ("tol_abs", -1e-10), ("tol_abs", math.inf), ("tol_rel", math.nan),
    ("blowup", 0.0), ("blowup", math.inf), ("blowup", math.nan),
])
def test_bad_options_are_rejected(field, value):
    # a cap below one iteration or a NaN tolerance used to end every solve
    # at iteration_cap, which the designs read as infeasible
    sys, costs = scalar_problem()
    with pytest.raises(ValueError, match=f"GareOptions.{field}"):
        solve_gare(sys, NoiseModel(), costs, GareOptions(**{field: value}))


def test_huge_variance_unstabilizable(pendulum):
    noise = pendulum.noise.with_variances([1e6], [])
    assert feasible_gare_solution(pendulum.system, noise, pendulum.costs,
                                  pendulum.gare_options) is None


def test_feasible_near_design_boundary(pendulum, pendulum_alg1):
    z_star = pendulum_alg1.z_star
    below = pendulum.noise.with_variances([0.999 * z_star], [])
    above = pendulum.noise.with_variances([1.05 * z_star], [])
    assert feasible_gare_solution(pendulum.system, below, pendulum.costs,
                                  pendulum.gare_options) is not None
    assert feasible_gare_solution(pendulum.system, above, pendulum.costs,
                                  pendulum.gare_options) is None


def test_zero_noise_controllable_is_feasible():
    rng = np.random.default_rng(12)
    A, B = random_controllable(rng, 3, 1)
    sys = NominalSystem(A=A, B=B)
    costs = CostPair(Q=np.eye(3), R=np.eye(1))
    assert feasible_gare_solution(sys, NoiseModel(), costs) is not None


def test_monotone_iterates_from_q():
    rng = np.random.default_rng(13)
    sys = NominalSystem(A=rng.normal(size=(3, 3)), B=rng.normal(size=(3, 2)))
    noise = NoiseModel(a_dirs=[(0.3 * rng.normal(size=(3, 3)), 0.2)])
    costs = CostPair(Q=np.eye(3), R=np.eye(2))
    P = costs.Q.copy()
    for _ in range(30):
        P_next = direct_value_step(P, sys, noise, costs)
        assert la.eigvalsh(P_next - P)[0] >= -1e-10
        P = P_next


def test_residual_and_closed_loop_mss_at_convergence():
    rng = np.random.default_rng(14)
    for _ in range(8):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 3))
        A, B = random_controllable(rng, n, m)
        A_cl0, dirs = random_mss_instance(rng, n, 1, 0.5)
        sys = NominalSystem(A=A, B=B)
        noise = NoiseModel(a_dirs=[(dirs[0][0], 0.05)],
                           b_dirs=[(B, 0.02)])
        costs = CostPair(Q=np.eye(n), R=np.eye(m))
        sol = solve_gare(sys, noise, costs)
        if not sol.converged:
            continue
        stepped = direct_value_step(sol.P, sys, noise, costs)
        assert la.norm(sol.P - stepped, "fro") <= 1e-8 * la.norm(sol.P, "fro")
        A_cl, cl_dirs = closed_loop_substitution(sys, noise, sol.K)
        mss, radius = is_mean_square_stable(A_cl, cl_dirs)
        assert mss and radius < 1.0


def test_rejects_semidefinite_q():
    sys, _ = scalar_problem()
    costs = CostPair(Q=[[0.0]], R=[[1.0]])
    with pytest.raises(ValueError):
        solve_gare(sys, NoiseModel(), costs)


def test_misshaped_input_direction_is_a_dimension_error():
    # NoiseModel checks only the row count of an input direction, since it
    # does not know B; the solver checks each direction against (n, m)
    sys = NominalSystem(A=np.eye(2), B=np.ones((2, 1)))
    noise = NoiseModel(a_dirs=[(np.eye(2), 0.1)],
                       b_dirs=[(np.eye(2), 0.1)])
    costs = CostPair(Q=np.eye(2), R=np.eye(1))
    with pytest.raises(DimensionError, match=r"b_dirs\[0\]"):
        solve_gare(sys, noise, costs)


@pytest.mark.parametrize("Q, R, name", [
    (np.eye(3), np.eye(1), "Q must be 2x2"),
    (np.eye(1), np.eye(1), "Q must be 2x2"),
    (np.eye(2), np.eye(2), "R must be 1x1"),
])
def test_misshaped_costs_are_a_dimension_error(Q, R, name):
    # CostPair checks only itself; the value iteration checks Q against n
    # and R against m before it iterates
    sys = NominalSystem(A=np.eye(2), B=np.ones((2, 1)))
    costs = CostPair(Q=Q, R=R)
    with pytest.raises(DimensionError, match=name):
        solve_gare(sys, NoiseModel(), costs)
    with pytest.raises(DimensionError, match=name):
        feasible_gare_solution(sys, NoiseModel(), costs)


def test_gain_with_input_noise_matches_direct_formula():
    # K = -(R + B^T P B + sum_j beta_j B_j^T P B_j)^-1 B^T P A, evaluated
    # here from the returned P in direct matrix form
    rng = np.random.default_rng(15)

    def unit_direction(shape):
        D = rng.normal(size=shape)
        return D / la.norm(D, 2)

    for _ in range(8):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        A, B = random_controllable(rng, n, m)
        A = 0.9 * A / np.max(np.abs(la.eigvals(A)))  # open loop is stable
        sys = NominalSystem(A=A, B=B)
        b_dirs = [(unit_direction((n, m)), float(rng.uniform(0.01, 0.1)))
                  for _ in range(2)]
        noise = NoiseModel(a_dirs=[(unit_direction((n, n)), 0.02)],
                           b_dirs=b_dirs)
        costs = CostPair(Q=np.eye(n), R=np.eye(m))
        sol = solve_gare(sys, noise, costs, TIGHT)
        assert sol.converged
        P = sol.P
        G = costs.R + B.T @ P @ B
        for D, b in b_dirs:
            G = G + b * (D.T @ P @ D)
        K = -la.solve(G, B.T @ P @ A)
        np.testing.assert_allclose(sol.K, K, rtol=1e-10,
                                   atol=1e-12 * la.norm(K))

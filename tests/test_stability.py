import numpy as np
import numpy.linalg as la
import pytest

from multinoise import (
    closed_loop_substitution,
    is_mean_square_stable,
    is_psd,
    moment_operator,
    solve_gle,
    spectral_radius,
    symmetrize,
)
from multinoise.matops import unvec, vec

from conftest import random_mss_instance


def gle_fixed_point_oracle(A_cl, dirs, Q, iters=20000, tol=1e-12):
    """Independent oracle: iterate P <- Q + A^T P A + sum a D^T P D."""
    P = np.array(Q, dtype=float)
    for _ in range(iters):
        Pn = Q + A_cl.T @ P @ A_cl
        for D, a in dirs:
            Pn = Pn + a * (D.T @ P @ D)
        if la.norm(Pn - P, "fro") <= tol * max(1.0, la.norm(Pn, "fro")):
            return Pn
        P = Pn
    return P


def test_moment_operator_scalar():
    M = moment_operator(np.array([[0.7]]), [(np.array([[1.0]]), 0.3)])
    np.testing.assert_allclose(M, [[0.7 ** 2 + 0.3]])


def test_moment_operator_zero_noise_scalar_exact():
    a = 0.829
    M = moment_operator(np.array([[a]]), [])
    np.testing.assert_array_equal(M, [[a * a]])


def test_moment_operator_diagonal():
    M = moment_operator(np.diag([0.5, -0.3]), [])
    np.testing.assert_allclose(
        M, np.diag([0.25, -0.15, -0.15, 0.09]), atol=1e-15
    )


def test_moment_operator_pendulum_design_closed_loop(pendulum, pendulum_alg1):
    noise = pendulum.noise.with_variances([pendulum_alg1.z_star], [])
    A_cl, dirs = closed_loop_substitution(pendulum.system, noise,
                                          pendulum_alg1.K)
    assert spectral_radius(moment_operator(A_cl, dirs)) < 1.0


def test_is_mean_square_stable_scalar_cases():
    one = np.array([[1.0]])
    mss, r = is_mean_square_stable(0.9 * one, [(one, 0.18)])
    assert mss and r == pytest.approx(0.99)
    mss, r = is_mean_square_stable(0.9 * one, [(one, 0.20)])
    assert not mss and r == pytest.approx(1.01)
    mss, _ = is_mean_square_stable(0.999 * one, [])
    assert mss


def test_solve_gle_scalar_closed_form():
    sol = solve_gle(np.array([[0.5]]), [(np.array([[1.0]]), 0.25)], np.eye(1))
    assert sol.mss
    assert sol.P[0, 0] == pytest.approx(1.0 / (1.0 - 0.5))


def test_solve_gle_nilpotent():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    sol = solve_gle(A, [], np.eye(2))
    np.testing.assert_allclose(sol.P, [[1.0, 0.0], [0.0, 2.0]], atol=1e-12)


def test_solve_gle_random_residual_and_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        A_cl, dirs = random_mss_instance(rng, 3, 2, rng.uniform(0.3, 0.9))
        Q = np.eye(3)
        sol = solve_gle(A_cl, dirs, Q)
        assert sol.mss
        T = Q + A_cl.T @ sol.P @ A_cl
        for D, a in dirs:
            T = T + a * (D.T @ sol.P @ D)
        res = la.norm(sol.P - T, "fro") / la.norm(sol.P, "fro")
        assert res < 1e-8
        P_ref = gle_fixed_point_oracle(A_cl, dirs, Q)
        assert la.norm(sol.P - P_ref, "fro") <= 1e-6 * la.norm(P_ref, "fro")


def test_solve_gle_not_mss_returns_flag():
    sol = solve_gle(np.array([[0.9]]), [(np.array([[1.0]]), 0.2)], np.eye(1))
    assert not sol.mss and sol.P is None
    assert sol.moment_radius == pytest.approx(1.01)


def test_check_det_stability_examples():
    one = np.array([[1.0]])
    # mean-square stability fails even though the mean dynamics are stable
    assert not is_mean_square_stable(0.5 * one, [(one, 0.9)])[0]
    assert not is_mean_square_stable(1.2 * one, [])[0]
    A_cl, dirs = 0.5 * one, [(one, 0.25)]
    assert is_mean_square_stable(A_cl, dirs)[0]
    assert spectral_radius(A_cl) < 1.0
    assert solve_gle(A_cl, dirs, np.eye(1)).mss


def test_mss_implies_deterministic_stability():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(1, 4))
        A_cl, dirs = random_mss_instance(rng, n, p, rng.uniform(0.2, 0.999))
        assert is_mean_square_stable(A_cl, dirs)[0]
        assert spectral_radius(A_cl) < 1.0
        assert solve_gle(A_cl, dirs, np.eye(n)).mss


def test_gle_equivalence_straddling_radius_one():
    # positive definiteness of the lifted linear solve agrees with the
    # moment-radius verdict on both sides of the boundary
    rng = np.random.default_rng(8)
    radii = [0.5, 0.9, 0.99, 1.01, 1.5]
    for k in range(40):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 3))
        target = radii[k % len(radii)]
        A_cl, dirs = random_mss_instance(rng, n, p, target)
        mss, radius = is_mean_square_stable(A_cl, dirs)
        assert mss == (target < 1.0)
        M = moment_operator(A_cl, dirs)
        P_raw = symmetrize(unvec(
            la.solve(np.eye(n * n) - M, vec(np.eye(n))), n
        ))
        pd = bool(la.eigvalsh(P_raw)[0] > 0)
        assert pd == mss


def test_gle_monotone_in_q():
    rng = np.random.default_rng(9)
    for _ in range(10):
        A_cl, dirs = random_mss_instance(rng, 3, 1, rng.uniform(0.3, 0.9))
        Q2 = np.eye(3)
        X = rng.normal(size=(3, 3))
        Q1 = Q2 + X @ X.T  # Q1 >= Q2
        P1 = solve_gle(A_cl, dirs, Q1).P
        P2 = solve_gle(A_cl, dirs, Q2).P
        assert is_psd(P1 - P2, tol=1e-9 * la.norm(P1, 2))

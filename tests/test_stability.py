import numpy as np
import numpy.linalg as la
import pytest

from multinoise import (
    DimensionError,
    closed_loop_substitution,
    is_mean_square_stable,
    is_psd,
    moment_operator,
    solve_gle,
    spectral_radius,
    symmetrize,
)
from multinoise import stability
from multinoise.stability import (
    MSS_MARGIN, _mss_holds, _svec_lift, _svec_map_lift,
)

from conftest import VERDICT_BAND, random_mss_instance, unvec, vec


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


# ------------------------------------------------- svec lift and LU verdict

def _rescaled(A_cl, dirs, radius, target):
    # the moment operator is homogeneous of degree two in (A_cl, sqrt(alpha))
    s = np.sqrt(target / radius)
    return s * A_cl, [(D, s * s * a) for D, a in dirs]


def _direct_moment(A_cl, dirs, P):
    out = A_cl.T @ P @ A_cl
    for D, a in dirs:
        out = out + a * (D.T @ P @ D)
    return out


def test_svec_lift_acts_like_the_moment_map_and_keeps_the_radius():
    rng = np.random.default_rng(61)
    for n in (1, 2, 3, 4, 6):
        for p in (0, 1, 3):
            A_cl = rng.normal(size=(n, n))
            dirs = [(rng.normal(size=(n, n)), float(rng.uniform(0.1, 1.0)))
                    for _ in range(p)]
            if p:
                dirs.append((rng.normal(size=(n, n)), 0.0))
            S = _svec_lift(A_cl, dirs)
            assert S.shape == (n * (n + 1) // 2,) * 2
            R, C = np.tril_indices(n)
            X = rng.normal(size=(n, n))
            X = X + X.T
            want = _direct_moment(A_cl, dirs, X)[R, C]
            np.testing.assert_allclose(S @ X[R, C], want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())
            full = spectral_radius(moment_operator(A_cl, dirs))
            assert spectral_radius(S) == pytest.approx(full, rel=1e-10)


def test_svec_map_lift_is_the_weighted_congruence_on_any_rows():
    # the builder's general form against direct products, on every entry
    # of U^T X V, with stacks of different widths on the two sides
    rng = np.random.default_rng(63)
    for n, p, q, t in ((1, 1, 1, 1), (2, 1, 2, 2), (3, 2, 3, 2), (5, 3, 2, 3)):
        U = rng.normal(size=(t, n, p))
        V = rng.normal(size=(t, n, q))
        w = rng.uniform(0.1, 1.0, size=t)
        S = _svec_map_lift(U, V, w, *np.divmod(np.arange(p * q), q))
        R, C = np.tril_indices(n)
        X = rng.normal(size=(n, n))
        X = X + X.T
        want = sum(wt * (Ut.T @ X @ Vt) for wt, Ut, Vt in zip(w, U, V))
        np.testing.assert_allclose((S @ X[R, C]).reshape(p, q), want,
                                   rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_svec_lift_is_the_builder_on_the_svec_rows():
    # the (T, T, R, C) case: the moment lift equals the svec rows of the
    # builder's all-entries form, up to the rounding of the weighted sum
    rng = np.random.default_rng(64)
    for n in (1, 2, 4, 6):
        A_cl, dirs = random_mss_instance(rng, n, 2, 0.9)
        dirs.append((rng.normal(size=(n, n)), 0.0))
        mats = np.stack([A_cl] + [D for D, a in dirs if a != 0.0])
        w = np.array([1.0] + [a for _, a in dirs if a != 0.0])
        full = _svec_map_lift(mats, mats, w, *np.divmod(np.arange(n * n), n))
        R, C = np.tril_indices(n)
        S = _svec_lift(A_cl, dirs)
        np.testing.assert_allclose(S, full[R * n + C], rtol=1e-14,
                                   atol=1e-14 * np.abs(S).max())


@pytest.mark.parametrize("n, count", [(2, 20), (3, 20), (4, 20), (8, 8),
                                      (16, 3)])
def test_lu_verdict_agrees_with_radius_verdict_outside_band(n, count):
    targets = [0.5, 1 - 1e-3, 1 - 1e-5, 1 + 1e-5, 1 + 1e-3, 2.0]
    assert all(abs(t - 1.0) > VERDICT_BAND for t in targets)
    rng = np.random.default_rng(62 + n)
    for _ in range(count):
        p = int(rng.integers(1, 4))
        A0, dirs0 = random_mss_instance(rng, n, p, 0.9)
        for target in targets:
            A_cl, dirs = _rescaled(A0, dirs0, 0.9, target)
            mss, radius = is_mean_square_stable(A_cl, dirs)
            assert abs(radius - 1.0) > VERDICT_BAND
            assert _mss_holds(A_cl, dirs) == mss == (target < 1.0)
            sol = solve_gle(A_cl, dirs, np.eye(n))
            assert sol.mss == mss and (sol.P is None) == (not mss)


def test_lu_verdict_unstable_at_radius_one_and_singular_factorization():
    eye2 = np.eye(2)
    # rho = 1 exactly: I - M is singular, the shifted factorization is not
    assert not _mss_holds(eye2, [])
    sol = solve_gle(eye2, [], eye2)
    assert not sol.mss and sol.P is None
    assert sol.moment_radius == pytest.approx(1.0)
    # (1 - MSS_MARGIN) I - M is exactly zero: the LU itself is singular
    one, zero = np.eye(1), np.zeros((1, 1))
    assert not _mss_holds(zero, [(one, 1.0 - MSS_MARGIN)])
    assert not solve_gle(zero, [(one, 1.0 - MSS_MARGIN)], one).mss
    # above one, I - M is nonsingular but its solution is not definite
    assert not _mss_holds(1.5 * eye2, [])
    assert _mss_holds(0.5 * eye2, [(eye2, 0.5)])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lu_verdict_unstable_for_non_finite_entries(bad):
    A_cl = np.array([[0.5, bad], [0.0, 0.5]])
    D = np.array([[0.1, 0.0], [bad, 0.1]])
    eye2 = np.eye(2)
    for A, dirs in ((A_cl, []), (0.5 * eye2, [(D, 0.1)]),
                    (0.5 * eye2, [(eye2, abs(bad))])):
        assert not _mss_holds(A, dirs)
        assert not solve_gle(A, dirs, eye2).mss


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lu_verdict_unstable_when_the_solve_overflows():
    # the lift is finite, but the LU overflows and leaves NaN in X, which
    # numpy's Cholesky factorization does not reject
    A_cl = np.array([
        [5.690987108742533e+153, 7.241484599608255e+153,
         5.620507526949145e+153],
        [-1.958698767253566e+152, 1.771163102708706e+153,
         3.767012260917831e+153],
        [-4.806982759842333e+153, 5.095060555535232e+153,
         -8.357977991694836e+153],
    ])
    assert np.isfinite(_svec_lift(A_cl, [])).all()
    assert not _mss_holds(A_cl, [])


def test_mismatched_direction_shapes_raise():
    one, two = np.eye(1), np.eye(2)
    cases = [(one, [(two, 0.1)]),      # broadcast before the check
             (two, [(np.eye(3), 0.1)]),
             (two, [(np.ones((2, 1)), 0.1)]),
             (two, [(np.eye(3), 0.0)]),  # a zero variance is no excuse
             (np.ones((2, 3)), [])]
    for A_cl, dirs in cases:
        for f in (moment_operator, _svec_lift, _mss_holds,
                  is_mean_square_stable):
            with pytest.raises(DimensionError):
                f(A_cl, dirs)
        with pytest.raises(DimensionError):
            solve_gle(A_cl, dirs, np.eye(A_cl.shape[0]))


def test_gle_moment_radius_computed_when_first_read(monkeypatch):
    calls = []
    radius = stability.spectral_radius
    monkeypatch.setattr(stability, "spectral_radius",
                        lambda M: calls.append(1) or radius(M))
    rng = np.random.default_rng(63)
    A_cl, dirs = random_mss_instance(rng, 3, 2, 0.7)
    calls.clear()
    sol = solve_gle(A_cl, dirs, np.eye(3))
    assert sol.mss and not calls
    assert sol.moment_radius == pytest.approx(0.7, rel=1e-10)
    assert sol.moment_radius == pytest.approx(0.7, rel=1e-10)
    assert len(calls) == 1

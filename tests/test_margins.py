import inspect
import math
from functools import partial

import numpy as np
import numpy.linalg as la
import pytest

import multinoise.margins as margins_mod
from multinoise import (
    BisectOptions,
    DimensionError,
    MarginMethod,
    NotMeanSquareStableError,
    UncertaintyStructure,
    aux_system_margins,
    closed_loop_substitution,
    compute_margins,
    conservative_margin_linearized,
    conservative_margin_simple,
    conservative_margins,
    single_direction_margin,
    is_psd,
    nlmi_feasible,
    scalar_exact_margins,
    scalar_margin,
    shared_lyapunov_margins,
    solve_gle,
    spectral_radius,
)
from multinoise.margins import (
    BRACKET_CAP,
    bisect_max_feasible,
    _single_dir_condition,
    _sqrt_shift_gap,
)
from multinoise.matops import pos_part
from multinoise.stability import _mss_holds

from conftest import (
    bisect_min_feasible,
    direct_margin_matrix,
    nlmi_bracket,
    perturbed_matrix,
    random_mss_instance,
)

ONE = np.array([[1.0]])


def shared_scalar_closed_form(a, bidirectional):
    """Scalar closed form of the shared-quadratic-form margin, derived by
    eliminating P from the 1x1 inequality; independent of the variance."""
    if bidirectional or a >= 0:
        return (-abs(a) + math.sqrt(2.0 - a * a)) / 2.0
    return math.sqrt((1.0 - a * a) / 2.0)


def aux_scalar_closed_form(a):
    """Positive root of (1 + eta) * (a^2 + eta) = 1."""
    a2 = a * a
    return (-(1.0 + a2) + math.sqrt(a2 * a2 - 2.0 * a2 + 5.0)) / 2.0


def single_structure():
    return UncertaintyStructure(theta=[1.0])


# ---------------------------------------------------------------- scalar_margin

def test_scalar_margin_examples():
    assert scalar_margin(0.0, 0.5) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert scalar_margin(0.5, 0.5) == pytest.approx(
        math.sqrt(0.75) - 0.5, abs=1e-12
    )
    assert scalar_margin(0.7, 0.0) == 0.0


def test_scalar_margin_grid_soundness():
    m = scalar_margin(0.5, 0.5)
    for y in np.linspace(-m, m, 1000):
        assert abs(0.5 + y) < 1.0


def test_scalar_margin_requires_mss():
    with pytest.raises(NotMeanSquareStableError):
        scalar_margin(0.9, 0.2)


# ---------------------------------------------------------------- nlmi_feasible

def test_nlmi_zero_margins_always_feasible():
    rng = np.random.default_rng(20)
    A_cl, dirs = random_mss_instance(rng, 3, 2, 0.8)
    P = solve_gle(A_cl, dirs, 2.0 * np.eye(3)).P
    assert nlmi_feasible(A_cl, dirs, 2.0 * np.eye(3), P, [0.0, 0.0])


def test_nlmi_huge_margins_infeasible():
    rng = np.random.default_rng(21)
    A_cl, dirs = random_mss_instance(rng, 3, 2, 0.8)
    P = solve_gle(A_cl, dirs, 2.0 * np.eye(3)).P
    assert not nlmi_feasible(A_cl, dirs, 2.0 * np.eye(3), P, [1e6, 1e6])


def test_nlmi_pendulum_boundary(pendulum, pendulum_alg1):
    K = pendulum_alg1.K
    noise = pendulum.noise.with_variances([pendulum_alg1.z_star], [])
    A_cl, dirs = closed_loop_substitution(pendulum.system, noise, K)
    q_term = pendulum.costs.Q + K.T @ pendulum.costs.R @ K
    P = solve_gle(A_cl, dirs, q_term).P
    eta_ref = 6.997
    assert nlmi_feasible(A_cl, dirs, q_term, P, [eta_ref * (1 - 1e-3)])
    assert not nlmi_feasible(A_cl, dirs, q_term, P, [eta_ref * 1.05])


def test_nlmi_margin_length_mismatch():
    rng = np.random.default_rng(22)
    A_cl, dirs = random_mss_instance(rng, 2, 1, 0.5)
    P = solve_gle(A_cl, dirs, np.eye(2)).P
    with pytest.raises(DimensionError):
        nlmi_feasible(A_cl, dirs, np.eye(2), P, [0.1, 0.2])


# ---------------------------------------------------- shared_lyapunov_margins

@pytest.mark.parametrize("a", [0.0, 0.3, -0.5, 0.7, -0.9])
@pytest.mark.parametrize("alpha", [0.01, 0.2])
@pytest.mark.parametrize("bidirectional", [False, True])
def test_shared_margins_scalar_closed_form(a, alpha, bidirectional):
    if a * a + alpha >= 1.0:
        pytest.skip("not mean-square stable")
    cert = shared_lyapunov_margins(
        a * ONE, [(ONE, alpha)], ONE, single_structure(), bidirectional
    )
    expected = shared_scalar_closed_form(a, bidirectional)
    assert cert.y_star == pytest.approx(expected, abs=1e-6)


def test_shared_margins_zero_cross_closed_form():
    # A_cl = 0 with the identity direction: the inequality collapses to
    # 1 + alpha*P >= 2 eta^2 P with P = 1/(1-alpha), so eta* = 1/sqrt(2)
    for alpha in (0.1, 0.6):
        cert = shared_lyapunov_margins(
            np.zeros((1, 1)), [(ONE, alpha)], ONE, single_structure(), False
        )
        assert cert.y_star == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)


def test_shared_margins_collapse_near_instability():
    cert = shared_lyapunov_margins(
        0.9995 * ONE, [(ONE, 1e-12)], ONE, single_structure(), False
    )
    assert cert.y_star <= 1e-3


def test_shared_margins_pendulum_pipeline(pendulum, pendulum_alg1):
    K = pendulum_alg1.K
    noise = pendulum.noise.with_variances([pendulum_alg1.z_star], [])
    A_cl, dirs = closed_loop_substitution(pendulum.system, noise, K)
    q_term = pendulum.costs.Q + K.T @ pendulum.costs.R @ K
    cert = shared_lyapunov_margins(A_cl, dirs, q_term, pendulum.structure)
    assert cert.box.eta[0] == pytest.approx(6.997, rel=0.05)


def test_shared_margins_preconditions():
    with pytest.raises(NotMeanSquareStableError):
        shared_lyapunov_margins(
            1.2 * ONE, [(ONE, 0.1)], ONE, single_structure()
        )
    rng = np.random.default_rng(23)
    A_cl, dirs = random_mss_instance(rng, 2, 1, 0.5)
    with pytest.raises(ValueError):
        shared_lyapunov_margins(
            A_cl, dirs, 0.5 * np.eye(2), single_structure()
        )


def test_shared_margins_bracket_is_monotone_post_hoc():
    rng = np.random.default_rng(24)
    for _ in range(5):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 3))
        A_cl, dirs = random_mss_instance(rng, n, p, rng.uniform(0.3, 0.9))
        w = rng.uniform(0.2, 1.0, size=p)
        structure = UncertaintyStructure(theta=w)
        cert = shared_lyapunov_margins(A_cl, dirs, np.eye(n), structure)
        for y in np.linspace(0.0, cert.y_star, 10):
            assert nlmi_feasible(
                A_cl, dirs, cert.q_matrix, cert.P,
                y * structure.weights, False,
            )


# ---------------------------------------------------- single_direction_margin

def test_single_direction_zero_cross_gives_sqrt_alpha():
    # A_cl = 0 zeroes the cross term, so the condition holds at zeta = 0
    eta, zeta = single_direction_margin(np.zeros((1, 1)), ONE, 0.36, ONE)
    assert zeta == 0.0
    assert eta == pytest.approx(0.6, abs=1e-12)


def test_single_direction_never_exceeds_sqrt_alpha():
    rng = np.random.default_rng(25)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        A_cl, dirs = random_mss_instance(rng, n, 1, rng.uniform(0.3, 0.95))
        (A1, a1), = dirs
        eta, zeta = single_direction_margin(A_cl, A1, a1, np.eye(n))
        assert eta <= math.sqrt(a1) + 1e-12
        assert zeta >= 0.0


def test_single_direction_certificate_inequality_and_soundness():
    # the produced (eta, zeta) satisfy the exact single-direction expansion
    # Q + alpha D'PD >= eta (cross)^+ + eta^2 D'PD, which in turn certifies
    # stability of the whole one-sided interval
    rng = np.random.default_rng(26)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        A_cl, dirs = random_mss_instance(rng, n, 1, rng.uniform(0.3, 0.95))
        (A1, a1), = dirs
        Q = np.eye(n)
        eta, zeta = single_direction_margin(A_cl, A1, a1, Q)
        P = solve_gle(A_cl, dirs, Q).P
        cross = pos_part(A_cl.T @ P @ A1 + A1.T @ P @ A_cl)
        DPD = A1.T @ P @ A1
        lhs = Q + a1 * DPD - eta * cross - eta * eta * DPD
        assert is_psd(lhs)
        for mu in np.linspace(0.0, eta * 0.999, 100):
            M = perturbed_matrix(A_cl, dirs, [mu])
            assert is_psd(P - M.T @ P @ M)
            assert spectral_radius(M) < 1.0


def test_single_direction_without_finite_zeta_returns_zero_margin(
        monkeypatch):
    # Q_eff + alpha D'PD is singular along e2, where the cross term is
    # positive, so no finite zeta passes the exact inequality; the probe
    # budget turns a search that never ends into a failure
    probes = []
    check = margins_mod._single_dir_condition

    def counted(zeta, *args):
        probes.append(zeta)
        assert len(probes) < 1000, "zeta search did not end"
        return check(zeta, *args)

    monkeypatch.setattr(margins_mod, "_single_dir_condition", counted)
    A_cl = 0.5 * np.array([[0.6, 0.8], [-0.8, 0.6]])
    eta, zeta = single_direction_margin(A_cl, np.diag([1.0, 0.0]), 0.2,
                                        np.diag([1.0, 0.0]))
    assert eta == 0.0 and zeta == math.inf


def test_single_direction_requires_mss():
    with pytest.raises(NotMeanSquareStableError):
        single_direction_margin(0.9 * ONE, ONE, 0.5, ONE)


# ------------------------------------------------------- conservative margins

def test_conservative_linearized_scalar_arithmetic():
    # a = 0.5, alpha = 0.25: P = 2 and the pencil value is
    # (2 a P - 1/sqrt(alpha)) / (1/alpha + 2 P) = 0
    a, alpha = 0.5, 0.25
    P = solve_gle(a * ONE, [(ONE, alpha)], ONE).P
    assert P[0, 0] == pytest.approx(2.0, abs=1e-12)
    zeta = conservative_margin_linearized(a * ONE, ONE, alpha, P, ONE)
    expected = max((2 * a * 2.0 - 1 / math.sqrt(alpha)) / (1 / alpha + 2 * 2.0), 0.0)
    assert zeta == pytest.approx(expected, abs=1e-10)
    cross = pos_part((a * ONE).T @ P @ ONE + ONE.T @ P @ (a * ONE))
    assert _single_dir_condition(zeta, alpha, ONE, ONE.T @ P @ ONE, cross)


def test_conservative_simple_scalar_arithmetic():
    # lambda = 2 a P = 2, so zeta = max(0.5 (alpha*2 - 1/2), 0) = 0
    a, alpha = 0.5, 0.25
    P = solve_gle(a * ONE, [(ONE, alpha)], ONE).P
    zeta = conservative_margin_simple(a * ONE, ONE, P, ONE, alpha)
    assert zeta == 0.0


def test_conservative_zero_cross_maximal_margin():
    # no cross coupling: both conservative routes return zeta = 0, i.e. the
    # per-direction margin is the full sqrt(alpha)
    P = solve_gle(np.zeros((1, 1)), [(ONE, 0.49)], ONE).P
    assert conservative_margin_linearized(np.zeros((1, 1)), ONE, 0.49, P, ONE) == 0.0
    assert conservative_margin_simple(np.zeros((1, 1)), ONE, P, ONE, 0.49) == 0.0


def test_conservative_zetas_satisfy_single_direction_condition():
    # the actual guarantee of both generalized-eigenvalue routes
    rng = np.random.default_rng(27)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        A_cl, dirs = random_mss_instance(rng, n, 1, rng.uniform(0.3, 0.95))
        (A1, a1), = dirs
        Q = np.eye(n)
        P = solve_gle(A_cl, dirs, Q).P
        DPD = A1.T @ P @ A1
        cross = pos_part(A_cl.T @ P @ A1 + A1.T @ P @ A_cl)
        z_lin = conservative_margin_linearized(A_cl, A1, a1, P, Q)
        z_simp = conservative_margin_simple(A_cl, A1, P, Q, a1)
        assert _single_dir_condition(z_lin, a1, Q, DPD, cross)
        assert _single_dir_condition(z_simp, a1, Q, DPD, cross)


def test_conservative_pendulum_ordering(pendulum, pendulum_alg1):
    # on the benchmark loop the crude route is far more conservative than
    # the linearized one, which in turn stays above the minimal scalar
    K = pendulum_alg1.K
    noise = pendulum.noise.with_variances([pendulum_alg1.z_star], [])
    A_cl, dirs = closed_loop_substitution(pendulum.system, noise, K)
    (A1, a1), = dirs
    q_term = pendulum.costs.Q + K.T @ pendulum.costs.R @ K
    P = solve_gle(A_cl, dirs, q_term).P
    eta_sd, zeta_sd = single_direction_margin(A_cl, A1, a1, q_term)
    z_lin = conservative_margin_linearized(A_cl, A1, a1, P, q_term)
    z_simp = conservative_margin_simple(A_cl, A1, P, q_term, a1)
    assert z_lin >= zeta_sd - 1e-9
    assert z_simp >= z_lin
    eta_lin = math.sqrt(z_lin ** 2 + a1) - z_lin
    eta_simp = math.sqrt(z_simp ** 2 + a1) - z_simp
    assert eta_simp <= eta_lin <= eta_sd <= math.sqrt(a1)


def test_conservative_certificate_single_direction_equals_envelope():
    rng = np.random.default_rng(28)
    A_cl, dirs = random_mss_instance(rng, 3, 1, 0.7)
    (A1, a1), = dirs
    cert = conservative_margins(A_cl, dirs, None,
                                MarginMethod.CONS_LINEARIZED)
    zeta = cert.zeta[0]
    assert cert.box.eta[0] == pytest.approx(
        math.sqrt(zeta ** 2 + a1) - zeta, abs=1e-12
    )
    assert not cert.box.bidirectional


def test_conservative_certificate_multi_direction_caps_at_envelope():
    rng = np.random.default_rng(29)
    for _ in range(5):
        A_cl, dirs = random_mss_instance(rng, 3, 3, rng.uniform(0.4, 0.9))
        cert = conservative_margins(A_cl, dirs, None,
                                    MarginMethod.CONS_SIMPLE)
        for k, (_, a) in enumerate(dirs):
            zeta = cert.zeta[k]
            envelope = math.sqrt(zeta ** 2 + a) - zeta
            assert cert.box.eta[k] <= envelope + 1e-12
        if cert.y_star > 0:
            # margins below the envelope must still pass the joint check
            assert nlmi_feasible(A_cl, dirs, cert.q_matrix, cert.P,
                                 cert.box.bounds * (1 - 1e-9), False)


# ------------------------------------------------------------------ aux route

@pytest.mark.parametrize("a", [0.0, 0.3, -0.5, 0.7, -0.9])
def test_aux_margins_scalar_quadratic_oracle(a):
    cert = aux_system_margins(a * ONE, [(ONE, 0.0)], single_structure())
    closed = aux_scalar_closed_form(a)
    assert closed * (1 - 1e-8) <= cert.y_star <= closed
    assert cert.box.bidirectional


def test_aux_margins_never_exceed_variance_bound():
    # the implied variance alpha = eta (1 + eta) inverts to the bound
    # eta <= (sqrt(1 + 4 alpha) - 1) / 2, met with equality by construction
    rng = np.random.default_rng(30)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        A_cl, dirs = random_mss_instance(rng, n, 1, rng.uniform(0.3, 0.9))
        cert = aux_system_margins(A_cl, dirs, single_structure())
        eta = cert.box.eta[0]
        alpha_implied = eta * (1.0 + eta)
        bound = 0.5 * (math.sqrt(1.0 + 4.0 * alpha_implied) - 1.0)
        assert eta <= bound + 1e-9


def test_aux_margins_certify_all_sign_corners():
    rng = np.random.default_rng(31)
    for _ in range(8):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(1, 4))
        A_cl, dirs = random_mss_instance(rng, n, p, rng.uniform(0.3, 0.9))
        w = rng.uniform(0.2, 1.0, size=p)
        cert = aux_system_margins(A_cl, dirs, UncertaintyStructure(theta=w))
        assert cert.P is not None
        bounds = cert.box.bounds
        for corner in range(2 ** p):
            signs = [1.0 if corner >> i & 1 else -1.0 for i in range(p)]
            M = perturbed_matrix(A_cl, dirs, np.asarray(signs) * bounds)
            assert is_psd(cert.P - M.T @ cert.P @ M)


def test_aux_margins_unstable_plant_raises():
    # an unstable nominal loop certifies no box, as for the other methods
    with pytest.raises(NotMeanSquareStableError, match="spectral radius 1.5"):
        aux_system_margins(1.5 * ONE, [(ONE, 0.2)], single_structure())


def test_aux_margins_collapse_near_instability():
    cert = aux_system_margins(0.9995 * ONE, [(ONE, 1e-12)], single_structure())
    assert cert.y_star <= 1e-3


# ------------------------------------------------------------- scalar method

def test_scalar_exact_margins_soundness_and_value():
    cert = scalar_exact_margins(
        0.5 * ONE, [(2.0 * ONE, 0.0625)], single_structure()
    )
    # effective variance alpha c^2 = 0.25; budget (sqrt(0.5)-0.5)/|c|
    expected = (math.sqrt(0.25 + 0.25) - 0.5) / 2.0
    assert cert.y_star == pytest.approx(expected, abs=1e-12)
    for mu in np.linspace(-cert.box.eta[0], cert.box.eta[0], 200) * 0.999:
        assert abs(0.5 + 2.0 * mu) < 1.0


def test_scalar_exact_margins_zero_direction_cap():
    cert = scalar_exact_margins(
        0.5 * ONE, [(np.zeros((1, 1)), 0.1)], single_structure()
    )
    assert cert.cap_hit


def test_scalar_exact_margins_requires_1x1():
    with pytest.raises(DimensionError):
        scalar_exact_margins(
            np.eye(2) * 0.5, [(np.eye(2), 0.1)], single_structure()
        )


# ------------------------------------------------------- envelope (marginal)

def test_proportional_envelope_ordering():
    # with per-direction minimal auxiliary scalars, proportional margins
    # from the joint inequality stay strictly inside the per-direction
    # envelopes, which stay strictly below sqrt(alpha)
    rng = np.random.default_rng(32)
    done = 0
    while done < 6:
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, 3))
        A_cl, dirs = random_mss_instance(rng, n, p, rng.uniform(0.5, 0.9))
        Q = np.eye(n)
        P = solve_gle(A_cl, dirs, len(dirs) * Q).P
        zetas, envelopes = [], []
        for D, a in dirs:
            DPD = D.T @ P @ D
            cross = pos_part(A_cl.T @ P @ D + D.T @ P @ A_cl)
            z = bisect_min_feasible(
                lambda zz: _single_dir_condition(zz, a, Q, DPD, cross)
            )
            zetas.append(z)
            envelopes.append(math.sqrt(z * z + a) - z)
        if min(zetas) < 1e-3:  # need genuinely binding cross terms
            continue
        done += 1
        structure = UncertaintyStructure(theta=np.asarray(envelopes))
        cert = shared_lyapunov_margins(A_cl, dirs, Q, structure, False)
        for eta_k, env_k, (_, a_k) in zip(cert.box.eta, envelopes, dirs):
            assert eta_k < env_k < math.sqrt(a_k)


# ------------------------------------------------------------ soundness sweep

def _sample_box(rng, box, count=1000):
    bounds = box.bounds
    if box.bidirectional:
        return rng.uniform(-1.0, 1.0, size=(count, bounds.size)) * bounds * 0.999
    return rng.uniform(0.0, 1.0, size=(count, bounds.size)) * bounds * 0.999


def _assert_box_sound(rng, A_cl, dirs, box):
    mus = _sample_box(rng, box)
    D = np.stack([np.asarray(M, dtype=float) for M, _ in dirs])
    mats = A_cl[None, :, :] + np.tensordot(mus, D, axes=(1, 0))
    rho = np.abs(la.eigvals(mats)).max(axis=1)
    assert float(rho.max()) < 1.0


def test_certificates_are_sound_under_random_sampling():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(1, 4))
        A_cl, dirs = random_mss_instance(rng, n, p, rng.uniform(0.3, 0.95))
        structure = UncertaintyStructure(
            theta=rng.uniform(0.2, 1.0, size=p)
        )
        certs = [
            shared_lyapunov_margins(A_cl, dirs, None, structure, False),
            shared_lyapunov_margins(A_cl, dirs, None, structure, True),
            aux_system_margins(A_cl, dirs, structure),
            conservative_margins(A_cl, dirs, None,
                                 MarginMethod.CONS_LINEARIZED),
            conservative_margins(A_cl, dirs, None, MarginMethod.CONS_SIMPLE),
        ]
        if n == 1:
            certs.append(scalar_exact_margins(A_cl, dirs, structure))
        for cert in certs:
            if cert.cap_hit:
                continue
            _assert_box_sound(rng, A_cl, dirs, cert.box)


def test_bidirectional_never_exceeds_unidirectional():
    # the two-sided inequality dominates the one-sided one termwise
    rng = np.random.default_rng(35)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 3))
        A_cl, dirs = random_mss_instance(rng, n, p, rng.uniform(0.3, 0.9))
        structure = UncertaintyStructure(theta=rng.uniform(0.2, 1.0, size=p))
        uni = shared_lyapunov_margins(A_cl, dirs, None, structure, False)
        bi = shared_lyapunov_margins(A_cl, dirs, None, structure, True)
        assert bi.y_star <= uni.y_star * (1 + 2e-6)


def test_bisect_max_feasible_ends_at_float_resolution():
    # with rel_tol 0 the stopping width is the absolute floor 1e-12, below
    # the 1.8e-12 gap between neighbouring floats near 1e4, so the bracket
    # closes only when no float is left between its ends; the probe budget
    # turns a loop that never ends into a failure
    frontier = 10_000.3
    assert np.spacing(frontier) > 1e-12
    probes = []

    def feasible(ys):
        probes.extend(ys)
        assert len(probes) < 10_000, "bisection did not end"
        return [lambda y=y: y <= frontier for y in ys]

    y, cap_hit, witness = bisect_max_feasible(feasible, BisectOptions(0.0))
    assert not cap_hit and witness is True
    assert y == frontier or np.nextafter(y, math.inf) == frontier


def test_bisect_max_feasible_default_cap_probes_powers_of_two():
    # the cap is a power of two, reached by plain doubling from 1, four
    # points per call
    calls = []

    def feasible(ys):
        calls.append(ys)
        return [lambda: True] * len(ys)

    assert bisect_max_feasible(feasible) == (2.0 ** 60, True, True)
    points = [0.0] + [2.0 ** k for k in range(61)]
    assert calls == [tuple(points[i:i + 4]) for i in range(0, 62, 4)]


def test_bisect_max_feasible_asks_for_three_levels_at_once():
    # from the bracket [1, 2] the next three halvings can probe these 7
    # midpoints; the walk reads 1.5, 1.75 and 1.625 of them
    calls = []

    def feasible(ys):
        calls.append(ys)
        return [lambda y=y: y <= 1.7 for y in ys]

    bisect_max_feasible(feasible)
    assert calls[0] == (0.0, 1.0, 2.0, 4.0)
    assert sorted(calls[1]) == [1.125, 1.25, 1.375, 1.5, 1.625, 1.75, 1.875]
    assert min(calls[2]) > 1.625 and max(calls[2]) < 1.75


def test_bisect_max_feasible_raises_a_failed_probe_it_reads():
    # the verdict at y = 1.5 is the bracket's first midpoint, so the walk
    # calls it, and the failure it raises passes through
    failure = RuntimeError("probe failed")

    def verdict(y):
        if y == 1.5:
            raise failure
        return y <= 1.7

    def feasible(ys):
        return [partial(verdict, y) for y in ys]

    with pytest.raises(RuntimeError) as info:
        bisect_max_feasible(feasible)
    assert info.value is failure


@pytest.mark.parametrize("frontier, expect_cap", [
    (-1.0, False),       # infeasible at 0: no witness
    (math.inf, True),    # feasible at the cap
    (98.14, False),      # a frontier inside the bracket
    (0.0, False),        # feasible at 0 only
])
def test_bisect_max_feasible_returns_the_witness_of_its_y(frontier,
                                                          expect_cap):
    # every probe returns a distinct object, so the witness names the one
    # probe whose y is reported
    probes = {}

    def feasible(ys):
        for y in ys:
            probes[y] = object() if y <= frontier else None
        return [partial(probes.get, y) for y in ys]

    y, cap_hit, witness = bisect_max_feasible(feasible)
    assert cap_hit is expect_cap
    if frontier < 0:
        assert (y, witness) == (0.0, None)
        return
    assert witness is probes[y] and witness is not None
    assert y <= frontier
    if expect_cap:
        assert y == BRACKET_CAP
    elif frontier > 0:
        assert y == pytest.approx(frontier, rel=2e-6)


# ------------------------------------------- inequality split per certificate
#
# The margin scalings split the y-independent parts of the inequality once
# per certificate and take their edge from the root of its quadratic pencil;
# these tests pin that the probes still decide exactly like nlmi_feasible,
# that the confirmed root lies in the bracket of a fine bisection on
# nlmi_feasible, and that the split count does not grow with the probes.

def _split_instances(seed, p, count=4):
    """Seeded instances with p directions and their weights; from p = 2 on,
    every other instance gives its last direction zero weight."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, 5))
        A_cl, dirs = random_mss_instance(rng, n, p, rng.uniform(0.3, 0.9))
        theta = rng.uniform(0.2, 1.0, size=p)
        if p >= 2 and k % 2:
            structure = UncertaintyStructure(theta=theta[:-1], phi=[0.0])
        else:
            structure = UncertaintyStructure(theta=theta)
        yield A_cl, dirs, structure


def _record_psd_checks(monkeypatch):
    """Every matrix the margin module hands to is_psd, in call order."""
    seen = []
    check = margins_mod.is_psd
    monkeypatch.setattr(margins_mod, "is_psd",
                        lambda S, tol=None: seen.append(S.copy())
                        or check(S, tol))
    return seen


def _assert_same_bits(mats, ref_mats):
    assert len(mats) == len(ref_mats)
    for M, R in zip(mats, ref_mats):
        assert M.tobytes() == R.tobytes()


def _assert_confirmed_in_bracket(seen, A_cl, dirs, cert, w, bidirectional,
                                 cap=math.inf):
    # the last check the library ran confirmed the returned box, on the
    # same matrix as nlmi_feasible at that box, and the box lies in the
    # final bracket of a fine bisection (capped at cap), less the root's
    # back-off
    confirmed = seen[-1]
    seen.clear()
    assert nlmi_feasible(A_cl, dirs, cert.q_matrix, cert.P, cert.box.bounds,
                         bidirectional)
    _assert_same_bits([confirmed], seen)
    lo, hi, _ = nlmi_bracket(A_cl, dirs, cert.q_matrix, cert.P, w,
                             bidirectional)
    assert min(lo, cap) * (1 - 1e-8) <= cert.y_star <= min(hi, cap)


@pytest.mark.parametrize("bidirectional", [False, True])
def test_nlmi_probe_matrix_matches_direct_form_bitwise(monkeypatch,
                                                       bidirectional):
    # the stored parts are weighted in the order of a direct evaluation,
    # so the matrix that decides a probe is the same to the bit
    seen = _record_psd_checks(monkeypatch)
    rng = np.random.default_rng(45)
    for p in (1, 2, 3):
        A_cl, dirs = random_mss_instance(rng, 3, p, 0.6)
        q_term = p * np.eye(3)
        P = solve_gle(A_cl, dirs, q_term).P
        for _ in range(4):
            eta = rng.uniform(0.0, 0.5, size=p)
            if p >= 2:
                eta[rng.integers(p)] = 0.0
            seen.clear()
            nlmi_feasible(A_cl, dirs, q_term, P, eta, bidirectional)
            _assert_same_bits(seen, [direct_margin_matrix(
                A_cl, dirs, q_term, P, eta, bidirectional)])


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_shared_margins_match_nlmi_bisection_bitwise(monkeypatch, p,
                                                     bidirectional):
    seen = _record_psd_checks(monkeypatch)
    for A_cl, dirs, structure in _split_instances(40 + p, p):
        cert = shared_lyapunov_margins(A_cl, dirs, None, structure,
                                       bidirectional)
        assert not cert.cap_hit
        _assert_confirmed_in_bracket(seen, A_cl, dirs, cert,
                                     structure.weights, bidirectional)


@pytest.mark.parametrize("kind", [MarginMethod.CONS_LINEARIZED,
                                  MarginMethod.CONS_SIMPLE])
@pytest.mark.parametrize("p", [2, 3])
def test_conservative_margins_match_nlmi_bisection_bitwise(monkeypatch, p,
                                                           kind):
    seen = _record_psd_checks(monkeypatch)
    rng = np.random.default_rng(50 + p)
    for k in range(4):
        n = int(rng.integers(1, 5))
        A_cl, dirs = random_mss_instance(rng, n, p, rng.uniform(0.3, 0.9))
        if k % 2:  # a zero variance gives its direction zero weight
            dirs[-1] = (dirs[-1][0], 0.0)
        cert = conservative_margins(A_cl, dirs, None, kind)
        caps = np.array([_sqrt_shift_gap(z, a) if a > 0.0 else 0.0
                         for z, (_, a) in zip(cert.zeta, dirs)])
        total = float(caps.sum())
        assert total > 0.0
        _assert_confirmed_in_bracket(seen, A_cl, dirs, cert, caps / total,
                                     False, cap=total)


def _aux_mss_at(A_cl, dirs, bounds):
    """The stability check of the auxiliary system at a stored box."""
    s = float(bounds.sum())
    aux_dirs = [(D, float(b * (1.0 + s))) for (D, _), b in zip(dirs, bounds)]
    return _mss_holds(math.sqrt(1.0 + s) * A_cl, aux_dirs)


def test_root_overshoot_is_backed_off_until_confirmed(monkeypatch):
    # a root 10% past the edge fails the first checks; the certificates
    # returned after backing off still pass their defining checks
    root = margins_mod._pencil_root
    monkeypatch.setattr(margins_mod, "_pencil_root",
                        lambda *pencil: root(*pencil) / 1.1)
    mss_checks = []
    monkeypatch.setattr(margins_mod, "_mss_holds",
                        lambda *args: mss_checks.append(1)
                        or _mss_holds(*args))
    seen = _record_psd_checks(monkeypatch)
    rng = np.random.default_rng(37)
    cases = [random_mss_instance(rng, 3, p, 0.7) for p in (1, 2)]
    for A_cl, dirs in cases:
        structure = UncertaintyStructure(theta=[1.0] * len(dirs))
        for bidirectional in (False, True):
            seen.clear()
            cert = shared_lyapunov_margins(A_cl, dirs, None, structure,
                                           bidirectional)
            assert len(seen) > 2  # Q_eff >= I, then more than one probe
            assert cert.y_star > 0.0 and not cert.cap_hit
            assert nlmi_feasible(A_cl, dirs, cert.q_matrix, cert.P,
                                 cert.box.bounds, bidirectional)
    # on this loop zeta binds with room: 1.1 times the margin stays below
    # sqrt(alpha), so the overshoot is not cut off at zeta = 0
    A_cl, ((A1, a1),) = cases[0]
    seen.clear()
    eta, zeta = single_direction_margin(A_cl, A1, a1)
    assert len(seen) > 1 and 1.1 * eta < math.sqrt(a1)
    P = solve_gle(A_cl, [(A1, a1)], np.eye(3)).P
    assert _single_dir_condition(zeta, a1, np.eye(3), A1.T @ P @ A1,
                                 pos_part(A_cl.T @ P @ A1 + A1.T @ P @ A_cl))
    assert eta == _sqrt_shift_gap(zeta, a1)
    for A_cl, dirs in cases:
        structure = UncertaintyStructure(theta=[1.0] * len(dirs))
        mss_checks.clear()
        cert = aux_system_margins(A_cl, dirs, structure)
        assert len(mss_checks) > 2  # nominal, then more than one probe
        assert cert.y_star > 0.0 and not cert.cap_hit
        assert _aux_mss_at(A_cl, dirs, cert.box.bounds)


def _count_splits(monkeypatch):
    calls = []
    for name in ("pos_part", "abs_part"):
        part = getattr(margins_mod, name)
        monkeypatch.setattr(margins_mod, name,
                            lambda S, part=part: calls.append(1) or part(S))
    return calls


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_shared_margins_split_once_per_certificate(monkeypatch, p,
                                                   bidirectional):
    calls = _count_splits(monkeypatch)
    for A_cl, dirs, structure in _split_instances(60 + p, p, count=2):
        active = int(np.count_nonzero(structure.weights))
        calls.clear()
        shared_lyapunov_margins(A_cl, dirs, None, structure, bidirectional)
        assert len(calls) == active + active * active <= p + p * p


@pytest.mark.parametrize("p", [1, 2, 3])
def test_aux_margins_are_tight(p):
    # the stored box passes the auxiliary system's stability check and a
    # box 1e-6 larger fails it: the edge is the pencil root, confirmed
    for A_cl, dirs, structure in _split_instances(70 + p, p):
        cert = aux_system_margins(A_cl, dirs, structure)
        assert cert.y_star > 0.0 and not cert.cap_hit
        assert _aux_mss_at(A_cl, dirs, cert.box.bounds)
        assert not _aux_mss_at(A_cl, dirs, cert.box.bounds * (1 + 1e-6))


# ------------------------------------------------------------------ dispatch

@pytest.mark.parametrize("fn", [shared_lyapunov_margins, conservative_margins,
                                scalar_exact_margins, aux_system_margins,
                                compute_margins])
def test_margin_methods_take_no_solver_options(fn):
    # every edge is a pencil root capped at one constant: no margin method
    # bisects, and the aux certificate is always for the constant term I
    params = inspect.signature(fn).parameters
    assert "bisect_opts" not in params and "q_cert" not in params


def test_compute_margins_dispatch():
    rng = np.random.default_rng(34)
    A_cl, dirs = random_mss_instance(rng, 2, 1, 0.6)
    structure = single_structure()
    for method in MarginMethod:
        if method is MarginMethod.SCALAR_EXACT:
            continue
        cert = compute_margins(method, A_cl, dirs, structure)
        assert cert.method is method
    cert = compute_margins("shared-uni", A_cl, dirs, structure)
    assert cert.method is MarginMethod.SHARED_UNI
    with pytest.raises(DimensionError):
        compute_margins("scalar", A_cl, dirs, structure)

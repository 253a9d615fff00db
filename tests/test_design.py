import dataclasses
import math

import numpy as np
import numpy.linalg as la
import pytest

from multinoise import (
    CostPair,
    DesignOptions,
    MarginMethod,
    NoiseModel,
    NominalSystem,
    UncertaintyStructure,
    UnstabilizableError,
    certainty_equivalent,
    closed_loop_substitution,
    design_algorithm_1,
    design_algorithm_2,
    grid_verify,
    nlmi_feasible,
)
from multinoise import gare
from multinoise.gare import feasible_gare_solution
from multinoise.stability import _mss_holds

from conftest import direct_margin_matrix



def test_certainty_equivalent_pendulum(pendulum, pendulum_ce):
    np.testing.assert_allclose(pendulum_ce.K, [[-9.14, -4.15]], rtol=0.01)
    assert pendulum_ce.diagnostics.rho_closed_loop == pytest.approx(0.833, abs=0.01)
    assert pendulum_ce.diagnostics.rho_true_closed_loop == pytest.approx(1.019, abs=0.01)
    assert pendulum_ce.certificate is None


def test_certainty_equivalent_zero_dynamics():
    sys = NominalSystem(A=np.zeros((2, 2)), B=np.eye(2))
    costs = CostPair(Q=np.eye(2), R=np.eye(2))
    res = certainty_equivalent(sys, costs)
    np.testing.assert_allclose(res.K, np.zeros((2, 2)), atol=1e-12)
    assert res.diagnostics.rho_closed_loop == pytest.approx(0.0, abs=1e-12)


def test_certainty_equivalent_unstabilizable():
    # unstable mode with no input authority
    sys = NominalSystem(A=np.diag([2.0, 0.5]), B=np.array([[0.0], [1.0]]))
    costs = CostPair(Q=np.eye(2), R=np.eye(1))
    with pytest.raises(UnstabilizableError):
        certainty_equivalent(sys, costs)


def test_algorithm_1_pendulum(pendulum, pendulum_alg1):
    r = pendulum_alg1
    np.testing.assert_allclose(r.K, [[-103.87, -19.85]], rtol=0.05)
    assert r.certificate.box.eta[0] == pytest.approx(6.997, rel=0.05)
    assert r.diagnostics.rho_closed_loop == pytest.approx(0.060, abs=0.02)
    assert r.diagnostics.rho_true_closed_loop == pytest.approx(0.222, abs=0.02)
    assert r.diagnostics.worst_box_rho == pytest.approx(0.841, abs=0.02)
    assert r.certificate.method is MarginMethod.SHARED_UNI
    assert not r.certificate.box.bidirectional
    assert not r.cap_hit


def test_algorithm_2_pendulum(pendulum, pendulum_alg2):
    r = pendulum_alg2
    np.testing.assert_allclose(r.K, [[-104.52, -19.94]], rtol=0.05)
    assert r.certificate.box.eta[0] == pytest.approx(3.970, rel=0.05)
    assert r.diagnostics.rho_closed_loop == pytest.approx(0.020, abs=0.02)
    assert r.diagnostics.rho_true_closed_loop == pytest.approx(0.225, abs=0.02)
    assert r.diagnostics.worst_box_rho == pytest.approx(0.632, abs=0.02)
    assert r.certificate.method is MarginMethod.AUX_SCALED
    assert r.certificate.box.bidirectional


def test_algorithm_1_zero_direction_cap_diagnostic(pendulum):
    # a direction with no effect admits unbounded variance and margins;
    # the doubling bracket hits its cap and says so
    structure = UncertaintyStructure(theta=[1.0])
    res = design_algorithm_1(
        pendulum.system, pendulum.costs, [np.zeros((2, 2))], [], structure,
        DesignOptions(gare=pendulum.gare_options),
    )
    assert res.cap_hit
    assert res.certificate.cap_hit


def test_algorithm_2_zero_margin_probe_equals_certainty_equivalent(pendulum):
    # the feasibility probe at zero margins is exactly the nominal design
    ce = certainty_equivalent(pendulum.system, pendulum.costs,
                              DesignOptions(gare=pendulum.gare_options))
    sol = feasible_gare_solution(
        pendulum.system,
        pendulum.noise.with_variances([0.0], []),
        pendulum.costs,
        pendulum.gare_options,
    )
    assert la.norm(sol.K - ce.K) <= 1e-6 * la.norm(ce.K)


def test_designs_are_deterministic(pendulum, pendulum_opts):
    a_mats = [D for D, _ in pendulum.noise.a_dirs]
    r1 = design_algorithm_1(pendulum.system, pendulum.costs, a_mats, [],
                            pendulum.structure, pendulum_opts)
    r2 = design_algorithm_1(pendulum.system, pendulum.costs, a_mats, [],
                            pendulum.structure, pendulum_opts)
    np.testing.assert_array_equal(r1.K, r2.K)
    assert r1.z_star == r2.z_star and r1.y_star == r2.y_star


def test_closed_loops_stable_on_grid(pendulum, pendulum_alg1, pendulum_alg2):
    for result, variances in (
        (pendulum_alg1, [pendulum_alg1.z_star]),
        (pendulum_alg2, [pendulum_alg2.y_star * (1 + pendulum_alg2.y_star)]),
    ):
        noise = pendulum.noise.with_variances(variances, [])
        A_cl, dirs = closed_loop_substitution(pendulum.system, noise, result.K)
        report = grid_verify(A_cl, dirs, result.certificate.box, 100)
        assert report.all_stable


def test_algorithm_2_certificate_covers_sign_corners(pendulum, pendulum_alg2):
    # the stored quadratic form certifies every sign corner of the box
    from multinoise import is_psd, perturbed_matrix

    cert = pendulum_alg2.certificate
    noise = pendulum.noise.with_variances([0.0], [])
    A_cl, dirs = closed_loop_substitution(pendulum.system, noise,
                                          pendulum_alg2.K)
    assert cert.P is not None
    for sign in (-1.0, 1.0):
        M = perturbed_matrix(A_cl, dirs, [sign * cert.box.eta[0]])
        assert is_psd(cert.P - M.T @ cert.P @ M)


def _input_noise_plant():
    sys = NominalSystem(A=np.array([[0.9, 0.3], [0.0, 0.8]]),
                        B=np.array([[0.0], [1.0]]))
    costs = CostPair(Q=np.eye(2), R=np.eye(1))
    a_mats = [np.array([[0.0, 1.0], [0.0, 0.0]])]
    b_mats = [np.array([[0.0], [1.0]])]
    structure = UncertaintyStructure(theta=[1.0], phi=[0.5])
    return sys, costs, a_mats, b_mats, structure


def test_design_with_input_uncertainty_stays_sound():
    sys, costs, a_mats, b_mats, structure = _input_noise_plant()
    for fn in (design_algorithm_1, design_algorithm_2):
        res = fn(sys, costs, a_mats, b_mats, structure)
        assert res.certificate.box.eta.size == 1
        assert res.certificate.box.psi.size == 1
        assert res.diagnostics.rho_closed_loop < 1.0
        noise = NoiseModel(
            a_dirs=[(a_mats[0], 0.0)], b_dirs=[(b_mats[0], 0.0)]
        )
        A_cl, dirs = closed_loop_substitution(sys, noise, res.K)
        report = grid_verify(A_cl, dirs, res.certificate.box, 100)
        assert report.all_stable


def test_design_rejects_nonpositive_phi():
    sys = NominalSystem(A=np.eye(2) * 0.5, B=np.eye(2))
    costs = CostPair(Q=np.eye(2), R=np.eye(2))
    structure = UncertaintyStructure(theta=[1.0], phi=[0.0])
    with pytest.raises(ValueError):
        design_algorithm_1(sys, costs, [np.eye(2)], [np.eye(2)], structure)


@pytest.mark.parametrize("design", [design_algorithm_1, design_algorithm_2])
def test_design_rejects_bad_grid_samples_before_any_probe(
        pendulum, monkeypatch, design):
    calls = []
    solve = gare.solve_gare
    monkeypatch.setattr(gare, "solve_gare",
                        lambda *args: calls.append(1) or solve(*args))
    a_mats = [D for D, _ in pendulum.noise.a_dirs]
    opts = DesignOptions(grid_samples_per_dir=1)
    with pytest.raises(ValueError, match="grid_samples_per_dir"):
        design(pendulum.system, pendulum.costs, a_mats, [],
               pendulum.structure, opts)
    assert not calls


def test_controllability_rank_invariant_under_scaling():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
        rank = np.linalg.matrix_rank(ctrb)
        for z in (0.5, 2.0, 10.0):
            Az, Bz = z * A, z * B
            ctrb_z = np.hstack(
                [np.linalg.matrix_power(Az, k) @ Bz for k in range(n)]
            )
            assert np.linalg.matrix_rank(ctrb_z) == rank


def test_algorithm_2_gain_growth_along_bisection(pendulum):
    # larger certified margins demand larger gains on the benchmark family
    norms = []
    for y in (1.0, 2.0, 3.0, 3.9):
        alpha = y * (1.0 + y)
        z = np.sqrt(1.0 + y)
        scaled = NominalSystem(A=z * pendulum.system.A, B=z * pendulum.system.B)
        sol = feasible_gare_solution(
            scaled, pendulum.noise.with_variances([alpha], []),
            pendulum.costs, pendulum.gare_options,
        )
        assert sol is not None
        norms.append(la.norm(sol.K))
    assert all(b >= a for a, b in zip(norms, norms[1:]))


def test_algorithm_1_frontier_below_a_bracket_cap_that_is_no_power_of_two(
        pendulum, pendulum_alg1):
    # the pendulum's variance frontier, 98.14, lies between 64 and a cap of
    # 100; the bracket is clamped at the cap and bisected, not cut at 64
    opts = DesignOptions(
        gare=pendulum.gare_options,
        bisect=dataclasses.replace(pendulum.bisect_options, bracket_cap=100.0),
    )
    a_mats = [D for D, _ in pendulum.noise.a_dirs]
    res = design_algorithm_1(pendulum.system, pendulum.costs, a_mats, [],
                             pendulum.structure, opts)
    assert not res.cap_hit
    assert res.z_star == pytest.approx(pendulum_alg1.z_star, rel=1e-5)
    assert 64.0 < res.z_star < 100.0


def _not_psd(S):
    """S has a negative diagonal entry, or a negative eigenvalue after the
    diagonal congruence that gives S a unit diagonal. The congruence keeps
    the inertia and makes the eigenvalues' rounding error relative to the
    scale of each entry, not to the norm of S."""
    d = np.diag(S)
    if np.any(d < 0.0):
        return True
    return la.eigvalsh(S / np.sqrt(np.outer(d, d)))[0] < 0.0


@pytest.fixture(scope="module")
def design_instances(pendulum, pendulum_alg1, pendulum_alg2):
    """The pendulum designs, and both designs of the input-noise plant with
    the pendulum's stopping rule, as (plant, algorithm 1, algorithm 2)."""
    sys, costs, a_mats, b_mats, structure = _input_noise_plant()
    opts = DesignOptions(gare=pendulum.gare_options,
                         bisect=pendulum.bisect_options)
    return [
        ((pendulum.system, [D for D, _ in pendulum.noise.a_dirs], [],
          pendulum.structure), pendulum_alg1, pendulum_alg2),
        ((sys, a_mats, b_mats, structure),
         design_algorithm_1(sys, costs, a_mats, b_mats, structure, opts),
         design_algorithm_2(sys, costs, a_mats, b_mats, structure, opts)),
    ]


def test_algorithm_1_certificate_reproves_from_its_own_data(design_instances):
    # the shared form P and constant term q_matrix prove the stored box on
    # the closed loop at the variance frontier z*, and the box is tight
    for (sys, a_mats, b_mats, st), res, _ in design_instances:
        cert, z = res.certificate, res.z_star
        noise = NoiseModel(
            a_dirs=[(D, z * t) for D, t in zip(a_mats, st.theta)],
            b_dirs=[(D, z * f) for D, f in zip(b_mats, st.phi)],
        )
        A_cl, dirs = closed_loop_substitution(sys, noise, res.K)
        assert nlmi_feasible(A_cl, dirs, cert.q_matrix, cert.P, cert.box.bounds)
        # nlmi_feasible's tolerance, 1e-9 of the norm, would let the larger
        # box pass on the input-noise plant, whose margin matrix has norm
        # 3.6e11; its first diagonal entry is already -1e-6 there
        bigger = cert.box.bounds * (1.0 + 1e-6)
        assert _not_psd(direct_margin_matrix(A_cl, dirs, cert.q_matrix,
                                             cert.P, bigger))


def test_algorithm_2_certificate_reproves_from_its_own_data(design_instances):
    # the stored P solves the GLE of the auxiliary closed loop at y* with
    # Q = I, and that auxiliary loop is mean-square stable
    for (sys, a_mats, b_mats, _), _, res in design_instances:
        cert = res.certificate
        eta = cert.box.bounds
        scale = 1.0 + float(eta.sum())
        nominal = NoiseModel(a_dirs=[(D, 0.0) for D in a_mats],
                             b_dirs=[(D, 0.0) for D in b_mats])
        A_cl, dirs = closed_loop_substitution(sys, nominal, res.K)
        A_aux = math.sqrt(scale) * A_cl
        aux_dirs = [(D, e * scale) for (D, _), e in zip(dirs, eta)]
        P = cert.P
        residual = P - A_aux.T @ P @ A_aux - np.eye(sys.n)
        for D, v in aux_dirs:
            residual -= v * (D.T @ P @ D)
        assert la.norm(residual) <= 1e-8 * la.norm(P)
        assert _mss_holds(A_aux, aux_dirs)
        assert res.z_star == pytest.approx(math.sqrt(scale), rel=1e-12)

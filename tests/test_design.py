import dataclasses
import math

import numpy as np
import numpy.linalg as la
import pytest

from multinoise import (
    BisectOptions,
    CostPair,
    DesignOptions,
    DimensionError,
    MarginMethod,
    NoiseModel,
    NominalSystem,
    NumericalError,
    TrueSystem,
    UncertaintyStructure,
    UnstabilizableError,
    certainty_equivalent,
    closed_loop_substitution,
    design_algorithm_1,
    design_algorithm_2,
    grid_verify,
    nlmi_feasible,
    solve_gle,
)
from multinoise import gare
from multinoise.design import _grid_samples
from multinoise.gare import feasible_gare_solution
from multinoise.margins import _aux_scaling, bisect_max_feasible
from multinoise.stability import _mss_holds

from conftest import (direct_margin_matrix, perturbed_matrix,
                      sequential_bisect)



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


def test_design_gains_come_from_the_probe_at_the_reported_value(
        pendulum, pendulum_alg1, pendulum_alg2):
    # the Riccati probe run again at z* (design 1) and at y* (design 2)
    # gives the returned gain bit for bit
    costs, opts = pendulum.costs, pendulum.gare_options
    noise = pendulum.noise.with_variances([pendulum_alg1.z_star], [])
    sol = feasible_gare_solution(pendulum.system, noise, costs, opts)
    np.testing.assert_array_equal(sol.K, pendulum_alg1.K)
    z, var = _aux_scaling(pendulum_alg2.y_star, pendulum.structure.weights)
    scaled = NominalSystem(A=z * pendulum.system.A, B=z * pendulum.system.B)
    sol = feasible_gare_solution(
        scaled, pendulum.noise.with_variances(var, []), costs, opts)
    np.testing.assert_array_equal(sol.K, pendulum_alg2.K)


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
    from multinoise import is_psd

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
    solve = gare._solve_stack
    monkeypatch.setattr(gare, "_solve_stack",
                        lambda *args: calls.append(1) or solve(*args))
    a_mats = [D for D, _ in pendulum.noise.a_dirs]
    with pytest.raises(ValueError, match="grid_samples_per_dir"):
        design(pendulum.system, pendulum.costs, a_mats, [],
               pendulum.structure, DesignOptions(grid_samples_per_dir=1))
    assert not calls


@pytest.mark.parametrize("field, value", [
    ("max_iter", 0), ("max_iter", -3), ("tol_rel", math.nan),
])
def test_design_rejects_bad_riccati_options(pendulum, field, value):
    # such options ended every probe at iteration_cap, so the stabilizable
    # pendulum read as unstabilizable even at zero noise
    a_mats = [D for D, _ in pendulum.noise.a_dirs]
    with pytest.raises(ValueError, match=f"GareOptions.{field}"):
        gare_opts = dataclasses.replace(pendulum.gare_options,
                                        **{field: value})
        design_algorithm_1(pendulum.system, pendulum.costs, a_mats, [],
                           pendulum.structure, DesignOptions(gare=gare_opts))


def test_design_rejects_nan_bisection_tolerance(pendulum):
    # a NaN rel_tol ended the z bisection at the bracket end 64, which
    # design 1 reported as z* = 64 with y* = 5.507 and no cap_hit, where
    # the pendulum's frontier is z* = 98.14 with y* = 6.997
    a_mats = [D for D, _ in pendulum.noise.a_dirs]
    with pytest.raises(ValueError, match=r"BisectOptions\.rel_tol"):
        opts = DesignOptions(gare=pendulum.gare_options,
                             bisect=BisectOptions(rel_tol=math.nan))
        design_algorithm_1(pendulum.system, pendulum.costs, a_mats, [],
                           pendulum.structure, opts)


def test_certainty_equivalent_checks_costs_against_the_plant(pendulum):
    with pytest.raises(DimensionError, match="Q must be 2x2"):
        certainty_equivalent(pendulum.system,
                             CostPair(Q=np.eye(3), R=np.eye(1)))
    with pytest.raises(DimensionError, match="R must be 1x1"):
        certainty_equivalent(pendulum.system,
                             CostPair(Q=np.eye(2), R=np.eye(2)))


@pytest.mark.parametrize("A_bar, B_bar, message", [
    (np.eye(3), np.ones((3, 1)), "A_bar must be 2x2"),
    (np.eye(2), np.ones((2, 2)), "B_bar must be 2x1"),
])
@pytest.mark.parametrize("design", [certainty_equivalent, design_algorithm_1,
                                    design_algorithm_2])
def test_designs_check_the_true_plant_before_any_probe(
        pendulum, monkeypatch, A_bar, B_bar, message, design):
    # TrueSystem checks only itself; a design checks it against the plant
    # before it solves anything, not when the diagnostics first use it
    calls = []
    solve = gare._solve_stack
    monkeypatch.setattr(gare, "_solve_stack",
                        lambda *args: calls.append(1) or solve(*args))
    true_system = TrueSystem(A_bar=A_bar, B_bar=B_bar)
    args = (pendulum.system, pendulum.costs)
    if design is not certainty_equivalent:
        args += ([D for D, _ in pendulum.noise.a_dirs], [],
                 pendulum.structure)
    with pytest.raises(DimensionError, match=message):
        design(*args, DesignOptions(gare=pendulum.gare_options), true_system)
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


def test_algorithm_2_certificate_is_solved_on_the_loop_its_bisection_read(
        design_instances):
    # the probe member at y*, closed with the returned gain, is the loop
    # whose verdict the bisection read; the stored P is its GLE solution
    # bit for bit, so the certificate rests on that verdict
    for (sys, a_mats, b_mats, st), _, res in design_instances:
        z, var = _aux_scaling(res.y_star, st.weights)
        base = NoiseModel(a_dirs=[(D, 0.0) for D in a_mats],
                          b_dirs=[(D, 0.0) for D in b_mats])
        member = (NominalSystem(A=z * sys.A, B=z * sys.B),
                  base.with_variances(var[:st.p], var[st.p:]))
        A_aux, aux_dirs = closed_loop_substitution(*member, res.K)
        assert _mss_holds(A_aux, aux_dirs)
        P = solve_gle(A_aux, aux_dirs, np.eye(sys.n)).P
        assert P.tobytes() == res.certificate.P.tobytes()
        assert res.z_star == z


def test_diagnostic_grid_budget_per_direction_count():
    # 2^16 points fit the 100,000-point budget, 2^17 do not
    assert _grid_samples(16, 100) == 2
    assert _grid_samples(17, 100) is None
    assert _grid_samples(2, 10_000) ** 2 <= 100_000


@pytest.mark.parametrize("algo", [design_algorithm_1, design_algorithm_2])
def test_design_over_the_diagnostic_grid_budget_reports_no_box_radius(algo):
    # 24 directions need 2^24 grid points even at 2 samples each: the
    # design reports no worst-case box radius rather than failing on a grid
    # size it was never given
    n = 5
    sys = NominalSystem(A=0.9 * np.eye(n) + 0.1 * np.eye(n, k=1),
                        B=np.eye(n))
    dirs = [np.outer(np.eye(n)[i], np.eye(n)[j])
            for i in range(n) for j in range(n)][:24]
    structure = UncertaintyStructure(theta=np.ones(24))
    opts = DesignOptions(gare=gare.GareOptions(tol_abs=0.0, tol_rel=1e-6,
                                               max_iter=1000))
    res = algo(sys, CostPair(Q=np.eye(n), R=np.eye(n)), dirs, [], structure,
               opts)
    assert res.y_star > 0 and not res.cap_hit
    assert res.diagnostics.worst_box_rho is None
    assert res.diagnostics.rho_closed_loop < 1.0


def _seeded_design_plant(seed):
    """A seeded n = 3 plant with one state and one input direction, its
    costs and its uncertainty structure."""
    rng = np.random.default_rng(seed)
    n, m = 3, int(rng.integers(1, 3))
    sys = NominalSystem(A=rng.normal(size=(n, n)), B=rng.normal(size=(n, m)))
    a_mats = [rng.normal(size=(n, n)) / n]
    b_mats = [rng.normal(size=(n, m)) / n]
    structure = UncertaintyStructure(theta=[1.0], phi=[0.5])
    return sys, CostPair(Q=np.eye(n), R=np.eye(m)), a_mats, b_mats, structure


def _one_point_probe(algo, sys, costs, a_mats, b_mats, structure, opts):
    """The Riccati probe that the design's bisection asks for at one
    point, built on feasible_gare_solution."""
    base = NoiseModel(a_dirs=[(D, 0.0) for D in a_mats],
                      b_dirs=[(D, 0.0) for D in b_mats])
    p = structure.p

    def probe(x):
        if algo is design_algorithm_1:
            noise = base.with_variances(x * structure.theta, x * structure.phi)
            return feasible_gare_solution(sys, noise, costs, opts)
        z, var = _aux_scaling(x, structure.weights)
        scaled = NominalSystem(A=z * sys.A, B=z * sys.B)
        return feasible_gare_solution(
            scaled, base.with_variances(var[:p], var[p:]), costs, opts)

    return probe


def _count_checks(monkeypatch):
    """Calls of the probes' closed-loop check, counted from now on."""
    checks = []
    monkeypatch.setattr(gare, "_mss_holds",
                        lambda *args: checks.append(1) or _mss_holds(*args))
    return checks


@pytest.mark.parametrize("algo", [design_algorithm_1, design_algorithm_2])
@pytest.mark.parametrize("plant", ["pendulum", 5, 8])
def test_designs_check_only_the_probes_their_bisection_reads(
        pendulum, monkeypatch, algo, plant):
    # a design checks the closed loop of exactly the converged probes that
    # a one-point-at-a-time bisection reads, though its stacked calls
    # solve members that the walk never reads
    if plant == "pendulum":
        instance = (pendulum.system, pendulum.costs,
                    [D for D, _ in pendulum.noise.a_dirs], [],
                    pendulum.structure)
    else:
        instance = _seeded_design_plant(plant)
    opts = DesignOptions(gare=pendulum.gare_options,
                         bisect=pendulum.bisect_options)
    checks = _count_checks(monkeypatch)
    res = algo(*instance, opts)
    design_checks = len(checks)
    checks.clear()
    x, cap_hit, _ = sequential_bisect(
        _one_point_probe(algo, *instance, opts.gare), opts.bisect.rel_tol)
    assert design_checks == len(checks) > 0
    assert x == (res.z_star if algo is design_algorithm_1 else res.y_star)
    assert cap_hit is res.cap_hit


@pytest.mark.parametrize("algo", [design_algorithm_1, design_algorithm_2])
def test_designs_stack_the_path_their_leads_predict(pendulum, monkeypatch,
                                                    algo):
    # the leads only choose which points are stacked, so a predictor that
    # went dead would change no result: only the count of stacked solves
    # shows it. Without leads every halving ask is a 3-level tree
    instance = (pendulum.system, pendulum.costs,
                [D for D, _ in pendulum.noise.a_dirs], [], pendulum.structure)
    opts = DesignOptions(gare=pendulum.gare_options,
                         bisect=pendulum.bisect_options)
    solve = gare._solve_stack

    def run(with_leads):
        calls = []

        def counted(*args):
            results, leads = solve(*args)
            calls.append(len(results))
            return results, leads if with_leads else [None] * len(leads)

        monkeypatch.setattr(gare, "_solve_stack", counted)
        return algo(*instance, opts), calls

    led, led_calls = run(True)
    blind, blind_calls = run(False)
    assert led.K.tobytes() == blind.K.tobytes()
    assert (led.y_star, led.z_star, led.cap_hit) == (
        blind.y_star, blind.z_star, blind.cap_hit)
    assert led.certificate.P.tobytes() == blind.certificate.P.tobytes()
    assert len(led_calls) < len(blind_calls)


def test_an_unread_member_that_fails_its_pivot_raises_nothing(monkeypatch):
    # the first stacked call asks for y = 0, 1, 2 and 4, and the walk reads
    # 0, 1 and 2 only, since the frontier lies at 1.7: the member at y = 4
    # fails its pivot (test_inner_matrix_that_rounds_to_singular's plant),
    # and nothing is raised. Unread members below the frontier converge
    # and are never checked
    costs = CostPair(Q=[[1.0]], R=np.eye(2))
    opts = gare.GareOptions(max_iter=300)
    converging = NominalSystem(A=[[0.5]], B=[[1.0, 0.5]])
    diverging = NominalSystem(A=[[3.0]], B=[[0.0, 0.0]])
    failing = NominalSystem(A=[[1.0]], B=[[1e9, 1e9]])
    with pytest.raises(NumericalError, match="not positive definite"):
        gare.solve_gare(failing, NoiseModel(), costs, opts)

    def system_at(y):
        return failing if y == 4.0 else converging if y <= 1.7 else diverging

    def feasible(ys):
        return gare._probe_stack([system_at(y) for y in ys],
                                 [NoiseModel()] * len(ys), costs, opts)

    converged, solve = [], gare._solve_stack

    def counted(*args):
        results, leads = solve(*args)
        converged.extend(sol for sol in results
                         if not isinstance(sol, NumericalError)
                         and sol.converged)
        return results, leads

    monkeypatch.setattr(gare, "_solve_stack", counted)
    checks = _count_checks(monkeypatch)
    y, cap_hit, witness = bisect_max_feasible(feasible)
    assert not cap_hit and witness is not None
    assert y == pytest.approx(1.7, rel=2e-6)
    read_checks = len(checks)
    checks.clear()
    assert sequential_bisect(lambda y: feasible_gare_solution(
        system_at(y), NoiseModel(), costs, opts))[0] == y
    assert read_checks == len(checks) < len(converged)

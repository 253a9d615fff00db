import numpy as np
import numpy.linalg as la
import pytest

import multinoise.verify
from multinoise import (
    DimensionError,
    GridSizeError,
    MonteCarloConfig,
    PerturbationBox,
    closed_loop_substitution,
    grid_verify,
    moment_operator,
    simulate_second_moment,
    spectral_radius,
)
from multinoise.verify import (_rademacher_bits, _survivors,
                               exact_moment_recursion)

from conftest import (
    assert_sweep_matches_oracle, random_mss_instance, vec,
)

ONE = np.array([[1.0]])


def test_grid_verify_zero_box_single_point():
    A_cl = np.array([[0.3, 1.0], [0.0, 0.4]])
    dirs = [(np.eye(2), 0.0)]
    box = PerturbationBox(eta=[0.0], psi=[], bidirectional=False)
    report = grid_verify(A_cl, dirs, box, 10)
    assert report.samples == 1
    assert report.worst_rho == pytest.approx(spectral_radius(A_cl))
    assert report.all_stable


def test_grid_verify_pendulum_boxes(pendulum, pendulum_alg1, pendulum_alg2):
    for result, variances, expected in (
        (pendulum_alg1, [pendulum_alg1.z_star], 0.841),
        (pendulum_alg2,
         [pendulum_alg2.y_star * (1 + pendulum_alg2.y_star)], 0.632),
    ):
        noise = pendulum.noise.with_variances(variances, [])
        A_cl, dirs = closed_loop_substitution(pendulum.system, noise, result.K)
        report = grid_verify(A_cl, dirs, result.certificate.box, 10_000)
        assert report.all_stable
        assert report.worst_rho == pytest.approx(expected, abs=0.02)
        assert report.samples == 10_000
        # the radius bound rules out most of the box
        assert report.eigensolves < report.samples // 10


def test_grid_verify_detects_unstable_box():
    A_cl = np.array([[0.9]])
    dirs = [(ONE, 0.0)]
    box = PerturbationBox(eta=[0.5], psi=[], bidirectional=False)
    report = grid_verify(A_cl, dirs, box, 100)
    assert not report.all_stable
    assert report.worst_rho > 1.0
    assert report.worst_mu[0] == pytest.approx(0.5, rel=1e-6)


def test_grid_verify_chunked_two_directions():
    rng = np.random.default_rng(55)
    A_cl, dirs = random_mss_instance(rng, 2, 2, 0.6)
    box = PerturbationBox(eta=[0.05, 0.05], psi=[], bidirectional=True)
    report = grid_verify(A_cl, dirs, box, 300)  # > one 65536-point chunk
    assert report.samples == 300 * 300
    assert np.all(np.abs(report.worst_mu) <= 0.05)
    direct = spectral_radius(
        A_cl + report.worst_mu[0] * dirs[0][0] + report.worst_mu[1] * dirs[1][0]
    )
    assert report.worst_rho == pytest.approx(direct, rel=1e-12)
    assert_sweep_matches_oracle(report, A_cl, dirs, box, 300)


def test_grid_verify_seed_just_past_a_chunk():
    # at n = 3 a chunk of 65536 points ends in a partial block of 16; the
    # seed, the far vertex, lies in the next chunk within a block's length
    # of that partial block's start, and is solved in its own chunk
    A_cl, dirs = 0.5 * np.eye(3), [(np.eye(3), 1.0)]
    box = PerturbationBox(eta=[0.3], psi=[], bidirectional=False)
    report = grid_verify(A_cl, dirs, box, 69_000)
    assert report.worst_mu[0] == multinoise.verify._grid_axes(box, 2)[0][-1]
    assert_sweep_matches_oracle(report, A_cl, dirs, box, 69_000)


def test_grid_verify_many_directions():
    # the seed's sub-grid spreads over the first four axes and takes the
    # far end alone of the other four, so it stays at 16 points
    rng = np.random.default_rng(8)
    A_cl, dirs = random_mss_instance(rng, 3, 8, 0.5)
    box = PerturbationBox(eta=np.full(8, 0.02), psi=[], bidirectional=True)
    assert multinoise.verify._sub_grid((3,) * 8).size == 16
    report = grid_verify(A_cl, dirs, box, 3)
    assert_sweep_matches_oracle(report, A_cl, dirs, box, 3)


_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]])
_GENERIC = np.array([[0.5, 0.2, 0.0], [-0.3, 0.4, 0.1], [0.0, 0.2, 0.6]])


@pytest.mark.parametrize("p, samples, bidirectional", [
    (1, 100_003, False),  # a long 1-D grid: 6251 cells, the last of 3 points
    (1, 2, True),         # one cell of two points
    (2, 101, True),       # 4 x 4 cells, the last row and column of 1 point
    (2, 300, False),      # past one chunk, 300 = 75 cells of 4
    (3, 23, True),        # 2 x 2 x 2 cells, the last of 1 point per axis
    (6, 4, False),        # every cell would hold one point: no cell pass
])
def test_grid_sweep_matches_full_sweep_on_random_boxes(p, samples,
                                                       bidirectional):
    rng = np.random.default_rng(100 * p + samples % 97)
    A_cl, dirs = random_mss_instance(rng, 3, p, 0.6)
    box = PerturbationBox(eta=rng.uniform(0.01, 0.3, size=p), psi=[],
                          bidirectional=bidirectional)
    report = grid_verify(A_cl, dirs, box, samples)
    assert_sweep_matches_oracle(report, A_cl, dirs, box, samples)


def test_cells_leave_few_points_of_the_pendulum_grid(monkeypatch, pendulum,
                                                     pendulum_alg1):
    # the centres' bounds carry a starting error; the points' do not
    seen = {"cells": 0, "points": 0}

    def counted(mats, floor, err0=0.0):
        seen["cells" if np.ndim(err0) else "points"] += len(mats)
        return _survivors(mats, floor, err0)

    monkeypatch.setattr(multinoise.verify, "_survivors", counted)
    noise = pendulum.noise.with_variances([pendulum_alg1.z_star], [])
    A_cl, dirs = closed_loop_substitution(pendulum.system, noise,
                                          pendulum_alg1.K)
    report = grid_verify(A_cl, dirs, pendulum_alg1.certificate.box, 10**6)
    assert report.all_stable and report.samples == 10**6
    assert seen["cells"] == 10**6 // 16
    assert report.eigensolves <= seen["points"] < 10**5


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("A_cl, mats, eta, bidirectional", [
    # a zero direction: every point ties, the first grid point wins
    (_GENERIC, [np.zeros((3, 3))], [0.4], False),
    (_GENERIC, [np.zeros((3, 3))], [0.4], True),
    # a zero-bound direction contributes the single point 0
    (_GENERIC, [np.eye(3), _GENERIC.T], [0.3, 0.0], True),
    # an unstable box
    (_GENERIC, [np.eye(3)], [0.8], False),
    # non-normal blocks: at 1e6 the bound's powers underflow and every
    # point is solved, at 30 the bound still rules points out
    (np.array([[0.5, 1e6], [0.0, 0.4]]), [1e-8 * _LOWER], [1.0], True),
    (np.array([[0.5, 30.0], [0.0, 0.4]]), [1e-3 * _LOWER, np.eye(2)],
     [1.0, 0.05], False),
    # entries near underflow and near overflow
    (1e-200 * _GENERIC, [1e-200 * np.eye(3)], [0.5], True),
    (1e200 * _GENERIC, [1e200 * np.eye(3)], [0.5], True),
], ids=["zero-dir", "zero-dir-bi", "zero-bound", "unstable", "non-normal",
        "non-normal-two", "tiny", "huge"])
def test_grid_sweep_matches_full_sweep_on_edge_cases(A_cl, mats, eta,
                                                     bidirectional):
    dirs = [(D, 1.0) for D in mats]
    box = PerturbationBox(eta=eta, psi=[], bidirectional=bidirectional)
    report = grid_verify(A_cl, dirs, box, 60)
    assert_sweep_matches_oracle(report, A_cl, dirs, box, 60)
    if not mats[0].any():
        first = multinoise.verify._grid_axes(box, 60)[0][0]
        assert report.worst_mu[0] == first


def _upper_triangular(rng, k, n, corner):
    # non-normal blocks whose radius is exact: LAPACK returns the diagonal
    # of a triangular matrix as its eigenvalues
    M = np.triu(rng.uniform(-1.0, 1.0, size=(k, n, n)))
    M[:, 0, -1] = corner
    return M


@pytest.mark.parametrize("kind", ["random", "tiny", "huge", "non-normal"])
def test_rescaled_bound_lies_above_the_radius_at_every_level(kind):
    rng = np.random.default_rng(17)
    M = {"random": lambda: rng.normal(size=(64, 4, 4)),
         "tiny": lambda: 1e-200 * rng.normal(size=(64, 4, 4)),
         "huge": lambda: 1e200 * rng.normal(size=(64, 4, 4)),
         "non-normal": lambda: _upper_triangular(rng, 64, 3, 1e6),
         }[kind]()
    # _survivors drops a matrix at the first level whose bound is below the
    # floor; with the floor just below its radius, each matrix passes every
    # level from the Frobenius norm to the 256th power
    rho = np.abs(la.eigvals(M)).max(axis=1)
    for X, r in zip(M, rho):
        assert _survivors(X[None], r * (1 - 1e-12)).size == 1
        if kind != "non-normal":
            # and the bounds are not vacuous: a floor well above fails one
            assert _survivors(X[None], 1.5 * r).size == 0
    # scaled together as one stack, no matrix falls below the least radius
    assert _survivors(M, rho.min() * (1 - 1e-12)).size == len(M)


@pytest.mark.parametrize("kind", ["random", "tiny", "huge", "non-normal"])
def test_starting_error_covers_every_matrix_within_it(kind):
    # a centre is kept whenever a matrix within err0 of it, in Frobenius
    # norm, has a radius at or above the floor; the perturbations sit just
    # inside that distance, in random directions
    rng = np.random.default_rng(23)
    scale = {"random": 1.0, "tiny": 1e-200, "huge": 1e200,
             "non-normal": 1.0}[kind]
    for n in (1, 2, 4):
        for rel in (1e-12, 1e-6, 1e-3, 0.1):
            X = rng.normal(size=(n, n))
            if kind == "non-normal":
                X = np.triu(X)
                X[0, -1] = 1e4
            err0 = rel * la.norm(X) * scale
            X *= scale
            E = rng.normal(size=(32, n, n))
            E *= err0 * (1 - 1e-9) / la.norm(E, axis=(1, 2))[:, None, None]
            rho = np.abs(la.eigvals(X + E)).max(axis=1)
            for floor in (rho.max(), np.median(rho)):
                assert _survivors(X[None], floor, err0).size == 1
            if rel <= 1e-6 and kind != "non-normal":
                # and the bound is not vacuous
                assert _survivors(X[None], 1.5 * rho.max(), err0).size == 0
            # per-matrix errors: each covers its own matrix alone
            stack = np.stack([X, X])
            kept = _survivors(stack, rho.max(), np.array([err0, 0.0]))
            assert 0 in kept


def test_grid_verify_rejects_misshaped_direction():
    # a 1x1 direction would broadcast over the 2x2 loop
    box = PerturbationBox(eta=[0.5, 0.5], psi=[], bidirectional=False)
    dirs = [(np.eye(2), 1.0), (ONE, 1.0)]
    with pytest.raises(DimensionError, match="direction 1"):
        grid_verify(0.3 * np.eye(2), dirs, box, 10)


def test_grid_verify_size_limit():
    rng = np.random.default_rng(50)
    A_cl, dirs = random_mss_instance(rng, 2, 3, 0.5)
    box = PerturbationBox(eta=[0.1, 0.1, 0.1], psi=[], bidirectional=True)
    with pytest.raises(GridSizeError):
        grid_verify(A_cl, dirs, box, 500)
    with pytest.raises(ValueError):
        grid_verify(A_cl, dirs, box, 1)


def test_exact_recursion_zero_noise_geometric():
    A_cl = 0.5 * np.eye(2)
    hist = simulate_second_moment(
        A_cl, [], MonteCarloConfig(horizon=6, trials=3, seed=0), np.eye(2)
    )
    for t in range(7):
        np.testing.assert_allclose(hist.exact[t], 0.25 ** t * np.eye(2),
                                   atol=1e-14)


def test_exact_recursion_matches_moment_operator():
    rng = np.random.default_rng(51)
    A_cl, dirs = random_mss_instance(rng, 3, 2, 0.8)
    sigma0 = np.eye(3)
    hist = exact_moment_recursion(A_cl, dirs, sigma0, 10)
    M = moment_operator(A_cl, dirs)
    # covariances propagate through the transposed lift
    v = vec(sigma0)
    for t in range(10):
        v = M.T @ v
        assert la.norm(v - vec(hist[t + 1])) <= 1e-10 * max(1, la.norm(v))


def test_exact_recursion_mss_decay():
    rng = np.random.default_rng(52)
    A_cl, dirs = random_mss_instance(rng, 3, 1, 0.8)
    radius = spectral_radius(moment_operator(A_cl, dirs))
    steps = int(np.ceil(np.log(1e-6) / np.log(radius))) + 20
    hist = exact_moment_recursion(A_cl, dirs, np.eye(3), steps)
    assert la.norm(hist[-1], "fro") <= 1e-6 * la.norm(hist[0], "fro")


def test_exact_recursion_non_mss_growth():
    hist = exact_moment_recursion(
        0.9 * ONE, [(ONE, 0.2)], ONE, 30
    )
    ratios = [hist[t + 1][0, 0] / hist[t][0, 0] for t in range(30)]
    np.testing.assert_allclose(ratios, 1.01, rtol=1e-12)


def test_monte_carlo_matches_exact_within_standard_error():
    # products of random matrices are heavy-tailed, so the standard error
    # is estimated from independent blocks rather than a Gaussian formula
    rng = np.random.default_rng(53)
    A_cl, dirs = random_mss_instance(rng, 2, 1, 0.7)
    blocks = np.array([
        simulate_second_moment(
            A_cl, dirs, MonteCarloConfig(horizon=10, trials=1000, seed=s),
            np.eye(2),
        ).empirical[10]
        for s in range(1000, 1020)
    ])
    se = blocks.std(axis=0, ddof=1) / np.sqrt(blocks.shape[0])
    cfg = MonteCarloConfig(horizon=10, trials=20_000, seed=123)
    hist = simulate_second_moment(A_cl, dirs, cfg, np.eye(2))
    exact = hist.exact[10]
    assert np.all(np.abs(hist.empirical[10] - exact) <= 5.0 * se)


def test_monte_carlo_deterministic_given_seed():
    rng = np.random.default_rng(54)
    A_cl, dirs = random_mss_instance(rng, 2, 2, 0.6)
    cfg = MonteCarloConfig(horizon=5, trials=64, seed=7, noise_law="rademacher")
    h1 = simulate_second_moment(A_cl, dirs, cfg, np.eye(2))
    h2 = simulate_second_moment(A_cl, dirs, cfg, np.eye(2))
    np.testing.assert_array_equal(h1.empirical, h2.empirical)


def test_monte_carlo_config_validation():
    # each field is checked on its own, and its error names it
    for field, value in [
        ("horizon", 0), ("horizon", 2.5), ("horizon", True),
        ("trials", 0), ("trials", -3), ("trials", 10.0), ("trials", False),
        ("seed", -1), ("seed", 1.5), ("seed", None), ("seed", True),
    ]:
        fields = dict(horizon=1, trials=1, seed=0)
        fields[field] = value
        with pytest.raises(ValueError,
                           match=rf"^MonteCarloConfig\.{field} must be"):
            MonteCarloConfig(**fields)
    with pytest.raises(ValueError, match="noise law"):
        MonteCarloConfig(horizon=1, trials=1, seed=0, noise_law="cauchy")
    cfg = MonteCarloConfig(horizon=np.int64(2), trials=np.int32(3),
                           seed=np.uint64(4))
    assert simulate_second_moment(0.5 * ONE, [(ONE, 0.1)], cfg,
                                  ONE).empirical.shape == (3, 1, 1)


@pytest.mark.parametrize("trial", [0, multinoise.verify._MC_BLOCK - 1,
                                   multinoise.verify._MC_BLOCK])
def test_trial_streams_are_the_spawned_children(trial):
    # the streams derived in bulk are those spawn returns, for seeds of one,
    # two, three and five 32-bit words and for numpy integer seeds, and for
    # a trial alone or inside a block that starts earlier
    for seed in (23, 2**32 + 5, 2**64 + 7, 2**130 + 9, np.uint64(2**63 + 3),
                 np.uint64(41)):
        child = np.random.SeedSequence(seed).spawn(trial + 1)[trial]
        for start in (trial, 0):
            for built in multinoise.verify._trial_streams(seed, start,
                                                          trial + 1):
                pass
            spawned = np.random.Generator(np.random.PCG64(child))
            assert built.bit_generator.state == spawned.bit_generator.state
            assert np.array_equal(built.standard_normal(8),
                                  spawned.standard_normal(8))
            assert np.array_equal(built.integers(0, 2, size=(5, 3)),
                                  spawned.integers(0, 2, size=(5, 3)))


def test_trial_streams_past_two_to_the_32():
    # a trial index of 2^32 or more is two words of the spawn key; a block
    # across that boundary derives both kinds of key
    start = 2**32 - 2
    for trial, built in enumerate(multinoise.verify._trial_streams(
            7, start, start + 4), start):
        child = np.random.SeedSequence(7, spawn_key=(trial,))
        assert built.bit_generator.state == np.random.PCG64(child).state


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_monte_carlo_rejects_non_finite_x0_cov(bad):
    cfg = MonteCarloConfig(horizon=2, trials=2, seed=0)
    x0_cov = np.eye(2)
    x0_cov[1, 1] = bad
    with pytest.raises(ValueError, match="x0_cov must be finite"):
        simulate_second_moment(0.5 * np.eye(2), [], cfg, x0_cov)


def test_rademacher_law_has_modeled_variance():
    cfg = MonteCarloConfig(horizon=1, trials=50_000, seed=9,
                           noise_law="rademacher")
    hist = simulate_second_moment(
        np.zeros((1, 1)), [(ONE, 0.25)], cfg, ONE
    )
    # after one step the state is gamma * x0 with Var(gamma) = 0.25
    assert hist.empirical[1][0, 0] == pytest.approx(0.25, rel=0.05)
    assert hist.exact[1][0, 0] == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("law", ["gaussian", "rademacher"])
def test_monte_carlo_blocks_match_one_block(monkeypatch, law):
    # one trial past a block: the sums of two blocks against one pass
    rng = np.random.default_rng(56)
    A_cl, dirs = random_mss_instance(rng, 3, 2, 0.8)
    cfg = MonteCarloConfig(horizon=20, trials=multinoise.verify._MC_BLOCK + 1,
                           seed=11, noise_law=law)
    blocked = simulate_second_moment(A_cl, dirs, cfg, np.eye(3)).empirical
    monkeypatch.setattr(multinoise.verify, "_MC_BLOCK", cfg.trials)
    whole = simulate_second_moment(A_cl, dirs, cfg, np.eye(3)).empirical
    for B, W in zip(blocked, whole):
        assert la.norm(B - W) <= 1e-12 * la.norm(W)


@pytest.mark.parametrize("count", [1, 2, 7, 400, 401])
def test_rademacher_bits_are_the_generators_integers(count):
    # two draws per 64-bit output, the low half first, for odd and even
    # counts; a stack of outputs turns into signs row by row
    for seed in (7, 23, 101):
        raw = np.random.Generator(np.random.PCG64(seed))
        words = raw.bit_generator.random_raw((3, -(-count // 2)))
        bits = _rademacher_bits(words, count)
        for row in range(3):
            drawn = np.random.Generator(np.random.PCG64(seed))
            drawn.bit_generator.advance(row * words.shape[1])
            assert np.array_equal(bits[row],
                                  drawn.integers(0, 2, size=count))


@pytest.mark.parametrize("variance", [-0.1, float("nan"), float("inf")])
def test_monte_carlo_rejects_bad_variance(variance):
    cfg = MonteCarloConfig(horizon=2, trials=2, seed=0)
    dirs = [(ONE, 0.1), (ONE, variance)]
    with pytest.raises(ValueError, match="direction 1"):
        simulate_second_moment(0.5 * ONE, dirs, cfg, ONE)


def test_monte_carlo_rejects_misshaped_direction():
    cfg = MonteCarloConfig(horizon=2, trials=2, seed=0)
    with pytest.raises(DimensionError, match="direction 0"):
        simulate_second_moment(0.5 * np.eye(2), [(ONE, 0.1)], cfg, np.eye(2))

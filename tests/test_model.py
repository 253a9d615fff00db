import dataclasses
import math

import numpy as np
import pytest

from multinoise import (
    BisectOptions,
    CostPair,
    DesignOptions,
    DimensionError,
    GareOptions,
    NoiseModel,
    NominalSystem,
    PerturbationBox,
    TrueSystem,
    UncertaintyStructure,
    closed_loop_substitution,
)

from conftest import perturbed_matrix


def pendulum_pair():
    A = np.array([[1.0, 0.1], [0.5, 1.0]])
    B = np.array([[0.0], [0.1]])
    return NominalSystem(A=A, B=B)


def test_system_validation():
    sys = pendulum_pair()
    assert (sys.n, sys.m) == (2, 1)
    with pytest.raises(DimensionError):
        NominalSystem(A=np.ones((2, 3)), B=np.ones((2, 1)))
    with pytest.raises(DimensionError):
        NominalSystem(A=np.eye(2), B=np.ones((3, 1)))
    with pytest.raises(DimensionError):
        TrueSystem(A_bar=np.eye(2), B_bar=np.ones((3, 1)))


def test_noise_model_validation():
    NoiseModel(a_dirs=[(np.eye(2), 0.5)], b_dirs=[(np.ones((2, 1)), 0.1)])
    with pytest.raises(ValueError):
        NoiseModel(a_dirs=[(np.eye(2), -0.1)])
    with pytest.raises(DimensionError):
        NoiseModel(a_dirs=[(np.ones((2, 3)), 0.1)])
    # at most n^2 independent state directions
    with pytest.raises(ValueError):
        NoiseModel(a_dirs=[(np.eye(1), 0.1)] * 2)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["alpha", "beta"])
def test_noise_model_rejects_non_finite_variances(kind, value):
    # a NaN variance used to reach the eigensolver and come back as a
    # NumericalError, as if the input were well formed
    good = [(np.eye(2), 0.5)]
    bad = [(np.eye(2), 0.5), (np.eye(2) if kind == "alpha"
                              else np.ones((2, 1)), value)]
    dirs = ({"a_dirs": bad, "b_dirs": [(np.ones((2, 1)), 0.1)]}
            if kind == "alpha" else {"a_dirs": good, "b_dirs": bad})
    with pytest.raises(ValueError, match=rf"{kind}\[1\] must be finite"):
        NoiseModel(**dirs)


def test_uncertainty_structure_normalizes():
    s = UncertaintyStructure(theta=[2.0, 2.0], phi=[4.0])
    assert s.weights.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(s.theta, [0.25, 0.25])
    np.testing.assert_allclose(s.phi, [0.5])
    with pytest.raises(ValueError):
        UncertaintyStructure(theta=[0.0, 1.0])
    with pytest.raises(ValueError):
        UncertaintyStructure(theta=[1.0], phi=[-0.5])


def test_perturbation_box_validation():
    box = PerturbationBox(eta=[1.0], psi=[], bidirectional=True)
    np.testing.assert_allclose(box.bounds, [1.0])
    with pytest.raises(ValueError):
        PerturbationBox(eta=[-1.0], psi=[], bidirectional=False)
    with pytest.raises(ValueError):
        PerturbationBox(eta=[np.inf], psi=[], bidirectional=False)


def test_cost_pair_validation():
    CostPair(Q=np.eye(2), R=np.eye(1))
    with pytest.raises(ValueError, match="R must be positive definite"):
        CostPair(Q=np.eye(2), R=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="R must be positive definite"):
        CostPair(Q=np.eye(2), R=np.diag([1.0, -1e-300]))
    CostPair(Q=np.eye(2), R=np.diag([1.0, 1e-300]))
    with pytest.raises(ValueError):
        CostPair(Q=-np.eye(2), R=np.eye(1))
    with pytest.raises(ValueError):
        CostPair(Q=np.array([[1.0, 0.5], [0.0, 1.0]]), R=np.eye(1))


def test_closed_loop_substitution_zero_gain():
    sys = pendulum_pair()
    noise = NoiseModel(
        a_dirs=[(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.3)],
        b_dirs=[(np.array([[1.0], [0.0]]), 0.7)],
    )
    A_cl, dirs = closed_loop_substitution(sys, noise, np.zeros((1, 2)))
    np.testing.assert_allclose(A_cl, sys.A)
    assert len(dirs) == 2
    np.testing.assert_allclose(dirs[0][0], noise.a_dirs[0][0])
    assert dirs[0][1] == 0.3
    np.testing.assert_allclose(dirs[1][0], np.zeros((2, 2)))  # B_j K = 0
    assert dirs[1][1] == 0.7


def test_closed_loop_substitution_pendulum_gain():
    sys = pendulum_pair()
    noise = NoiseModel(a_dirs=[(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.0)])
    K = np.array([[-9.14, -4.15]])
    A_cl, dirs = closed_loop_substitution(sys, noise, K)
    np.testing.assert_allclose(
        A_cl, [[1.0, 0.1], [0.5 - 0.914, 1.0 - 0.415]], atol=1e-12
    )
    assert len(dirs) == 1


def test_closed_loop_substitution_input_direction():
    sys = pendulum_pair()
    noise = NoiseModel(b_dirs=[(sys.B, 0.4)])
    K = np.array([[2.0, -1.0]])
    A_cl, dirs = closed_loop_substitution(sys, noise, K)
    assert len(dirs) == 1
    np.testing.assert_allclose(dirs[0][0], sys.B @ K)
    assert dirs[0][1] == 0.4


def test_closed_loop_substitution_rejects_bad_gain():
    sys = pendulum_pair()
    with pytest.raises(DimensionError):
        closed_loop_substitution(sys, NoiseModel(), np.zeros((2, 2)))


def test_perturbed_matrix_examples():
    A = np.array([[1.0, 0.1], [0.5, 1.0]])
    dirs = [(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.0)]
    np.testing.assert_allclose(perturbed_matrix(A, dirs, [0.0]), A)
    # nominal mass constant 5 vs true 10: the gap is 0.5 in entry (2,1)
    np.testing.assert_allclose(
        perturbed_matrix(A, dirs, [0.5]), [[1.0, 0.1], [1.0, 1.0]]
    )
    np.testing.assert_allclose(
        perturbed_matrix(A, [(np.eye(2), 0.0)], [1.0]), A + np.eye(2)
    )
    with pytest.raises(DimensionError):
        perturbed_matrix(A, dirs, [0.1, 0.2])


def test_perturbed_matrix_affine_in_mu():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 3))
    dirs = [(rng.normal(size=(3, 3)), 0.0) for _ in range(2)]
    mu = rng.normal(size=2)
    a = 1.7
    lhs = perturbed_matrix(A, dirs, a * mu) - A
    rhs = a * (perturbed_matrix(A, dirs, mu) - A)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# the bad values of each rule: a tolerance is finite and >= 0, a threshold
# finite and > 0, a count an integer >= its least value; a bool is none
_NOT_FINITE = [True, math.nan, math.inf, -math.inf]
_BAD_TOLERANCE = _NOT_FINITE + [-1e-10, "1e-6"]
_BAD_THRESHOLD = _NOT_FINITE + [-1.0, 0.0]
_OPTION_FIELDS = [
    (GareOptions, "tol_abs", _BAD_TOLERANCE),
    (GareOptions, "tol_rel", _BAD_TOLERANCE),
    (GareOptions, "blowup", _BAD_THRESHOLD),
    (GareOptions, "max_iter", _NOT_FINITE + [-3, 0, 2.5, 50.0]),
    (BisectOptions, "rel_tol", _BAD_TOLERANCE),
    (DesignOptions, "grid_samples_per_dir", _NOT_FINITE + [-3, 0, 1, 2.5]),
]


@pytest.mark.parametrize("cls, name, value", [
    (cls, name, value) for cls, name, bad in _OPTION_FIELDS for value in bad
])
def test_options_reject_a_bad_value_when_built(cls, name, value):
    match = rf"{cls.__name__}\.{name} "
    with pytest.raises(ValueError, match=match):
        cls(**{name: value})
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(cls(), **{name: value})


@pytest.mark.parametrize("cls, name, value", [
    (GareOptions, "tol_abs", 0.0), (GareOptions, "max_iter", 1),
    (GareOptions, "max_iter", np.int64(7)), (BisectOptions, "rel_tol", 0.0),
    (DesignOptions, "grid_samples_per_dir", 2),
])
def test_options_accept_the_edge_of_each_rule(cls, name, value):
    assert getattr(cls(**{name: value}), name) == value


@pytest.mark.parametrize("cls, name", [
    (cls, name) for cls, name, _ in _OPTION_FIELDS
])
def test_options_are_frozen(cls, name):
    opts = cls()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(opts, name, getattr(opts, name))

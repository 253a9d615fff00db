import numpy as np
import numpy.linalg as la
import pytest
import scipy.linalg

from multinoise import (
    DimensionError,
    SingularPencilError,
    is_psd,
    psd_split,
    spectral_radius,
    symmetrize,
)
from multinoise.matops import _gen_eig_max as gen_eig_max

from conftest import vec


def test_symmetrize_examples():
    np.testing.assert_allclose(symmetrize([[1, 2], [0, 1]]), [[1, 1], [1, 1]])
    np.testing.assert_allclose(symmetrize(np.eye(3)), np.eye(3))
    np.testing.assert_allclose(symmetrize([[0, 4], [2, 0]]), [[0, 3], [3, 0]])


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(DimensionError):
        symmetrize(np.ones((2, 3)))


def test_spectral_radius_examples():
    assert spectral_radius(np.diag([0.5, -0.8])) == pytest.approx(0.8)
    assert spectral_radius([[0, 1], [-1, 0]]) == pytest.approx(1.0)
    # open-loop pendulum with the true mass constant
    assert spectral_radius([[1, 0.1], [1, 1]]) == pytest.approx(1.316, abs=1e-3)


def test_spectral_radius_scaling_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        M = rng.normal(size=(4, 4))
        c = rng.normal()
        assert spectral_radius(c * M) == pytest.approx(
            abs(c) * spectral_radius(M), rel=1e-10, abs=1e-12
        )


def test_psd_split_examples():
    sp = psd_split(np.diag([2.0, -3.0]))
    np.testing.assert_allclose(sp.plus, np.diag([2.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(sp.minus, np.diag([0.0, -3.0]), atol=1e-12)

    sp = psd_split([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(sp.plus, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
    np.testing.assert_allclose(sp.minus, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-12)

    S = np.diag([1.0, 2.0])  # already PSD
    sp = psd_split(S)
    np.testing.assert_allclose(sp.plus, S, atol=1e-12)
    np.testing.assert_allclose(sp.minus, np.zeros((2, 2)), atol=1e-12)


def test_psd_split_reconstruction_and_ordering():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(1, 21))
        S = symmetrize(rng.normal(size=(n, n)))
        sp = psd_split(S)
        nrm = la.norm(S, "fro")
        assert la.norm(sp.plus + sp.minus - S, "fro") <= 1e-10 * max(nrm, 1e-300)
        assert is_psd(sp.plus - S, tol=1e-10 * max(1, nrm))
        assert is_psd(-sp.minus, tol=1e-10 * max(1, nrm))
        assert is_psd(sp.plus, tol=1e-10 * max(1, nrm))


def test_is_psd_examples():
    assert is_psd(np.eye(2), tol=0.0)
    assert not is_psd(np.diag([1.0, -1e-6]), tol=1e-8)
    assert is_psd(np.diag([1.0, -1e-9]), tol=1e-8)


def test_gen_eig_max_examples():
    assert gen_eig_max(np.diag([2.0, 1.0])[None], np.eye(2))[0] == pytest.approx(2.0)
    assert gen_eig_max(np.diag([2.0, 3.0])[None], np.diag([2.0, 1.0]))[0] == pytest.approx(3.0)


def test_gen_eig_max_tightness_and_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        X = rng.normal(size=(4, 4))
        rhs = X @ X.T + 0.5 * np.eye(4)
        lhs = symmetrize(rng.normal(size=(4, 4)))
        lam = gen_eig_max(lhs[None], rhs)[0]
        # dense generalized eigensolver as the independent oracle
        lam_ref = float(np.max(scipy.linalg.eigh(lhs, rhs, eigvals_only=True)))
        assert lam == pytest.approx(lam_ref, rel=1e-9, abs=1e-11)
        scale = max(la.norm(lhs, 2), 1e-12)
        w = la.eigvalsh(lam * rhs - lhs)
        assert w.min() >= -1e-9 * scale  # domination
        eps = 1e-6 * max(abs(lam), 1e-6)
        w_below = la.eigvalsh((lam - eps) * rhs - lhs)
        assert w_below.min() < 0  # tightness


def test_gen_eig_max_singular_rhs():
    with pytest.raises(SingularPencilError):
        gen_eig_max(np.eye(2)[None], np.diag([1.0, 0.0]))


def test_kron_vec_identity():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(3, 3))
    X = rng.normal(size=(3, 3))
    lhs = vec(M.T @ X @ M)
    rhs = np.kron(M.T, M.T) @ vec(X)
    assert la.norm(lhs - rhs) < 1e-12

"""Problem-instance data model.

Holds the nominal and true plants, the multiplicative-noise directions and
variances, the relative uncertainty magnitudes, perturbation boxes, and the
quadratic cost pair. All types are immutable value objects in spirit; do not
mutate the stored arrays.

Direction ordering is frozen across the whole package: state-matrix
directions first, then input-matrix directions. Margin vectors, variance
vectors and uncertainty weights all index in that order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .matops import is_psd, symmetrize

__all__ = [
    "NominalSystem",
    "TrueSystem",
    "NoiseModel",
    "UncertaintyStructure",
    "PerturbationBox",
    "CostPair",
    "closed_loop_substitution",
]

#: A noise or perturbation direction together with its variance.
DirList = list[tuple[np.ndarray, float]]


def _as_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d array, got ndim={M.ndim}")
    return M


@dataclass
class NominalSystem:
    """Known nominal plant x_{t+1} = A x_t + B u_t."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.A = _as_matrix(self.A, "A")
        self.B = _as_matrix(self.B, "B")
        if self.A.shape[0] != self.A.shape[1]:
            raise DimensionError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != self.A.shape[0]:
            raise DimensionError(
                f"B has {self.B.shape[0]} rows but A is {self.A.shape[0]}x"
                f"{self.A.shape[1]}"
            )
        if self.n < 1 or self.m < 1:
            raise DimensionError("state and input dimensions must be >= 1")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass
class TrueSystem:
    """Unknown true plant, used only to evaluate a design after the fact."""

    A_bar: np.ndarray
    B_bar: np.ndarray

    def __post_init__(self):
        self.A_bar = _as_matrix(self.A_bar, "A_bar")
        self.B_bar = _as_matrix(self.B_bar, "B_bar")
        if self.A_bar.shape[0] != self.A_bar.shape[1]:
            raise DimensionError(f"A_bar must be square, got {self.A_bar.shape}")
        if self.B_bar.shape[0] != self.A_bar.shape[0]:
            raise DimensionError("A_bar and B_bar row counts differ")


@dataclass
class NoiseModel:
    """Multiplicative-noise directions and variances.

    ``a_dirs`` carries pairs (A_i, alpha_i) of n x n direction matrices and
    finite nonnegative variances; ``b_dirs`` carries (B_j, beta_j) with
    n x m directions. Any other variance raises ``ValueError`` naming it.
    The number of state directions is limited by the entry count of the
    dynamics matrix (p <= n^2).
    """

    a_dirs: DirList = field(default_factory=list)
    b_dirs: DirList = field(default_factory=list)

    def __post_init__(self):
        self.a_dirs = [
            (_as_matrix(D, f"a_dirs[{i}]"), float(v))
            for i, (D, v) in enumerate(self.a_dirs)
        ]
        self.b_dirs = [
            (_as_matrix(D, f"b_dirs[{j}]"), float(v))
            for j, (D, v) in enumerate(self.b_dirs)
        ]
        n = None
        for i, (D, v) in enumerate(self.a_dirs):
            if D.shape[0] != D.shape[1]:
                raise DimensionError(f"a_dirs[{i}] must be square, got {D.shape}")
            n = D.shape[0] if n is None else n
            if D.shape[0] != n:
                raise DimensionError("a_dirs matrices have mixed dimensions")
            if not 0.0 <= v < math.inf:  # NaN fails this too
                raise ValueError(
                    f"alpha[{i}] must be finite and nonnegative, got {v}")
        for j, (D, v) in enumerate(self.b_dirs):
            if n is not None and D.shape[0] != n:
                raise DimensionError("b_dirs row count differs from a_dirs")
            if not 0.0 <= v < math.inf:  # NaN fails this too
                raise ValueError(
                    f"beta[{j}] must be finite and nonnegative, got {v}")
        if n is not None and self.p > n * n:
            raise ValueError(
                f"too many state-matrix directions: {self.p} > n^2 = {n * n}"
            )

    @property
    def p(self) -> int:
        return len(self.a_dirs)

    @property
    def q(self) -> int:
        return len(self.b_dirs)

    def with_variances(self, alpha, beta) -> "NoiseModel":
        """Copy of this model with the variances replaced."""
        alpha = np.asarray(alpha, dtype=float)
        beta = np.asarray(beta, dtype=float)
        if alpha.shape != (self.p,) or beta.shape != (self.q,):
            raise DimensionError("variance vector lengths do not match model")
        return NoiseModel(
            a_dirs=[(D, float(a)) for (D, _), a in zip(self.a_dirs, alpha)],
            b_dirs=[(D, float(b)) for (D, _), b in zip(self.b_dirs, beta)],
        )


@dataclass
class UncertaintyStructure:
    """Relative uncertainty magnitudes per direction.

    ``theta`` weights the state-matrix directions (strictly positive) and
    ``phi`` the input-matrix directions (nonnegative). The joint vector is
    normalized to sum to one on construction, so callers may pass ratios.
    """

    theta: np.ndarray
    phi: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        self.phi = np.atleast_1d(np.asarray(self.phi, dtype=float)) \
            if np.size(self.phi) else np.zeros(0)
        if np.any(self.theta <= 0):
            raise ValueError("theta entries must be strictly positive")
        if np.any(self.phi < 0):
            raise ValueError("phi entries must be nonnegative")
        total = float(self.theta.sum() + self.phi.sum())
        if not np.isfinite(total) or total <= 0:
            raise ValueError("uncertainty weights must have a positive sum")
        self.theta = self.theta / total
        self.phi = self.phi / total

    @property
    def p(self) -> int:
        return self.theta.size

    @property
    def q(self) -> int:
        return self.phi.size

    @property
    def weights(self) -> np.ndarray:
        """Joint weight vector, state directions first; sums to one."""
        return np.concatenate([self.theta, self.phi])


@dataclass
class PerturbationBox:
    """Certified margin box: per-direction bounds on constant perturbation
    coefficients, one-sided [0, eta_i) or two-sided (-eta_i, eta_i)."""

    eta: np.ndarray
    psi: np.ndarray
    bidirectional: bool

    def __post_init__(self):
        self.eta = np.atleast_1d(np.asarray(self.eta, dtype=float)) \
            if np.size(self.eta) else np.zeros(0)
        self.psi = np.atleast_1d(np.asarray(self.psi, dtype=float)) \
            if np.size(self.psi) else np.zeros(0)
        allb = np.concatenate([self.eta, self.psi])
        if allb.size and (np.any(~np.isfinite(allb)) or np.any(allb < 0)):
            raise ValueError("box bounds must be finite and nonnegative")
        self.bidirectional = bool(self.bidirectional)

    @property
    def bounds(self) -> np.ndarray:
        return np.concatenate([self.eta, self.psi])


@dataclass
class CostPair:
    """LQR cost matrices: Q positive semidefinite, R positive definite."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        self.Q = _as_matrix(self.Q, "Q")
        self.R = _as_matrix(self.R, "R")
        for name, M in (("Q", self.Q), ("R", self.R)):
            if M.shape[0] != M.shape[1]:
                raise DimensionError(f"{name} must be square, got {M.shape}")
            if np.max(np.abs(M - M.T)) > 1e-12 * max(1.0, np.max(np.abs(M))):
                raise ValueError(f"{name} must be symmetric")
        self.Q = symmetrize(self.Q)
        self.R = symmetrize(self.R)
        if not is_psd(self.Q):
            raise ValueError("Q must be positive semidefinite")
        if not np.linalg.eigvalsh(self.R)[0] > 0.0:
            raise ValueError("R must be positive definite")


def _check_options(opts, rules: dict) -> None:
    """Raise ``ValueError`` naming ``<Class>.<field>`` at the first field of
    the options ``opts`` that breaks its rule: ``">= 0"`` or ``"> 0"`` for a
    finite real number, an int k for an integer >= k; a bool is neither. A
    NaN or negative tolerance or a cap below one iteration lets no solve or
    bisection end as asked, and an infinite tolerance accepts any iterate."""
    for name, rule in rules.items():
        x = getattr(opts, name)
        if isinstance(rule, int):
            need = f"an integer >= {rule}"
            ok = isinstance(x, numbers.Integral) and x >= rule
        else:
            need = f"finite and {rule}"
            ok = isinstance(x, numbers.Real) and (
                0 < x < math.inf if rule == "> 0" else 0 <= x < math.inf)
        if isinstance(x, bool) or not ok:
            raise ValueError(
                f"{type(opts).__name__}.{name} must be {need}, got {x!r}")


def _check_dir_shapes(sys: NominalSystem, noise: NoiseModel) -> None:
    """Directions are n x n (state) and n x m (input); NoiseModel lacks B."""
    for name, dirs, m in (("a_dirs", noise.a_dirs, sys.n),
                          ("b_dirs", noise.b_dirs, sys.m)):
        for i, (D, _) in enumerate(dirs):
            if D.shape != (sys.n, m):
                raise DimensionError(f"{name}[{i}] shape {D.shape} != ({sys.n},{m})")


def _check_cost_shapes(sys: NominalSystem, costs: CostPair) -> None:
    """Q is n x n and R is m x m; CostPair lacks the plant."""
    for name, M, k in (("Q", costs.Q, sys.n), ("R", costs.R, sys.m)):
        if M.shape != (k, k):
            raise DimensionError(
                f"{name} must be {k}x{k} to match the plant, got shape "
                f"{M.shape}")


def _check_true_shapes(sys: NominalSystem,
                       true_system: TrueSystem | None) -> None:
    """A_bar and B_bar have the shapes of A and B; TrueSystem lacks the
    nominal plant. None passes."""
    if true_system is None:
        return
    for name, M, shape in (("A_bar", true_system.A_bar, sys.A.shape),
                           ("B_bar", true_system.B_bar, sys.B.shape)):
        if M.shape != shape:
            raise DimensionError(
                f"{name} must be {shape[0]}x{shape[1]} to match the plant, "
                f"got shape {M.shape}")


def closed_loop_substitution(
    sys: NominalSystem, noise: NoiseModel, K
) -> tuple[np.ndarray, DirList]:
    """Close the loop u = K x and fold input uncertainty into state form.

    Returns ``A + B K`` together with the combined direction list
    ``[(A_1, alpha_1), ..., (A_p, alpha_p), (B_1 K, beta_1), ...]``; the
    state directions always come first.
    """
    K = np.asarray(K, dtype=float)
    if K.shape != (sys.m, sys.n):
        raise DimensionError(
            f"gain must be {sys.m}x{sys.n}, got {K.shape}"
        )
    _check_dir_shapes(sys, noise)
    A_cl = sys.A + sys.B @ K
    dirs = [(D, v) for (D, v) in noise.a_dirs]
    dirs += [(D @ K, v) for (D, v) in noise.b_dirs]
    return A_cl, dirs


def _closed_loop_stack(A_cl, dirs: DirList) -> np.ndarray:
    """The closed loop and its directions as one (p + 1, n, n) float stack,
    A_cl first, after checking that A_cl is square and that every direction
    has its shape; a mis-shaped direction would otherwise broadcast
    against A_cl, or be read at the wrong entries, silently."""
    A_cl = np.asarray(A_cl, dtype=float)
    if A_cl.ndim != 2 or A_cl.shape[0] != A_cl.shape[1]:
        raise DimensionError(f"A_cl must be square, got shape {A_cl.shape}")
    mats = [A_cl]
    for i, (D, _) in enumerate(dirs):
        D = np.asarray(D, dtype=float)
        if D.shape != A_cl.shape:
            raise DimensionError(
                f"direction {i} has shape {D.shape}, A_cl has {A_cl.shape}"
            )
        mats.append(D)
    return np.stack(mats)

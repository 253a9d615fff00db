"""Empirical validation of certificates.

Grid search sweeps the certified perturbation box and reports the worst
spectral radius found, eigen-solving only the points that a rigorous bound
on the radius cannot rule out; exact second-moment propagation and a
seeded Monte Carlo simulation cross-check the mean-square stability
verdicts. The exact covariance recursion is the primary verification path;
trajectory sampling exists for demonstration and statistical sanity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.linalg as la

from .errors import DimensionError, GridSizeError
from .matops import is_psd, symmetrize
from .model import DirList, PerturbationBox

__all__ = [
    "GridReport",
    "MonteCarloConfig",
    "MomentHistory",
    "grid_verify",
    "simulate_second_moment",
    "MAX_GRID_POINTS",
]

MAX_GRID_POINTS = 10_000_000

#: Shrink factor keeping grid points strictly inside the open box.
_INTERIOR = 1.0 - 1e-9

#: The grid sweep builds the closed loops of _CHUNK points per product, as
#: a full sweep does; bounds and solves them in blocks of _BLOCK_ENTRIES
#: matrix entries, taking each block's largest bound as a seed; squares
#: _SQUARINGS times in the radius bound (rho(M) <= ||M^64||^(1/64)); and
#: rules a point out when its bound is below the seed radius less the
#: relative _SLACK.
_CHUNK = 65536
_BLOCK_ENTRIES = 32768
_SQUARINGS = 6
_SLACK = 1e-6

#: Monte Carlo trials simulated per block.
_MC_BLOCK = 1024


@dataclass
class GridReport:
    """Worst case found on a tensor grid over a perturbation box.

    ``eigensolves`` counts the grid points whose spectrum was computed; the
    others were ruled out by an upper bound on their spectral radius.
    """

    samples: int
    worst_rho: float
    worst_mu: np.ndarray
    all_stable: bool
    eigensolves: int


@dataclass
class MonteCarloConfig:
    """Trajectory-sampling configuration.

    The noise law only needs to be zero-mean with the modeled variances;
    mean-square stability does not depend on the distribution beyond that,
    so the law is configurable. ``seed`` feeds a PCG64 generator through
    per-trial spawned streams, making reports reproducible across platforms
    and independent of trial execution order.
    """

    horizon: int
    trials: int
    seed: int
    noise_law: str = "gaussian"

    def __post_init__(self):
        for name, least in (("horizon", 1), ("trials", 1), ("seed", 0)):
            value = getattr(self, name)
            if (not isinstance(value, (int, np.integer))
                    or isinstance(value, bool)):
                raise ValueError(
                    f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if self.noise_law not in ("gaussian", "rademacher"):
            raise ValueError(
                f"unknown noise law {self.noise_law!r}; "
                "expected 'gaussian' or 'rademacher'"
            )


@dataclass
class MomentHistory:
    """Second-moment trajectories: Monte Carlo estimate and the exact
    covariance recursion, both of shape (horizon + 1, n, n)."""

    empirical: np.ndarray
    exact: np.ndarray


def _grid_axes(box: PerturbationBox, samples_per_dir: int) -> list[np.ndarray]:
    axes = []
    for b in box.bounds:
        if b == 0.0:
            axes.append(np.zeros(1))
        elif box.bidirectional:
            axes.append(np.linspace(-b, b, samples_per_dir) * _INTERIOR)
        else:
            axes.append(np.linspace(0.0, b, samples_per_dir) * _INTERIOR)
    return axes


def _direction_stack(A_cl: np.ndarray, dirs: DirList) -> np.ndarray:
    # the directions as one (p, n, n) stack; a mis-shaped direction would
    # otherwise broadcast against A_cl silently
    if A_cl.ndim != 2 or A_cl.shape[0] != A_cl.shape[1]:
        raise DimensionError(f"A_cl must be square, got shape {A_cl.shape}")
    mats = []
    for i, (D, _) in enumerate(dirs):
        D = np.asarray(D, dtype=float)
        if D.shape != A_cl.shape:
            raise DimensionError(
                f"direction {i} has shape {D.shape}, A_cl has {A_cl.shape}"
            )
        mats.append(D)
    return np.stack(mats) if mats else np.zeros((0,) + A_cl.shape)


def _radius_bounds(mats: np.ndarray) -> np.ndarray:
    """Upper bounds on the spectral radii of a stack of n x n matrices, from
    Gelfand's bound rho(M) = s rho(N) <= s ||N^m||_F^(1/m), where N = M/s,
    s = ||M||_F as computed, and m = 2^_SQUARINGS.

    N has norm about 1, so its powers cannot overflow. They are formed by
    squarings X_j+1 = fl(X_j X_j) from X_0 = fl(M/s), and ``err`` carries a
    bound on ||X_j - N^(2^j)||_F. A dot product of length n rounds by at
    most gamma_n = nu/(1 - nu) times the sum of its absolute products, in
    any order and with or without FMA, plus 2n tiny where the products
    reach the subnormal range (flushed to zero or not). With nrm_j >=
    ||X_j||_F and T_j = N^(2^j), so that ||T_j||_F <= nrm_j + err_j:

        ||X_0 - N||_F   <= gamma_1 nrm_0 + 2n tiny
        ||X_j+1 - T_j+1||_F = ||X_j (X_j - T_j) + (X_j - T_j) T_j + E_j||_F
                        <= (2 nrm_j + err_j) err_j + gamma_n nrm_j^2
                           + 2n^2 tiny.

    ``nrm_j`` is the computed norm raised by its own rounding:
    gamma_(n^2+2) relative, plus n sqrt(tiny) for squares that underflow.
    So rho(M) <= s (nrm_k + err_k)^(1/m) for the exact radius, up to the
    few roundings of evaluating that expression, which the caller's slack
    covers. Cancellation in the squarings, as in non-normal or nearly
    nilpotent blocks, is relative to ||X_j||^2 rather than to the power, so
    no relative slack could cover it; it lands in ``err`` instead. A power
    that underflows leaves only the error terms, and the bound stays above
    the radius. A norm that overflows or underflows gives an inf or NaN
    bound, and the caller solves such points.
    """
    n = mats.shape[-1]
    u, tiny = np.finfo(float).eps / 2, np.finfo(float).tiny

    def gamma(k):
        return k * u / (1.0 - k * u)

    def norm(X):
        frob = np.sqrt(np.einsum("kij,kij->k", X, X))
        return (1.0 + gamma(n * n + 2)) * frob + n * np.sqrt(tiny)

    with np.errstate(all="ignore"):
        s = np.sqrt(np.einsum("kij,kij->k", mats, mats))
        X = mats / s[:, None, None]
        nrm = norm(X)
        err = gamma(1) * nrm + 2 * n * tiny
        for _ in range(_SQUARINGS):
            err = ((2.0 * nrm + err) * err + gamma(n) * nrm * nrm
                   + 2 * n * n * tiny)
            X = X @ X
            nrm = norm(X)
        return s * (nrm + err) ** (1.0 / 2 ** _SQUARINGS)


def grid_verify(
    A_cl, dirs: DirList, box: PerturbationBox, samples_per_dir: int
) -> GridReport:
    """Sweep a tensor grid over the box and report the worst spectral
    radius of the perturbed closed loop.

    Zero-margin directions contribute the single point 0. Grids beyond
    ``MAX_GRID_POINTS`` are rejected; use fewer samples per direction.

    The sweep bounds before it solves. Every point gets a rigorous upper
    bound on its spectral radius (``_radius_bounds``); the point of largest
    bound in each block of ``_BLOCK_ENTRIES`` matrix entries is eigen-solved,
    and the largest of these radii is the seed. Only points whose bound is not below the
    seed, less the relative ``_SLACK``, are eigen-solved after that. A point
    left out has an exact radius below the seed, hence below the maximum,
    so the report equals that of solving every point, bit for bit: each
    matrix is built as in a full sweep, and LAPACK solves the matrices one
    by one. This rests on the eigensolver erring by less than the slack at
    the points left out (see the threshold below).
    """
    A_cl = np.asarray(A_cl, dtype=float)
    if samples_per_dir < 2:
        raise ValueError("samples_per_dir must be >= 2")
    if box.bounds.size != len(dirs):
        raise DimensionError(
            f"box has {box.bounds.size} entries for {len(dirs)} directions"
        )
    D = _direction_stack(A_cl, dirs)
    axes = _grid_axes(box, samples_per_dir)
    shape = tuple(ax.size for ax in axes)
    total = math.prod(shape)
    if total > MAX_GRID_POINTS:
        raise GridSizeError(
            f"grid of {total} points exceeds {MAX_GRID_POINTS}; "
            "reduce samples_per_dir"
        )
    if len(dirs) == 0:
        rho = float(np.max(np.abs(la.eigvals(A_cl))))
        return GridReport(samples=1, worst_rho=rho, worst_mu=np.zeros(0),
                          all_stable=rho < 1.0, eigensolves=1)

    # bound and solve blocks stay at a fixed size in memory whatever n is
    step = max(1, _BLOCK_ENTRIES // A_cl.size)

    def blocks(needed=None):
        # (first flat index, points, closed loops) of each block, in grid
        # order. Blocks are cut from chunks built in one product each, as a
        # full sweep builds them; a chunk in which ``needed`` marks no point
        # is skipped.
        for start in range(0, total, _CHUNK):
            stop = min(start + _CHUNK, total)
            if needed is not None and not needed[start:stop].any():
                continue
            flat = np.arange(start, stop)
            mu = np.stack([ax[i] for ax, i in
                           zip(axes, np.unravel_index(flat, shape))], axis=1)
            mats = np.tensordot(mu, D, axes=(1, 0))
            mats += A_cl
            for b in range(0, stop - start, step):
                yield start + b, mu[b:b + step], mats[b:b + step]

    bound = np.empty(total)
    seeds, seed_mats = [], []
    for first, _, mats in blocks():
        ub = bound[first:first + len(mats)] = _radius_bounds(mats)
        # argmax takes a NaN bound first, which must be solved anyway
        top = int(np.argmax(ub))
        seeds.append(first + top)
        seed_mats.append(mats[top].copy())
    del mats  # a view that would keep its chunk alive through the solves
    seed_rho = np.abs(la.eigvals(np.stack(seed_mats))).max()
    # ``err`` covers the rounding in the squarings; the slack covers the
    # rest: evaluating err, the root and the product rounds a bound by at
    # most about (2 _SQUARINGS + 6) u relative, some 1e-15, far below 1e-6.
    # So a point left out has an exact radius below the seed. Its
    # eigensolver value could still pass the seed only if the solver erred
    # there by more than the slack, which a backward stable solver does
    # only at eigenvalues of condition number about 1e-6 / (n u), some 1e9,
    # or more. The seeds are solved again with the survivors, so the
    # maximum found never drops below the seed.
    solve = ~(bound < seed_rho * (1.0 - _SLACK))
    solve[seeds] = True

    worst = -np.inf
    worst_mu = None
    for first, mu, mats in blocks(solve):
        pick = solve[first:first + len(mats)]
        if not pick.any():
            continue
        rho = np.abs(la.eigvals(mats[pick])).max(axis=1)
        idx = int(np.argmax(rho))
        if rho[idx] > worst:
            worst = float(rho[idx])
            worst_mu = mu[pick][idx]
    return GridReport(
        samples=total,
        worst_rho=worst,
        worst_mu=worst_mu,
        all_stable=worst < 1.0,
        eigensolves=int(np.count_nonzero(solve)),
    )


def _psd_sqrt(S: np.ndarray) -> np.ndarray:
    w, V = la.eigh(symmetrize(S))
    return V * np.sqrt(np.clip(w, 0.0, None))


def exact_moment_recursion(
    A_cl, dirs: DirList, sigma0, steps: int
) -> np.ndarray:
    """Propagate the state covariance exactly:
    Sigma_{t+1} = A_cl Sigma_t A_cl^T + sum_k alpha_k D_k Sigma_t D_k^T."""
    A_cl = np.asarray(A_cl, dtype=float)
    n = A_cl.shape[0]
    out = np.zeros((steps + 1, n, n))
    out[0] = symmetrize(sigma0)
    for t in range(steps):
        S = A_cl @ out[t] @ A_cl.T
        for D, a in dirs:
            if a != 0.0:
                D = np.asarray(D, dtype=float)
                S += a * (D @ out[t] @ D.T)
        out[t + 1] = symmetrize(S)
    return out


def _trial_generator(seed: int, trial: int) -> np.random.Generator:
    """The generator of one trial: the child ``trial`` of
    ``SeedSequence(seed).spawn``, built without the children before it."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(trial,))))


def simulate_second_moment(
    A_cl, dirs: DirList, cfg: MonteCarloConfig, x0_cov
) -> MomentHistory:
    """Monte Carlo estimate of E[x_t x_t^T] alongside the exact recursion.

    Initial states are Gaussian with covariance ``x0_cov`` regardless of
    the noise law. Each trial draws from its own spawned stream (initial
    state first, then the horizon-by-direction noise block), so results do
    not depend on how trials are scheduled.
    """
    A_cl = np.asarray(A_cl, dtype=float)
    D = _direction_stack(A_cl, dirs)
    for i, (_, v) in enumerate(dirs):
        if not (np.isfinite(v) and v >= 0.0):
            raise ValueError(
                f"direction {i} has variance {v}; variances must be finite "
                "and >= 0"
            )
    n = A_cl.shape[0]
    x0_cov = symmetrize(x0_cov)
    if x0_cov.shape != (n, n):
        raise DimensionError(f"x0_cov must be {n}x{n}, got {x0_cov.shape}")
    if not np.all(np.isfinite(x0_cov)):
        raise ValueError("x0_cov must be finite")
    if not is_psd(x0_cov):
        raise ValueError("x0_cov must be positive semidefinite")
    k = len(dirs)
    stds = np.sqrt(np.array([v for _, v in dirs])) if k else np.zeros(0)
    Lx = _psd_sqrt(x0_cov)
    gaussian = cfg.noise_law == "gaussian"

    # One product per step: the states of a block are the columns of X; the
    # first n rows of W X are A_cl X, and the j-th n rows after them D_j X.
    # Trials run in blocks of _MC_BLOCK, each building its own streams, so
    # memory does not grow with the trial count; the sums of x x^T are
    # divided once at the end.
    W = np.concatenate([A_cl[None], D]).reshape((k + 1) * n, n)
    size = min(cfg.trials, _MC_BLOCK)
    Z = np.empty((size, n))
    noise = np.empty((size, cfg.horizon, k))
    sums = np.zeros((cfg.horizon + 1, n, n))
    for start in range(0, cfg.trials, _MC_BLOCK):
        b = min(_MC_BLOCK, cfg.trials - start)
        for i in range(b):
            rng = _trial_generator(cfg.seed, start + i)
            rng.standard_normal(out=Z[i])
            if k:
                if gaussian:
                    rng.standard_normal(out=noise[i])
                else:
                    noise[i] = rng.integers(0, 2, size=(cfg.horizon, k))
        # gamma[t, j] holds the noise of direction j at step t per trial
        gamma = np.ascontiguousarray(noise[:b].transpose(1, 2, 0))
        if not gaussian:
            gamma *= 2.0
            gamma -= 1.0
        gamma *= stds[:, None]
        X = Lx @ Z[:b].T
        sums[0] += X @ X.T
        for t in range(cfg.horizon):
            Y = W @ X
            X = Y[:n]
            for j in range(k):
                X += gamma[t, j] * Y[(j + 1) * n:(j + 2) * n]
            sums[t + 1] += X @ X.T

    exact = exact_moment_recursion(A_cl, dirs, x0_cov, cfg.horizon)
    return MomentHistory(empirical=sums / cfg.trials, exact=exact)

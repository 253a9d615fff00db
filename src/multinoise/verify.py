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
from .model import (DirList, PerturbationBox, _check_options,
                    _closed_loop_stack)

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

#: The grid sweep takes its seed radius from eigensolves on a coarse
#: sub-grid of about _SEED_POINTS points, the box's vertices among them;
#: builds the closed loops of _CHUNK points per product, as a full sweep
#: does; bounds and solves them in blocks of _BLOCK_ENTRIES matrix entries,
#: squaring up to _SQUARINGS times in the radius bound (rho(M) <=
#: ||M^256||^(1/256)); and rules a point out at the first level whose bound
#: is below the seed radius less the relative _SLACK.
_SEED_POINTS = 16
_CHUNK = 65536
_BLOCK_ENTRIES = 32768
_SQUARINGS = 8
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
        _check_options(self, {"horizon": 1, "trials": 1, "seed": 0})
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


def _sub_grid(shape: tuple[int, ...]) -> np.ndarray:
    """Sorted flat indices of a coarse sub-grid of a grid of this shape,
    of about _SEED_POINTS points: evenly spaced indices, both ends among
    them, on each of the first log2(_SEED_POINTS) axes, and the far end
    alone on any further axis. On a box of up to that many directions it
    holds every vertex, and it stays small however many there are."""
    spread = min(len(shape), int(math.log2(_SEED_POINTS)))
    per_axis = max(2, round(_SEED_POINTS ** (1 / spread)))
    picks = [np.linspace(s - 1, 0, per_axis if i < spread else 1)
             for i, s in enumerate(shape)]
    mesh = np.meshgrid(*(np.unique(ix.round().astype(int)) for ix in picks),
                       indexing="ij")
    return np.ravel_multi_index(mesh, shape).ravel()


def _survivors(mats: np.ndarray, floor: float) -> np.ndarray:
    """Indices, in order, of the n x n matrices in a stack whose spectral
    radius Gelfand's bound cannot place below ``floor``, at any of the
    levels rho(M) <= ||M^(2^j)||_F^(2^-j),
    j = 0 .. _SQUARINGS. A matrix is dropped at the first level whose bound
    is below its floor, and only the others are squared again.

    The powers are formed by squarings, each followed by a rescaling by an
    exact power of two. The stack is first scaled by 2^-b, b the binary
    exponent of its largest entry, so that no norm overflows. At level j,
    P_j is the computed square of X_j-1 (P_0 = fl(M 2^-b)), a_j is the
    binary exponent of its computed Frobenius norm, and X_j = P_j 2^-a_j
    has a norm near [1/2, 1), so the next squaring neither overflows nor
    underflows. X_j approximates T_j = M^(2^j) 2^-c_j, with c_0 = b + a_0
    and c_j = 2 c_j-1 + a_j. Scaling by a power of two changes only a
    number's exponent, so it is exact unless the result leaves the normal
    range. Here it cannot overflow; an entry pushed into the subnormal
    range rounds by at most 2^-1075, so n tiny in norm covers a whole
    matrix. Norms scale exactly with the matrix, so the rounding analysis
    is that of unscaled squarings, level by level.

    ``err`` carries a bound on ||X_j - T_j||_F. A dot product of length n
    rounds by at most gamma_n = nu/(1 - nu) times the sum of its absolute
    products, in any order and with or without FMA, plus 2n tiny where the
    products reach the subnormal range (flushed to zero or not). ``nrm_j``
    bounds ||X_j||_F: the computed norm of P_j raised by its own rounding,
    gamma_(n^2+2) relative plus n sqrt(tiny) for squares that underflow,
    then scaled, plus n tiny for the rescaling. So ||T_j||_F <= nrm_j +
    err_j, and

        ||X_0 - T_0||_F     <= (n tiny) 2^-a_0 + n tiny
        ||X_j+1 - T_j+1||_F <= ((2 nrm_j + err_j) err_j + gamma_n nrm_j^2
                                + 2n^2 tiny) 2^-a_j+1 + n tiny.

    A bound taken at any level is valid on its own: rho(M)^(2^j) =
    rho(M^(2^j)) <= ||M^(2^j)||_F = 2^c_j ||T_j||_F, so rho(M) <=
    2^(c_j/2^j) (nrm_j + err_j)^(2^-j) for the exact radius. It is compared
    with the floor in base-2 logarithms, c_j + log2(nrm_j + err_j) against
    2^j log2(floor), which moves the bound by some u |log2 rho| relative,
    about 1e-13 at worst, and the caller's slack covers that. Cancellation
    in the squarings, as in non-normal or nearly nilpotent blocks, is
    relative to ||X_j||^2 rather than to the power, so no relative slack
    could cover it, and rescaling does not remove it; it lands in ``err``
    instead. A power that vanishes leaves only the error terms, and the
    bound stays above the radius. A non-finite matrix gives an inf or NaN
    bound, and such matrices are kept.
    """
    n = mats.shape[-1]
    u, tiny = np.finfo(float).eps / 2, np.finfo(float).tiny
    keep_all = np.arange(len(mats))

    def gamma(k):
        return k * u / (1.0 - k * u)

    with np.errstate(all="ignore"):
        _, b = np.frexp(np.abs(mats).max())
        X = np.ldexp(mats, -b)
        c = np.full(len(mats), float(b))
        err = np.full(len(mats), n * tiny)
        log_floor = np.log2(floor)
        for j in range(_SQUARINGS + 1):
            if j:
                err = ((2.0 * nrm + err) * err + gamma(n) * nrm * nrm
                       + 2 * n * n * tiny)
                X = X @ X
                c *= 2.0
            frob = np.sqrt(np.einsum("kij,kij->k", X, X))
            nrm = (1.0 + gamma(n * n + 2)) * frob + n * np.sqrt(tiny)
            _, a = np.frexp(nrm)
            np.ldexp(X, -a[:, None, None], out=X)
            nrm = np.ldexp(nrm, -a) + n * tiny
            err = np.ldexp(err, -a) + n * tiny
            c += a
            # the bound is below the floor: 2^j log2 of each side
            keep = ~(c + np.log2(nrm + err) < 2 ** j * log_floor)
            if not keep.all():
                X, nrm, err, c, keep_all = (
                    v[keep] for v in (X, nrm, err, c, keep_all))
                if not keep_all.size:
                    break
        return keep_all


def grid_verify(
    A_cl, dirs: DirList, box: PerturbationBox, samples_per_dir: int
) -> GridReport:
    """Sweep a tensor grid over the box and report the worst spectral
    radius of the perturbed closed loop.

    Zero-margin directions contribute the single point 0. Grids beyond
    ``MAX_GRID_POINTS`` are rejected; use fewer samples per direction.

    The sweep bounds before it solves. The seed radius comes first: the
    largest radius that the eigensolver returns on a coarse sub-grid that
    includes the box's vertices (``_sub_grid``). It is a radius returned at
    a grid matrix, built as the sweep builds it, so it is at most the
    maximum that a full sweep finds. Every point then gets rigorous upper
    bounds on its spectral radius (``_survivors``), squaring after
    squaring, and is eigen-solved only if none of them is below the seed,
    less the relative ``_SLACK``. A point left out has an exact radius
    below the seed, hence below the maximum, so the report equals that of
    solving every point, bit for bit: each matrix is built as in a full
    sweep, and LAPACK solves the matrices one by one. This rests on the
    eigensolver erring by less than the slack at the points left out (see
    the threshold below).
    """
    if samples_per_dir < 2:
        raise ValueError("samples_per_dir must be >= 2")
    if box.bounds.size != len(dirs):
        raise DimensionError(
            f"box has {box.bounds.size} entries for {len(dirs)} directions"
        )
    W = _closed_loop_stack(A_cl, dirs)
    A_cl, D = W[0], W[1:]
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

    def build(flat):
        # the grid points at these flat indices and their closed loops,
        # formed in one product as a full sweep forms them
        mu = np.stack([ax[i] for ax, i in
                       zip(axes, np.unravel_index(flat, shape))], axis=1)
        mats = np.tensordot(mu, D, axes=(1, 0))
        mats += A_cl
        return mu, mats

    coarse = _sub_grid(shape)
    seed_rho, seed_at = -np.inf, 0
    for b in range(0, coarse.size, step):
        rho = np.abs(la.eigvals(build(coarse[b:b + step])[1])).max(axis=1)
        top = int(np.argmax(rho))
        if rho[top] > seed_rho:
            seed_rho, seed_at = rho[top], int(coarse[b + top])
    # ``err`` covers the rounding in the squarings; the slack covers the
    # rest: evaluating nrm, err and the logarithms of the comparison moves
    # a bound by at most some 1e-13 relative, far below 1e-6. So a point
    # left out has an exact radius below the seed. Its eigensolver value
    # could still pass the seed only if the solver erred there by more than
    # the slack, which a backward stable solver does only at eigenvalues of
    # condition number about 1e-6 / (n u), some 1e9, or more. The seed's
    # point is solved again with the survivors, so the maximum found never
    # drops below the seed.
    floor = seed_rho * (1.0 - _SLACK)

    worst = -np.inf
    worst_mu = None
    solved = 0
    for start in range(0, total, _CHUNK):
        mu, mats = build(np.arange(start, min(start + _CHUNK, total)))
        for b in range(0, len(mats), step):
            # the block's grid points are start + b <= i < start + stop
            stop = min(b + step, len(mats))
            pick = b + _survivors(mats[b:stop], floor)
            if b <= seed_at - start < stop:
                pick = np.union1d(pick, seed_at - start)
            if not pick.size:
                continue
            rho = np.abs(la.eigvals(mats[pick])).max(axis=1)
            # a sub-grid point solved again counts once
            lo, hi = np.searchsorted(coarse, (start + b, start + stop))
            solved += pick.size - np.isin(coarse[lo:hi] - start, pick).sum()
            idx = int(np.argmax(rho))
            if rho[idx] > worst:
                worst = float(rho[idx])
                worst_mu = mu[pick[idx]].copy()
    return GridReport(
        samples=total,
        worst_rho=worst,
        worst_mu=worst_mu,
        all_stable=worst < 1.0,
        eigensolves=int(solved) + coarse.size,
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


#: Constants of numpy's SeedSequence hash (NEP 19 fixes its streams) and
#: the PCG64 multiplier, for deriving the trials' streams in bulk. The
#: hash's two steps follow, as numpy writes them (hashmix and mix), on
#: Python integers or numpy uint32 arrays alike.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def _hashmix(value, const, mult=_MULT_A):
    value = (value ^ const) & _M32
    const = const * mult & _M32
    value = value * const & _M32
    return value ^ value >> 16, const


def _mix(x, y):
    r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return r ^ r >> 16


def _trial_streams(seed: int, start: int, stop: int):
    """Yield one generator, set in turn to the streams of trials start ..
    stop - 1: trial t's is ``PCG64(SeedSequence(seed, spawn_key=(t,)))``,
    the t-th child that ``SeedSequence(seed).spawn`` returns.

    The states are derived as numpy derives them, for all the trials at
    once: the SeedSequence pool mixes the seed's 32-bit words (padded with
    zeros to four) and then the trial's, and ``generate_state(4, uint64)``
    hashes the pool into the PCG64 seed, whose two 128-bit halves set the
    state as pcg_setseq_128_srandom_r does (inc = seq << 1 | 1, a step,
    add the state, a step). Mixing the seed's words is common to all
    trials and runs on Python integers; the trial's words run on numpy
    uint32 arrays, whose products wrap modulo 2^32 as the hash's do. One
    ``PCG64`` and ``Generator`` are reused, so draw from each before taking
    the next.
    """
    seed = int(seed)
    run = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    run += [0] * (4 - len(run))
    trials = np.arange(start, stop, dtype=np.uint64)
    const, pool = _INIT_A, []
    for w in run[:4]:
        v, const = _hashmix(w, const)
        pool.append(v)
    for i in range(4):
        for k in range(4):
            if i != k:
                h, const = _hashmix(pool[i], const)
                pool[k] = _mix(pool[k], h)
    for w in run[4:] + [(trials & _M32).astype(np.uint32)]:
        for k in range(4):
            h, const = _hashmix(w, const)
            pool[k] = _mix(pool[k], h)
    high = (trials >> 32).astype(np.uint32)
    if high.any():
        # a trial index of 2^32 or more adds a second word to its key
        for k in range(4):
            h, const = _hashmix(high, const)
            pool[k] = np.where(high > 0, _mix(pool[k], h), pool[k])
    const, words = _INIT_B, []
    for i in range(8):
        v, const = _hashmix(pool[i % 4], const, _MULT_B)
        words.append(v.astype(np.uint64))
    seeds = [(words[2 * i] | words[2 * i + 1] << 32).tolist()
             for i in range(4)]
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    for s0, s1, q0, q1 in zip(*seeds):
        inc = ((q0 << 64 | q1) << 1 | 1) & _M128
        state["state"] = {
            "state": ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128,
            "inc": inc,
        }
        bitgen.state = state
        yield rng


def simulate_second_moment(
    A_cl, dirs: DirList, cfg: MonteCarloConfig, x0_cov
) -> MomentHistory:
    """Monte Carlo estimate of E[x_t x_t^T] alongside the exact recursion.

    Initial states are Gaussian with covariance ``x0_cov`` regardless of
    the noise law. Each trial draws from its own spawned stream (initial
    state first, then the horizon-by-direction noise block), so results do
    not depend on how trials are scheduled.
    """
    W = _closed_loop_stack(A_cl, dirs)
    A_cl = W[0]
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
    # Trials run in blocks of _MC_BLOCK, each deriving its own streams in
    # bulk, so memory does not grow with the trial count; the sums of x x^T
    # are divided once at the end.
    W = W.reshape((k + 1) * n, n)
    size = min(cfg.trials, _MC_BLOCK)
    Z = np.empty((size, n))
    noise = np.empty((size, cfg.horizon, k))
    sums = np.zeros((cfg.horizon + 1, n, n))
    for start in range(0, cfg.trials, _MC_BLOCK):
        b = min(_MC_BLOCK, cfg.trials - start)
        for i, rng in enumerate(_trial_streams(cfg.seed, start, start + b)):
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

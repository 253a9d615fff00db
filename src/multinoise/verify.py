"""Empirical validation of certificates.

Grid search sweeps the certified perturbation box and reports the worst
spectral radius found, eigen-solving only the points that a rigorous bound
on the radius cannot rule out: first whole cells of the grid, from one
bound at each cell's centre that covers the cell, then the points of the
cells left, one by one. Exact second-moment propagation and a seeded
Monte Carlo simulation cross-check the mean-square stability verdicts.
The exact covariance recursion is the primary verification path;
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
#: rules out whole cells of about _CELL_POINTS points from a bound at each
#: cell's centre, then the points of the cells left, each a cell of one;
#: builds and bounds them in blocks of _BLOCK_ENTRIES matrix entries,
#: _CELL_POINTS blocks to a call, squaring up to _SQUARINGS times in the
#: radius bound (rho(M) <= ||M^256||^(1/256)); and rules a cell out at the
#: first level whose bound is below the seed radius less the relative
#: _SLACK.
_SEED_POINTS = 16
_CELL_POINTS = 16
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
    them, on each of the first log2(_SEED_POINTS) axes of more than one
    point, and the far end alone on any further axis. On a box of up to
    that many nonzero directions it holds every vertex, and it stays small
    however many there are."""
    wide = [i for i, s in enumerate(shape)
            if s > 1][:int(math.log2(_SEED_POINTS))]
    per_axis = max(2, round(_SEED_POINTS ** (1 / max(len(wide), 1))))
    picks = [np.linspace(s - 1, 0, per_axis if i in wide else 1)
             for i, s in enumerate(shape)]
    mesh = np.meshgrid(*(np.unique(ix.round().astype(int)) for ix in picks),
                       indexing="ij")
    return np.ravel_multi_index(mesh, shape).ravel()


def _grid_points(axes, shape: tuple[int, ...], flat) -> np.ndarray:
    """The points at these flat indices of the tensor grid on ``axes``,
    one per row."""
    return np.stack([ax[i] for ax, i in
                     zip(axes, np.unravel_index(flat, shape))], axis=1)


def _closed_loops(A_cl, D, mu) -> np.ndarray:
    """The closed loops A_cl + sum_i mu_i D_i at the points ``mu``, built
    entry by entry in direction order: A_cl, then mu_i D_i added for each
    direction in turn. Every entry takes the same rounded operations
    whatever other points are built with it, so a matrix's bits depend on
    its point alone."""
    mats = np.repeat(A_cl[None], len(mu), axis=0)
    term = np.empty_like(mats)
    for i, D_i in enumerate(D):
        mats += np.multiply(mu[:, i, None, None], D_i, out=term)
    return mats


#: The unit roundoff and the least normal number of float64.
_U = np.finfo(float).eps / 2
_TINY = np.finfo(float).tiny


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u the unit roundoff."""
    return k * _U / (1.0 - k * _U)


def _frobenius(X: np.ndarray) -> np.ndarray:
    """Upper bounds on the Frobenius norms of a stack of n x n matrices:
    the computed norms raised by gamma_(n^2+2) relative, plus n sqrt(tiny)
    for squares that underflow."""
    n = X.shape[-1]
    frob = np.sqrt(np.einsum("kij,kij->k", X, X))
    return (1.0 + _gamma(n * n + 2)) * frob + n * np.sqrt(_TINY)


def _survivors(mats: np.ndarray, floor: float, err0=0.0) -> np.ndarray:
    """Indices, in order, of the n x n matrices in a stack whose spectral
    radius Gelfand's bound cannot place below ``floor``, at any of the
    levels rho(M) <= ||M^(2^j)||_F^(2^-j),
    j = 0 .. _SQUARINGS. A matrix is dropped at the first level whose bound
    is below its floor, and only the others are squared again. With
    ``err0`` (a bound per matrix, or one for all), the bound holds for
    every exact matrix within err0 of a computed one in Frobenius norm,
    not only for the computed one, and it is that matrix's radius that is
    placed below the floor.

    The powers are formed by squarings, each followed by a rescaling by an
    exact power of two. The stack is first scaled by 2^-b, b the binary
    exponent of its largest entry, so that no norm overflows. At level j,
    P_j is the computed square of X_j-1 (P_0 = fl(M 2^-b)), a_j is the
    binary exponent of its computed Frobenius norm, and X_j = P_j 2^-a_j
    has a norm near [1/2, 1), so the next squaring neither overflows nor
    underflows. X_j approximates T_j = M'^(2^j) 2^-c_j, with M' any exact
    matrix within err0 of M (M itself for err0 = 0), c_0 = b + a_0 and
    c_j = 2 c_j-1 + a_j. Scaling by a power of two changes only a number's
    exponent, so it is exact unless the result leaves the normal range.
    Here it cannot overflow; an entry pushed into the subnormal range
    rounds by at most 2^-1075, so n tiny in norm covers a whole matrix, and
    err0 scaled by 2^-b besides. Norms scale exactly with the matrix, so
    the rounding analysis is that of unscaled squarings, level by level.

    ``err`` carries a bound on ||X_j - T_j||_F. A dot product of length n
    rounds by at most gamma_n = nu/(1 - nu) times the sum of its absolute
    products, in any order and with or without FMA, plus 2n tiny where the
    products reach the subnormal range (flushed to zero or not). ``nrm_j``
    bounds ||X_j||_F: the computed norm of P_j raised by its own rounding
    (``_frobenius``), then scaled, plus n tiny for the rescaling. So
    ||T_j||_F <= nrm_j + err_j, and

        ||X_0 - T_0||_F     <= (err0 2^-b + n tiny) 2^-a_0 + n tiny
        ||X_j+1 - T_j+1||_F <= ((2 nrm_j + err_j) err_j + gamma_n nrm_j^2
                                + 2n^2 tiny) 2^-a_j+1 + n tiny.

    The squaring step holds for any exact T_j within err_j of X_j: with
    T_j = X_j + E, T_j^2 - X_j^2 = X_j E + E X_j + E^2, and the computed
    square adds its own rounding. So a starting error carries through.

    A bound taken at any level is valid on its own: rho(M')^(2^j) =
    rho(M'^(2^j)) <= ||M'^(2^j)||_F = 2^c_j ||T_j||_F, so rho(M') <=
    2^(c_j/2^j) (nrm_j + err_j)^(2^-j) for the exact radius. It is compared
    with the floor in base-2 logarithms, c_j + log2(nrm_j + err_j) against
    2^j log2(floor), which moves the bound by some u |log2 rho| relative,
    about 1e-13 at worst, and the caller's slack covers that. Cancellation
    in the squarings, as in non-normal or nearly nilpotent blocks, is
    relative to ||X_j||^2 rather than to the power, so no relative slack
    could cover it, and rescaling does not remove it; it lands in ``err``
    instead. A power that vanishes leaves only the error terms, and the
    bound stays above the radius. A non-finite matrix or error gives an
    inf or NaN bound, and such matrices are kept.
    """
    n = mats.shape[-1]
    keep_all = np.arange(len(mats))

    with np.errstate(all="ignore"):
        _, b = np.frexp(np.abs(mats).max())
        X = np.ldexp(mats, -b)
        c = np.full(len(mats), float(b))
        err = np.ldexp(err0, -b) + n * _TINY
        log_floor = np.log2(floor)
        for j in range(_SQUARINGS + 1):
            if j:
                err = ((2.0 * nrm + err) * err + _gamma(n) * nrm * nrm
                       + 2 * n * n * _TINY)
                X = X @ X
                c *= 2.0
            nrm = _frobenius(X)
            _, a = np.frexp(nrm)
            np.ldexp(X, -a[:, None, None], out=X)
            nrm = np.ldexp(nrm, -a) + n * _TINY
            err = np.ldexp(err, -a) + n * _TINY
            c += a
            # the bound is below the floor: 2^j log2 of each side
            keep = ~(c + np.log2(nrm + err) < 2 ** j * log_floor)
            if not keep.all():
                X, nrm, err, c, keep_all = (
                    v[keep] for v in (X, nrm, err, c, keep_all))
                if not keep_all.size:
                    break
        return keep_all


def _cells(axes, edges):
    """The cells of the grid on ``axes`` that span ``edges`` points per
    axis, the last cell on an axis shorter where its edge does not divide
    it: per axis, the cells' centres, the largest distance from each centre
    to a point of its cell, and the largest magnitude of a point or a
    centre. The centre of a cell is the midpoint of its end points, and a
    cell of one point is centred exactly on it. The axes are nondecreasing
    (a linspace scaled by a positive factor, and rounding is monotone), and
    so are the centres, so the largest magnitudes are read from their ends.
    """
    centres, halves, largest = [], [], []
    for ax, e in zip(axes, edges):
        if e == 1:
            mid, half = ax, np.broadcast_to(0.0, ax.size)
        else:
            lo = ax[::e]
            hi = ax[np.minimum(np.arange(e - 1, ax.size + e - 1, e),
                               ax.size - 1)]
            mid = 0.5 * lo + 0.5 * hi
            half = np.maximum(mid - lo, hi - mid)
        centres.append(mid)
        halves.append(half)
        largest.append(np.abs([ax[0], ax[-1], mid[0], mid[-1]]).max())
    return centres, halves, np.array(largest)


def _live(A_cl, D, norms, cells, flat, floor: float):
    """Flags of the cells (of ``_cells``) at these flat indices that a
    bound at their centres cannot place below ``floor``, and the matrices
    at their centres.

    Each centre matrix X_c, built at mu_c by ``_closed_loops``, is bounded
    by ``_survivors`` with the starting error

        err0 = sum_i h_i ||D_i||_F
               + 2 gamma_(p+1) (||A||_F + sum_i max|mu_i| ||D_i||_F),

    h_i the largest distance from mu_c,i to a point of the cell on axis i,
    and max|mu_i| the largest magnitude on axis i, the centres' included;
    ``norms`` holds upper bounds on ||A||_F and each ||D_i||_F. It bounds
    ||X_c - M||_F for every matrix M that the sweep builds in the cell. Each
    entry of a matrix built at mu is A's entry plus p rounded products,
    added in direction order: p products and one addition per product,
    so at most p + 1 roundings touch any term, and the entry lies within
    gamma_(p+1) (|A| + sum_i |mu_i| |D_i|) of A + sum_i mu_i D_i, plus
    p 2^-1075 for products that underflow. In Frobenius norm, that is the
    second term for the centre and again for the point. The exact matrices
    at the two points differ by sum_i (mu_c,i - mu_i) D_i, at most the
    first term. The sum is raised by gamma_(4p+8) for its own rounding and
    by 2(p + 1) n tiny for underflow. So a cell left out holds only
    matrices of exact radius below the floor. A cell of one point is its
    own centre: its matrix is the point's, bit for bit.
    """
    n, p = A_cl.shape[0], len(D)
    centres, halves, largest = cells
    shape = tuple(c.size for c in centres)
    mu = _grid_points(centres, shape, flat)
    with np.errstate(all="ignore"):
        build = 2.0 * _gamma(p + 1) * (norms[0] + norms[1:] @ largest)
        err0 = ((_grid_points(halves, shape, flat) @ norms[1:] + build)
                * (1.0 + _gamma(4 * p + 8)) + 2 * (p + 1) * n * _TINY)
    # built and bounded in blocks of _BLOCK_ENTRIES matrix entries
    step = max(1, _BLOCK_ENTRIES // A_cl.size)
    X = np.empty((len(flat), n, n))
    live = np.zeros(len(flat), dtype=bool)
    for b in range(0, len(flat), step):
        X[b:b + step] = _closed_loops(A_cl, D, mu[b:b + step])
        live[b + _survivors(X[b:b + step], floor, err0[b:b + step])] = True
    return live, X


def _cell_points(cells, edges, shape: tuple[int, ...]) -> np.ndarray:
    """Sorted flat indices of the grid points in the cells at these flat
    indices of the grid's cells that span ``edges`` points per axis."""
    p = len(shape)
    counts = [-(-s // e) for s, e in zip(shape, edges)]
    flat, inside = 0, True
    for i, (c, e, s) in enumerate(zip(np.unravel_index(cells, counts),
                                      edges, shape)):
        # the points' indices on axis i, laid along axis i + 1
        at = ((c * e)[:, None] + np.arange(e)).reshape(
            (len(c),) + (1,) * i + (e,) + (1,) * (p - 1 - i))
        flat = flat * s + at
        inside = inside & (at < s)
    return np.sort(flat[inside])


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
    a grid matrix, so it is at most the maximum that a full sweep finds.
    Whole cells of about ``_CELL_POINTS`` points go next, then the points
    of the cells left, each a cell of one point, through the same bound
    (``_live``): one matrix at each cell's centre is bounded by
    ``_survivors`` with a starting error that covers every matrix the sweep
    builds in the cell, so a cell whose bound is below the seed, less the
    relative ``_SLACK``, holds only points of exact radius below it, and
    none of its points is built. A point that no bound rules out is
    eigen-solved, unless the sub-grid solved it already. A point left out
    has an exact radius below the seed, hence below the maximum, so the
    report equals that of solving every point, bit for bit: ``_closed_loops``
    gives a point's matrix the same bits whichever points are built with
    it, LAPACK solves the matrices one by one, and a tie goes to the lower
    flat index. This rests on the eigensolver erring by less than the slack
    at the points left out (see the threshold below).
    """
    if samples_per_dir < 2:
        raise GridSizeError("samples per direction must be >= 2")
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
            "use fewer samples per direction"
        )
    if len(dirs) == 0:
        rho = float(np.max(np.abs(la.eigvals(A_cl))))
        return GridReport(samples=1, worst_rho=rho, worst_mu=np.zeros(0),
                          all_stable=rho < 1.0, eigensolves=1)

    # ``_live`` takes up to ``group`` matrices at a time, the points of
    # ``step`` cells, and builds and bounds them in blocks of ``step``, so
    # memory stays bounded whatever the grid's size
    step = max(1, _BLOCK_ENTRIES // A_cl.size)
    group = _CELL_POINTS * step

    coarse = _sub_grid(shape)
    mats = _closed_loops(A_cl, D, _grid_points(axes, shape, coarse))
    rho = np.abs(la.eigvals(mats)).max(axis=1)
    top = int(np.argmax(rho))
    worst, worst_at, solved = float(rho[top]), int(coarse[top]), coarse.size
    # ``err`` covers the rounding in the squarings; the slack covers the
    # rest: evaluating nrm, err and the logarithms of the comparison moves
    # a bound by at most some 1e-13 relative, far below 1e-6. So a point
    # left out has an exact radius below the seed. Its eigensolver value
    # could still pass the seed only if the solver erred there by more than
    # the slack, which a backward stable solver does only at eigenvalues of
    # condition number about 1e-6 / (n u), some 1e9, or more.
    floor = worst * (1.0 - _SLACK)

    # ||A||_F and each ||D_i||_F, bounded on the matrix scaled by 2^-s
    with np.errstate(all="ignore"):
        _, s = np.frexp(np.abs(W).max(axis=(1, 2)))
        scaled = np.ldexp(W, -s[:, None, None])
        norms = np.ldexp(_frobenius(scaled) + A_cl.shape[0] * _TINY,
                         s) + _TINY
    points = _cells(axes, [1] * len(axes))
    # a cell spans ``edge`` points on each axis of more than one point, the
    # largest edge with edge^q <= _CELL_POINTS for q such axes
    q = sum(size > 1 for size in shape)
    edge = max(e for e in range(1, _CELL_POINTS + 1) if e ** q <= _CELL_POINTS)
    edges = [min(edge, size) for size in shape]
    if max(edges) == 1:
        blocks = (np.arange(b, min(b + group, total))
                  for b in range(0, total, group))
    else:
        cells = _cells(axes, edges)
        count = math.prod(c.size for c in cells[0])
        live = np.concatenate([
            b + np.flatnonzero(_live(A_cl, D, norms, cells,
                                     np.arange(b, min(b + group, count)),
                                     floor)[0])
            for b in range(0, count, group)])
        blocks = (_cell_points(part, edges, shape)
                  for part in np.split(live, range(step, live.size, step)))
    for flat in blocks:
        # the sub-grid's points are solved already
        at = np.minimum(np.searchsorted(coarse, flat), coarse.size - 1)
        flat = flat[coarse[at] != flat]
        kept, X = _live(A_cl, D, norms, points, flat, floor)
        if not kept.any():
            continue
        pick, mats = flat[kept], X[kept]
        solved += pick.size
        rho = np.abs(la.eigvals(mats)).max(axis=1)
        top = int(np.argmax(rho))
        if rho[top] > worst or (rho[top] == worst and pick[top] < worst_at):
            worst, worst_at = float(rho[top]), int(pick[top])
    return GridReport(
        samples=total,
        worst_rho=worst,
        worst_mu=_grid_points(axes, shape, [worst_at])[0],
        all_stable=worst < 1.0,
        eigensolves=solved,
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


def _rademacher_bits(words: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` values that ``Generator.integers(0, 2)`` draws
    from the 64-bit outputs ``words`` of its bit generator, along the last
    axis. Each output gives two 32-bit draws, its low half first, and
    Lemire's method on a range of two returns a draw's top bit: bits 31 and
    63 of the output."""
    bits = words[..., None] >> np.array([31, 63], np.uint64) & np.uint64(1)
    return bits.reshape(*words.shape[:-1], -1)[..., :count]


def simulate_second_moment(
    A_cl, dirs: DirList, cfg: MonteCarloConfig, x0_cov
) -> MomentHistory:
    """Monte Carlo estimate of E[x_t x_t^T] alongside the exact recursion.

    Initial states are Gaussian with covariance ``x0_cov`` regardless of
    the noise law. Each trial draws from its own spawned stream (initial
    state first, then the horizon-by-direction noise block), so results do
    not depend on how trials are scheduled. The draws are those of
    ``standard_normal`` for the state and the Gaussian law, and of
    ``integers(0, 2)`` for the Rademacher signs.
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
    # are divided once at the end. A trial's initial state, and its
    # Gaussian noise, come from one call; its Rademacher noise from the
    # stream's 64-bit outputs, turned into signs for the whole block at once.
    W = W.reshape((k + 1) * n, n)
    size = min(cfg.trials, _MC_BLOCK)
    draws = cfg.horizon * k
    normals = np.empty((size, n + draws if gaussian else n))
    words = np.empty((size, 0 if gaussian else -(-draws // 2)), np.uint64)
    sums = np.zeros((cfg.horizon + 1, n, n))
    for start in range(0, cfg.trials, _MC_BLOCK):
        b = min(_MC_BLOCK, cfg.trials - start)
        for i, rng in enumerate(_trial_streams(cfg.seed, start, start + b)):
            rng.standard_normal(out=normals[i])
            if words.shape[1]:
                words[i] = rng.bit_generator.random_raw(words.shape[1])
        if gaussian:
            noise = normals[:b, n:]
        else:
            noise = _rademacher_bits(words[:b], draws) * 2.0 - 1.0
        # gamma[t, j] holds the noise of direction j at step t per trial
        gamma = np.ascontiguousarray(
            noise.reshape(b, cfg.horizon, k).transpose(1, 2, 0))
        gamma *= stds[:, None]
        # a contiguous copy, so that the product and its rounding do not
        # depend on how many draws share a row
        X = Lx @ np.ascontiguousarray(normals[:b, :n]).T
        sums[0] += X @ X.T
        for t in range(cfg.horizon):
            Y = W @ X
            X = Y[:n]
            for j in range(k):
                X += gamma[t, j] * Y[(j + 1) * n:(j + 2) * n]
            sums[t + 1] += X @ X.T

    exact = exact_moment_recursion(A_cl, dirs, x0_cov, cfg.horizon)
    return MomentHistory(empirical=sums / cfg.trials, exact=exact)

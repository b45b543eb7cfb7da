"""Interval-sequence objective for the secretary continuum program.

A sequence s = (a_1, b_1, ..., a_K, b_K) describes where the candidate
trajectory runs its constraint tight (on each [a_l, b_l]) and where it stays
flat.  The induced objective has the closed form

    g(s) = sum_l  prod_{i<l} (a_i / b_i) * a_l * ln(b_l / a_l),

maximized uniquely by the single interval (1/e, 1].  search_best checks this
on a grid for every K up to K_CAP with one backward DP over intervals, which
never holds an m x m table.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import accumulate

import numpy as np

from .lp_core import LpInputError, _as_float, _as_floats, _as_int


@dataclass(frozen=True)
class IntervalSequence:
    points: tuple

    def __post_init__(self):
        try:
            pts = tuple(_as_float(p, "each point") for p in self.points)
        except TypeError:   # points is not a sequence
            raise LpInputError("points must be a sequence of real numbers, "
                               f"got {self.points!r}") from None
        if len(pts) < 2 or len(pts) % 2:
            raise LpInputError("need an even number (>= 2) of points")
        # negated comparisons, so a NaN point fails them
        if not (pts[0] > 0.0 and pts[-1] <= 1.0):
            raise LpInputError("points must lie in (0, 1]")
        if not all(p2 > p1 for p1, p2 in zip(pts, pts[1:])):
            raise LpInputError("points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def K(self) -> int:
        return len(self.points) // 2

    @property
    def intervals(self):
        p = self.points
        return [(p[2 * l], p[2 * l + 1]) for l in range(self.K)]


def objective_g(s: IntervalSequence) -> float:
    """Exact evaluation of the interval objective; lies in [0, 1)."""
    total = 0.0
    shrink = 1.0   # prod_{i<l} a_i/b_i
    for a, b in s.intervals:
        total += shrink * a * math.log(b / a)
        shrink *= a / b
    return total


def reconstruct_u(s: IntervalSequence, t):
    """The trajectory induced by an interval sequence, and its derivative,
    at the points t; returns (u, u_dot).

    u(t) = 1 - prod_{i<l}(a_i/b_i) * a_l / t on [a_l, b_l], constant between
    intervals (and 0 before the first one), so u is continuous,
    non-decreasing, u(0) = 0, and u + t u' = 1 exactly on every interval.
    """
    t = _as_floats(t, "t")
    tt = np.where(t > 0, t, 1.0)
    u = np.zeros_like(t)
    u_dot = np.zeros_like(t)
    prefix = 1.0   # prod_{i<l} a_i/b_i
    for a, b in s.intervals:
        coef = prefix * a
        on = (t >= a) & (t <= b)
        u = np.where(on, 1.0 - coef / tt, u)
        u_dot = np.where(on, coef / tt ** 2, u_dot)
        prefix = prefix * a / b
        u = np.where(t > b, 1.0 - prefix, u)
    return u, u_dot


@dataclass(frozen=True)
class SearchResult:
    K: int
    resolution: float
    best_s: IntervalSequence
    best_value: float
    grid_points_evaluated: int

    def to_dict(self) -> dict:
        return {**asdict(self), "best_s": list(self.best_s.points)}


def _refine_k1(a: float, b: float, resolution: float, min_sep: float):
    """Coordinate ascent around a K=1 grid argmax.  For fixed b, a*ln(b/a)
    is concave in a and peaks at a = b/e; for fixed a it rises in b.  So each
    step takes the closed-form maximizer, clipped to its bracket."""
    for _ in range(4):
        a = min(max(b / math.e, resolution / 10, a - resolution),
                b - min_sep, a + resolution)
        b = min(1.0, b + resolution)
    return a, b, a * math.log(b / a)


def _suffix_sums(counts) -> list:
    """Exact suffix sums of Python ints, with a trailing 0."""
    return list(accumulate(reversed(counts), initial=0))[::-1]


# Largest K that search_best takes.
K_CAP = 8

# Largest number m of grid points per axis.  The search forms its pair table
# _ROWS rows at a time and keeps three arrays of m values per level, so its
# memory grows as K m and its time as K m^2.  At the cap tracemalloc measures
# a peak of 3.5 MB for K = 1, 3.9 MB for K = 2 and 4.6 MB for K = 8, which
# takes 0.8-1.0 s on 2 vCPUs.
GRID_CAP = 4096
_ROWS = 32


def search_best(K: int, resolution: float, min_separation: float) -> SearchResult:
    """Exhaustive grid search over valid sequences (pairwise gaps at least
    min_separation) of K = 1..K_CAP intervals, plus local coordinate-ascent
    refinement for K = 1.

    A backward DP over intervals: V_l(k), the best value of l intervals
    whose first starts at grid index k or later, is the suffix maximum over
    rows a >= k of max_b [a ln(b/a) + (a/b) V_{l-1}(k2[b])], with V_0 = 0,
    V_l(m) = -inf and k2[b] the earliest start after b.  Ties keep the first
    row of the first interval and, for each later interval, the latest row
    reaching its level's maximum; in a row, the first b.  Strict orderings
    are realized as gaps >= min_separation, so degenerate configurations
    are approached but never attained.
    """
    K = _as_int(K, "K")
    if not 1 <= K <= K_CAP:
        raise LpInputError(f"K must be in 1..{K_CAP}, got {K}")
    resolution = _as_float(resolution, "resolution")
    min_separation = _as_float(min_separation, "min_separation")
    if not 0 < resolution <= 1e-2:
        raise LpInputError("resolution must be in (0, 1e-2]")
    if 1.0 / resolution > GRID_CAP + 0.5:  # round(1 / resolution) > GRID_CAP
        raise LpInputError(f"resolution {resolution} needs more than "
                           f"GRID_CAP = {GRID_CAP} grid points")
    if not resolution <= min_separation < math.inf:
        raise LpInputError("min_separation must be finite and >= resolution")

    m = round(1.0 / resolution)
    grid = np.arange(1, m + 1) / m
    # earliest next start index with a >= b + sep, for each b; m means none
    k2 = np.minimum(np.arange(m) + math.ceil(min_separation / resolution), m)
    levels = []                  # (row best, row's first argmax, V_l) per level
    count_from = [1] * (m + 1)   # C_l(k): admissible l-interval sequences from k on
    for level in range(K):
        blocks = []
        for r0 in range(0, m, _ROWS):
            # a pair needs b > a, so a block's columns start at its first row
            a = grid[r0:r0 + _ROWS, None]
            b = grid[None, r0:]
            ok = (b - a) >= min_separation - 1e-12
            val = np.where(ok, a * np.log(np.where(b > a, b / a, 1.0)), -np.inf)
            if level:   # best_from is V_{l-1}; V_0 = 0
                val += (a / b) * best_from[k2[r0:]]
            # b - a rises with b, so a row's admissible b form a suffix
            blocks.append((val.max(axis=1), r0 + val.argmax(axis=1),
                           m - ok.sum(axis=1)))
        row_best, row_arg, first_ok = map(np.concatenate, zip(*blocks))
        best_from = np.append(np.maximum.accumulate(row_best[::-1])[::-1], -np.inf)
        levels.append((row_best, row_arg, best_from))
        # each admissible (a, b) starts count_from[k2[b]] sequences
        from_b = _suffix_sums([count_from[k] for k in k2.tolist()])
        count_from = _suffix_sums([from_b[j] for j in first_ok.tolist()])

    row_best, row_arg, best_from = levels.pop()
    best = best_from[0]
    if best == -np.inf:
        raise LpInputError(f"no admissible K={K} sequence at this resolution")
    ia = int(np.argmax(row_best))
    ib = int(row_arg[ia])
    points = [grid[ia], grid[ib]]
    for row_best, row_arg, best_from in reversed(levels):
        k = k2[ib]
        ia = k + int(np.flatnonzero(row_best[k:] == best_from[k])[-1])
        ib = int(row_arg[ia])
        points += [grid[ia], grid[ib]]
    if K == 1:
        a, b, best = _refine_k1(float(points[0]), float(points[1]),
                                resolution, min_separation)
        points = [a, b]
    return SearchResult(K=K, resolution=resolution,
                        best_s=IntervalSequence(tuple(points)),
                        best_value=float(best), grid_points_evaluated=count_from[0])

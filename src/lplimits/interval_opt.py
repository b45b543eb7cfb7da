"""Interval-sequence objective for the secretary continuum program.

A sequence s = (a_1, b_1, ..., a_K, b_K) describes where the candidate
trajectory runs its constraint tight (on each [a_l, b_l]) and where it stays
flat.  The induced objective has the closed form

    g(s) = sum_l  prod_{i<l} (a_i / b_i) * a_l * ln(b_l / a_l),

maximized uniquely by the single interval (1/e, 1].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp_core import LpInputError


@dataclass(frozen=True)
class IntervalSequence:
    points: tuple

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if len(pts) < 2 or len(pts) % 2:
            raise LpInputError("need an even number (>= 2) of points")
        if pts[0] <= 0.0 or pts[-1] > 1.0:
            raise LpInputError("points must lie in (0, 1]")
        if any(p2 <= p1 for p1, p2 in zip(pts, pts[1:])):
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
    t = np.asarray(t, dtype=float)
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
    min_separation: float
    best_s: IntervalSequence
    best_value: float
    grid_points_evaluated: int

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "resolution": self.resolution,
            "best_s": list(self.best_s.points),
            "best_value": self.best_value,
            "grid_points_evaluated": self.grid_points_evaluated,
        }


def _pair_table(grid: np.ndarray, min_sep: float):
    """All (a, b) grid pairs with b - a >= min_sep, and a*ln(b/a) for each."""
    a = grid[:, None]
    b = grid[None, :]
    ok = (b - a) >= min_sep - 1e-12
    val = np.where(ok, a * np.log(np.where(b > a, b / a, 1.0)), -np.inf)
    return ok, val


def _refine_k1(a: float, b: float, resolution: float, min_sep: float):
    """Coordinate ascent around a K=1 grid argmax; each sweep solves the two
    bounded one-dimensional problems by scalar minimization."""
    from scipy.optimize import minimize_scalar

    def g1(aa, bb):
        return aa * math.log(bb / aa)

    for _ in range(4):
        lo_a = max(resolution / 10, a - resolution)
        hi_a = min(b - min_sep, a + resolution)
        res = minimize_scalar(lambda z: -g1(z, b), bounds=(lo_a, hi_a),
                              method="bounded", options={"xatol": 1e-12})
        a = float(res.x)
        lo_b = max(a + min_sep, b - resolution)
        hi_b = min(1.0, b + resolution)
        res = minimize_scalar(lambda z: -g1(a, z), bounds=(lo_b, hi_b),
                              method="bounded", options={"xatol": 1e-12})
        b = float(res.x)
    return a, b, g1(a, b)


def search_best(K: int, resolution: float, min_separation: float) -> SearchResult:
    """Exhaustive grid search over valid sequences (pairwise gaps at least
    min_separation), plus local coordinate-ascent refinement for K = 1.

    Strict orderings are realized as gaps >= min_separation, so degenerate
    configurations are approached but never attained.
    """
    if K not in (1, 2):
        raise LpInputError("exhaustive search supports K in {1, 2}")
    if not 0 < resolution <= 1e-2:
        raise LpInputError("resolution must be in (0, 1e-2]")
    if min_separation < resolution:
        raise LpInputError("min_separation must be >= resolution")

    m = round(1.0 / resolution)
    grid = np.arange(1, m + 1) / m
    ok, val = _pair_table(grid, min_separation)

    if K == 1:
        evaluated = int(ok.sum())
        flat = int(np.argmax(val))
        ia, ib = divmod(flat, m)
        a, b, best = _refine_k1(float(grid[ia]), float(grid[ib]),
                                resolution, min_separation)
        return SearchResult(K=1, resolution=resolution,
                            min_separation=min_separation,
                            best_s=IntervalSequence((a, b)),
                            best_value=best, grid_points_evaluated=evaluated)

    # K = 2: for each first interval, the best admissible second interval
    # depends only on the earliest allowed a_2; take suffix maxima of the
    # pair table over a_2.  Ties keep the first (a_1, b_1) in row-major
    # order and, for the second interval, the latest a_2.
    row_best = val.max(axis=1)
    best_from = np.append(np.maximum.accumulate(row_best[::-1])[::-1], -np.inf)
    pair_counts = ok.sum(axis=1)
    counts_from = np.concatenate([np.cumsum(pair_counts[::-1])[::-1], [0]])
    # earliest a_2 index with a_2 >= b_1 + sep, for each b_1; m means none
    k2 = np.minimum(np.arange(m) + math.ceil(min_separation / resolution), m)
    evaluated = int(ok.sum(axis=0) @ counts_from[k2])
    total = val + (grid[:, None] / grid[None, :]) * best_from[k2]
    flat = int(np.argmax(total))
    best = total.flat[flat]
    if best == -np.inf:
        raise LpInputError("no admissible K=2 sequence at this resolution")
    ia, ib = divmod(flat, m)
    k = k2[ib]
    ja = k + int(np.flatnonzero(row_best[k:] == best_from[k])[-1])
    jb = int(np.argmax(val[ja]))
    return SearchResult(K=2, resolution=resolution,
                        min_separation=min_separation,
                        best_s=IntervalSequence((grid[ia], grid[ib],
                                                 grid[ja], grid[jb])),
                        best_value=float(best),
                        grid_points_evaluated=evaluated)

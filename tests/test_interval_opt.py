import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import simpson

from lplimits import IntervalSequence, LpInputError, objective_g, reconstruct_u
from lplimits.interval_opt import K_CAP, search_best

INV_E = 1.0 / math.e


def quad_objective(s: IntervalSequence) -> float:
    """Independent route to g(s): integrate t * u'(t) piecewise by Simpson,
    with panels aligned to the interval breakpoints."""
    total = 0.0
    for a, b in s.intervals:
        t = np.linspace(a, b, 2001)
        _, u_dot = reconstruct_u(s, t)
        total += simpson(u_dot * t, x=t)
    return total


def test_objective_single_interval():
    assert objective_g(IntervalSequence((INV_E, 1.0))) == pytest.approx(INV_E, abs=1e-15)


def test_objective_vanishing_interval():
    vals = [objective_g(IntervalSequence((0.5, 0.5 + eps)))
            for eps in (1e-2, 1e-4, 1e-6)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-5


def test_objective_two_intervals():
    s = IntervalSequence((0.2, 0.5, 0.6, 1.0))
    val = objective_g(s)
    assert val == pytest.approx(0.305856, abs=5e-6)
    assert val == pytest.approx(quad_objective(s), abs=1e-6)


def test_sequence_validation():
    for bad in [(0.5,), (0.5, 0.4), (0.0, 0.5), (0.2, 0.2), (0.1, 1.1),
                (0.1, 0.3, 0.3, 0.9)]:
        with pytest.raises(LpInputError):
            IntervalSequence(bad)
    for bad in (5, None):
        with pytest.raises(LpInputError, match="points must be a sequence"):
            IntervalSequence(bad)


def test_reconstruct_matches_secretary_optimizer():
    t = np.linspace(0.0, 1.0, 5001)
    u, _ = reconstruct_u(IntervalSequence((INV_E, 1.0)), t)
    want = np.where(t > INV_E, 1.0 - INV_E / np.maximum(t, 1e-12), 0.0)
    assert np.max(np.abs(u - want)) <= 1e-12


def test_reconstruct_properties(rng):
    for _ in range(20):
        pts = np.sort(rng.uniform(0.01, 1.0, size=2 * int(rng.integers(1, 4))))
        if np.min(np.diff(pts)) < 1e-3:
            continue
        s = IntervalSequence(tuple(pts))
        t = np.linspace(0.0, 1.0, 4001)
        u, _ = reconstruct_u(s, t)
        assert u[0] == 0.0
        assert np.all(np.diff(u) >= -1e-12)
        assert reconstruct_u(s, s.points[0])[0] == pytest.approx(0.0, abs=1e-12)
        # u + t u' = 1 on the intervals
        for a, b in s.intervals:
            tt = np.linspace(a, b, 301)
            u_on, u_dot_on = reconstruct_u(s, tt)
            resid = u_on + tt * u_dot_on - 1.0
            assert np.max(np.abs(resid)) <= 1e-8


def test_reconstruct_half_interval():
    u, _ = reconstruct_u(IntervalSequence((0.5, 1.0)), 1.0)
    assert u == pytest.approx(0.5, abs=1e-12)
    assert quad_objective(IntervalSequence((0.5, 1.0))) == pytest.approx(
        0.5 * math.log(2.0), abs=1e-9)


def test_objective_equals_quadrature_random(rng):
    done = 0
    while done < 100:
        K = int(rng.integers(1, 4))
        pts = np.sort(rng.uniform(0.01, 1.0, size=2 * K))
        if np.min(np.diff(pts)) < 1e-3:
            continue
        s = IntervalSequence(tuple(pts))
        assert objective_g(s) == pytest.approx(quad_objective(s), abs=1e-6)
        done += 1


def test_search_k1_refined():
    # the closed-form steps land exactly on a = b/e with b = 1
    res = search_best(1, 1e-3, 1e-2)
    assert res.best_s.points == (INV_E, 1.0)
    assert res.best_value == pytest.approx(INV_E, abs=1e-15)
    assert res.grid_points_evaluated > 0


def test_search_k1_pinned_b_stationarity():
    # with b = 1 the maximizer of a ln(1/a) sits at a = 1/e
    res = search_best(1, 1e-3, 1e-3)
    assert res.best_s.points[1] == pytest.approx(1.0, abs=1e-6)
    assert res.best_s.points[0] == pytest.approx(INV_E, abs=1e-6)


def test_search_k1_separation_binds():
    # a separation of 0.7 caps a at b - min_sep, below 1/e
    res = search_best(1, 1e-2, 0.7)
    assert res.best_s.points == (1.0 - 0.7, 1.0)


def test_search_k2_strictly_below_single_interval():
    r2 = search_best(2, 1e-2, 1e-2)
    assert r2.best_value < INV_E
    r1 = search_best(1, 1e-2, 1e-2)
    assert r2.best_value <= r1.best_value
    assert r2.grid_points_evaluated > 10**6


@pytest.mark.parametrize("resolution,min_sep,points,value,evaluated", [
    (1e-2, 1e-2, (0.36, 0.37, 0.38, 1.0), 0.36760821122826537, 3921225),
    (5e-3, 2.5e-2, (0.345, 0.37, 0.395, 1.0), 0.3662483969380066, 50404915),
    (1e-2, 0.3, (0.1, 0.4, 0.7, 1.0), 0.20104755130126722, 715),
    (1e-2, 0.33, (0.01, 0.34, 0.67, 1.0), 0.04315536905851673, 1),
    (1e-2, 0.34, None, None, None),
])
def test_search_k2_pinned(resolution, min_sep, points, value, evaluated):
    if points is None:
        with pytest.raises(LpInputError, match="no admissible K=2 sequence"):
            search_best(2, resolution, min_sep)
        return
    res = search_best(2, resolution, min_sep)
    assert res.best_s.points == points
    assert res.best_value == value
    assert res.grid_points_evaluated == evaluated


def _pair_table(grid, min_sep):
    """All (a, b) grid pairs with b - a >= min_sep, and a*ln(b/a) for each."""
    a, b = grid[:, None], grid[None, :]
    ok = (b - a) >= min_sep - 1e-12
    return ok, np.where(ok, a * np.log(np.where(b > a, b / a, 1.0)), -np.inf)


def _search_k2_loop(resolution, min_sep):
    """Reference K=2 search: the pair-by-pair scan with a backward
    suffix-maximum table, keeping the first strict improvement."""
    m = round(1.0 / resolution)
    grid = np.arange(1, m + 1) / m
    ok, val = _pair_table(grid, min_sep)
    best_from = np.full(m + 1, -np.inf)
    arg_from = np.full((m + 1, 2), -1, dtype=int)
    for k in range(m - 1, -1, -1):
        if val[k].max() > best_from[k + 1]:
            best_from[k] = val[k].max()
            arg_from[k] = (k, val[k].argmax())
        else:
            best_from[k] = best_from[k + 1]
            arg_from[k] = arg_from[k + 1]
    counts = [int(ok[k:].sum()) for k in range(m)]
    best, best_pts, evaluated = -np.inf, None, 0
    sep_steps = math.ceil(min_sep / resolution)
    for ia in range(m):
        for ib in range(ia, m):
            k2 = ib + sep_steps
            if not ok[ia, ib] or k2 > m - 1 or counts[k2] == 0:
                continue
            evaluated += counts[k2]
            total = val[ia, ib] + (grid[ia] / grid[ib]) * best_from[k2]
            if total > best:
                ja, jb = arg_from[k2]
                best, best_pts = total, (grid[ia], grid[ib], grid[ja], grid[jb])
    return best_pts, best, evaluated


@pytest.mark.parametrize("resolution,min_sep", [
    (1e-2, 2e-2), (1e-2, 0.15), (7e-3, 0.011), (6e-3, 6e-3),
])
def test_search_k2_matches_loop_reference(resolution, min_sep):
    points, value, evaluated = _search_k2_loop(resolution, min_sep)
    res = search_best(2, resolution, min_sep)
    assert res.best_s.points == tuple(float(p) for p in points)
    assert res.best_value == value
    assert res.grid_points_evaluated == evaluated


def _search_combinations(K, resolution, min_sep):
    """Reference search over every index combination of 2K grid points, with
    _search_k2_loop's pair rule and start step; keeps the first strict
    improvement.  Each gap is shifted down by its least admissible size, so
    the combinations are drawn from a short range and then filtered."""
    m = round(1.0 / resolution)
    grid = np.arange(1, m + 1) / m
    ok, val = _pair_table(grid, min_sep)
    sep_steps = math.ceil(min_sep / resolution)
    rows, cols = np.nonzero(ok)
    pair_steps = int((cols - rows).min())
    shift = np.cumsum([0] + [pair_steps - 1, sep_steps - 1] * K)[:2 * K]
    best, best_pts, evaluated = -np.inf, None, 0
    for combo in itertools.combinations(range(m - int(shift[-1])), 2 * K):
        idx = [int(c + s) for c, s in zip(combo, shift)]
        pairs = list(zip(idx[::2], idx[1::2]))
        if not all(ok[a, b] for a, b in pairs):
            continue
        evaluated += 1
        total = 0.0
        for a, b in reversed(pairs):
            total = val[a, b] + (grid[a] / grid[b]) * total
        if total > best:
            best, best_pts = total, tuple(float(grid[i]) for i in idx)
    return best_pts, best, evaluated


def test_search_k3_matches_combinations():
    points, value, evaluated = _search_combinations(3, 1e-2, 0.16)
    res = search_best(3, 1e-2, 0.16)
    assert res.grid_points_evaluated == evaluated
    assert res.best_value == pytest.approx(value, abs=1e-15)
    assert objective_g(res.best_s) == pytest.approx(res.best_value, abs=1e-15)
    assert objective_g(IntervalSequence(points)) == pytest.approx(value, abs=1e-15)


def test_search_values_fall_with_k():
    # extra intervals never beat the single interval (1/e, 1]
    values = [search_best(K, 1e-3, 1e-2).best_value for K in range(1, 5)]
    assert values == pytest.approx(
        [0.367879441, 0.367611397, 0.367084200, 0.366307454], abs=5e-10)
    assert all(v < INV_E for v in values[1:])
    assert all(x >= y for x, y in zip(values, values[1:]))


def test_search_memory_grows_with_the_grid_not_its_square():
    # m = 4096: an m x m float table alone would take 134 MB
    tracemalloc.start()
    try:
        search_best(2, 1 / 4096, 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_k1_increasing_in_b():
    # for fixed a below 1/e, g grows with the right endpoint
    for a in (0.05, 0.15, 0.25, 0.35):
        bs = np.linspace(a + 0.05, 1.0, 40)
        vals = [objective_g(IntervalSequence((a, b))) for b in bs]
        assert all(x < y for x, y in zip(vals, vals[1:]))


def test_search_validation():
    for K in (0, K_CAP + 1):
        with pytest.raises(LpInputError, match="K must be in"):
            search_best(K, 1e-2, 1e-2)
    with pytest.raises(LpInputError):
        search_best(1, 0.05, 0.05)
    with pytest.raises(LpInputError):
        search_best(1, 1e-2, 1e-3)
    with pytest.raises(LpInputError, match="no admissible K=1 sequence"):
        search_best(1, 1e-2, 1.0)
    for K in (1, 2):
        for sep in (math.nan, math.inf):
            with pytest.raises(LpInputError, match="min_separation"):
                search_best(K, 1e-2, sep)


@pytest.mark.parametrize("points", [(math.nan, 0.5), (0.2, math.nan),
                                    (0.1, math.nan, 0.3, 0.5),
                                    (0.1, 0.2, 0.3, math.nan)])
def test_interval_sequence_rejects_nan(points):
    with pytest.raises(LpInputError):
        IntervalSequence(points)

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from lplimits import IntervalSequence, LpInputError, objective_g, reconstruct_u
from lplimits.interval_opt import _pair_table, search_best

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
    res = search_best(1, 1e-3, 1e-2)
    a, b = res.best_s.points
    assert abs(a - INV_E) <= 1e-3
    assert abs(b - 1.0) <= 1e-3
    assert abs(res.best_value - INV_E) <= 1e-6
    assert res.grid_points_evaluated > 0


def test_search_k1_pinned_b_stationarity():
    # with b = 1 the maximizer of a ln(1/a) sits at a = 1/e
    res = search_best(1, 1e-3, 1e-3)
    assert res.best_s.points[1] == pytest.approx(1.0, abs=1e-6)
    assert res.best_s.points[0] == pytest.approx(INV_E, abs=1e-6)


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


def test_k1_increasing_in_b():
    # for fixed a below 1/e, g grows with the right endpoint
    for a in (0.05, 0.15, 0.25, 0.35):
        bs = np.linspace(a + 0.05, 1.0, 40)
        vals = [objective_g(IntervalSequence((a, b))) for b in bs]
        assert all(x < y for x, y in zip(vals, vals[1:]))


def test_search_validation():
    with pytest.raises(LpInputError):
        search_best(3, 1e-2, 1e-2)
    with pytest.raises(LpInputError):
        search_best(1, 0.05, 0.05)
    with pytest.raises(LpInputError):
        search_best(1, 1e-2, 1e-3)

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson, simpson

from lplimits import (
    FamilySpec,
    LpInputError,
    discretize_profile,
    eval_profile,
    integrate_tight_ode,
    multiplier_check,
    variational,
)
from lplimits.families import FAMILY_KINDS
from lplimits.variational import (
    BALANCE_G,
    BALANCE_V,
    ODE_CLOSED_FORM,
    PROFILES,
    RANKING_G,
    RANKING_U,
    SECRETARY_G,
    SECRETARY_U,
    TOY_G,
)

INV_E = 1.0 / math.e


def test_profile_values():
    assert eval_profile("BalanceV", 1.0) == pytest.approx(INV_E, abs=1e-15)
    assert eval_profile("RankingU", 1.0) == pytest.approx(1 - INV_E, abs=1e-15)
    assert eval_profile("SecretaryG", 0.2) == 0.0
    assert eval_profile("SecretaryG", 0.5) == pytest.approx(2 * INV_E, abs=1e-15)
    # left-closed convention at the threshold
    assert eval_profile("SecretaryG", INV_E) == 0.0
    assert eval_profile("SecretaryU", INV_E) == 0.0
    assert eval_profile("BalanceV", 0.0) == 0.0
    assert eval_profile("RankingU", 0.0) == 0.0
    assert eval_profile("ToyG", 0.3) == pytest.approx(math.exp(-0.3))


@pytest.mark.parametrize("t", [
    np.array([0.0, variational.INV_E, np.nextafter(variational.INV_E, 1.0), 0.5, 1.0]),
    np.linspace(0.0, 1.0, 100_001),
], ids=["edges", "linspace"])
def test_secretary_profiles_match_the_two_where_formula(t):
    # one where and in-place arithmetic give the bytes of the first formula
    inv_e = variational.INV_E
    safe = np.where(t > 0, t, 1.0)
    u = np.where(t > inv_e, 1.0 - inv_e / safe, 0.0)
    g = np.where(t > inv_e, inv_e / safe, 0.0)
    assert SECRETARY_U(t).tobytes() == u.tobytes()
    assert SECRETARY_G(t).tobytes() == g.tobytes()


@pytest.mark.parametrize("profile", [SECRETARY_U, SECRETARY_G], ids=lambda p: p.tag)
def test_secretary_profiles_build_in_one_array(profile):
    # the result and the t > 1/e mask: no second n-float temporary
    t = np.arange(1, 10**6 + 1) / 10**6
    profile(t[:8])   # first-call allocations are not the profile's
    tracemalloc.start()
    try:
        profile(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * t.nbytes


def test_profile_domain_and_bounds():
    with pytest.raises(LpInputError):
        eval_profile("ToyG", -0.1)
    with pytest.raises(LpInputError):
        eval_profile("SecretaryU", 1.2)
    t = np.linspace(0, 1, 2001)
    for tag, prof in PROFILES.items():
        vals = prof(t)
        assert np.all(np.isfinite(vals)), tag
    assert np.all((SECRETARY_G(t) >= 0) & (SECRETARY_G(t) <= 1))


def test_ode_against_closed_form():
    for kind, target in [("balance", INV_E), ("ranking", 1 - INV_E)]:
        traj = integrate_tight_ode(kind, 1e-4)
        assert abs(traj.terminal - target) <= 1e-8
        sup = np.max(np.abs(traj.values - ODE_CLOSED_FORM[kind](traj.ts)))
        assert sup <= 1e-8


def test_ode_fourth_order_decay():
    # halve the step where truncation still dominates float64 rounding
    for kind, target in [("balance", INV_E), ("ranking", 1 - INV_E)]:
        e1 = abs(integrate_tight_ode(kind, 1e-2).terminal - target)
        e2 = abs(integrate_tight_ode(kind, 5e-3).terminal - target)
        assert 12.0 <= e1 / e2 <= 20.0


def test_ode_rejects_bad_steps():
    with pytest.raises(LpInputError):
        integrate_tight_ode("balance", 0.0)
    with pytest.raises(LpInputError):
        integrate_tight_ode("balance", -1e-3)
    with pytest.raises(LpInputError):
        integrate_tight_ode("balance", 0.05)
    with pytest.raises(LpInputError):
        integrate_tight_ode("toy", 1e-3)


@pytest.mark.parametrize("step", [5e-324, 1e-309])
def test_ode_rejects_a_step_whose_reciprocal_overflows(step):
    # 1 / step is inf for both, which round() cannot convert
    with pytest.raises(LpInputError, match="cap"):
        integrate_tight_ode("balance", step)


def test_ode_step_floor_is_checked_before_allocating(monkeypatch):
    # with numpy unreachable, any array the call made would raise
    # AttributeError instead of the step check's LpInputError
    monkeypatch.setattr(variational, "np", None)
    with pytest.raises(LpInputError, match="cap"):
        integrate_tight_ode("balance", 1e-8)
    # 1e7 steps is the cap itself: admitted, so the call reaches numpy
    with pytest.raises(AttributeError):
        integrate_tight_ode("ranking", 1e-7)


def _rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + h / 2, y + h / 2 * k1)
    k3 = f(t + h / 2, y + h / 2 * k2)
    k4 = f(t + h, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _rk4_loop(kind, step):
    """Classical RK4 stepped one step at a time in float64: the reference
    for the closed-form iterates of integrate_tight_ode."""
    f = {"balance": lambda t, v: t - v, "ranking": lambda t, u: 1.0 - u}[kind]
    n = round(1.0 / step)
    h = 1.0 / n
    ts = np.linspace(0.0, 1.0, n + 1)
    ys = np.empty(n + 1)
    ys[0] = 0.0
    for k in range(n):
        ys[k + 1] = _rk4_step(f, ts[k], ys[k], h)
    return ts, ys


def _assert_matches_rk4_loop(kind, step):
    traj = integrate_tight_ode(kind, step)
    ts, ys = _rk4_loop(kind, step)
    assert np.array_equal(traj.ts, ts)
    assert np.max(np.abs(traj.values - ys)) <= 1e-13


@pytest.mark.parametrize("kind", ["balance", "ranking"])
@pytest.mark.parametrize("step", [1e-2, 5e-3, 1e-3, 1e-4])
def test_ode_closed_form_matches_rk4_loop(kind, step):
    _assert_matches_rk4_loop(kind, step)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["balance", "ranking"]),
       step=st.floats(min_value=1e-4, max_value=1e-2))
def test_ode_closed_form_matches_rk4_loop_at_any_step(kind, step):
    # steps off the 1/n lattice exercise the snapping to n = round(1/step)
    _assert_matches_rk4_loop(kind, step)


@pytest.mark.parametrize("kind", ["balance", "ranking"])
@pytest.mark.parametrize("n", [100, 200])
def test_ode_closed_form_matches_exact_rk4(kind, n):
    # the same four RK4 stages in exact rational arithmetic
    alpha, beta = {"balance": (0, 1), "ranking": (1, 0)}[kind]

    def f(t, y):
        return alpha + beta * t - y

    h = Fraction(1, n)
    exact = [Fraction(0)]
    for k in range(n):
        exact.append(_rk4_step(f, k * h, exact[-1], h))
    traj = integrate_tight_ode(kind, 1.0 / n)
    assert np.max(np.abs(traj.values - np.array([float(v) for v in exact]))) <= 1e-15


def test_ode_finest_benchmark_step_meets_terminal_gate():
    for kind, target in [("balance", INV_E), ("ranking", 1 - INV_E)]:
        assert abs(integrate_tight_ode(kind, 1e-6).terminal - target) <= 1e-8


def _random_balance_trajectories(n_traj, steps, rng):
    """Integrate v' = (t - v) r(t) for random piecewise-constant r in [0,1]."""
    h = 1.0 / steps
    ts = np.linspace(0.0, 1.0, steps + 1)
    r = rng.random((n_traj, steps))
    v = np.zeros(n_traj)
    out = np.zeros((n_traj, steps + 1))
    for k in range(steps):
        t = ts[k]
        rk = r[:, k]
        k1 = rk * (t - v)
        k2 = rk * (t + h / 2 - (v + h / 2 * k1))
        k3 = rk * (t + h / 2 - (v + h / 2 * k2))
        k4 = rk * (t + h - (v + h * k3))
        v = v + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[:, k + 1] = v
    return ts, out


def test_balance_dominance(rng):
    ts, trajs = _random_balance_trajectories(100, 1000, rng)
    vstar = BALANCE_V(ts)
    assert np.all(trajs <= vstar[None, :] + 1e-9)
    assert np.all(trajs[:, -1] <= INV_E + 1e-12)


def test_ranking_dominance(rng):
    steps = 1000
    h = 1.0 / steps
    ts = np.linspace(0.0, 1.0, steps + 1)
    noise = 0.5 * rng.random((100, steps))
    u = np.zeros(100)
    ok = True
    ustar = RANKING_U(ts)
    for k in range(steps):
        nu = noise[:, k]

        def f(uu):
            return np.clip(np.maximum(1.0 - uu, 0.0) + nu, 0.0, 1.0)

        k1 = f(u)
        k2 = f(u + h / 2 * k1)
        k3 = f(u + h / 2 * k2)
        k4 = f(u + h * k3)
        u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        ok = ok and np.all(u >= ustar[k + 1] - 1e-9)
    assert ok


def test_profile_feasibility_by_quadrature():
    # balance: int_0^t g(z)(1-z+t) dz <= t, via two cumulative integrals
    t = np.linspace(0.0, 1.0, 10_001)
    g = BALANCE_G(t)
    A = cumulative_simpson(g * (1.0 - t), x=t, initial=0.0)
    B = cumulative_simpson(g, x=t, initial=0.0)
    lhs = A + t * B
    assert np.all(lhs <= t + 1e-8)

    # secretary: g(t) <= 1 - int_0^t g(z)/z dz, integrand supported on [1/e, 1]
    ta = np.linspace(INV_E, 1.0, 6322)
    integrand = SECRETARY_G(ta) / ta
    integrand[0] = 1.0 / INV_E  # right limit at the jump: g -> 1
    cum = cumulative_simpson(integrand, x=ta, initial=0.0)
    lhs = SECRETARY_G(ta)
    assert np.all(lhs <= 1.0 - cum + 1e-8)
    tb = np.linspace(0.0, INV_E, 1000)
    assert np.all(SECRETARY_G(tb)[:-1] == 0.0)


def test_profile_objective_identities():
    t = np.linspace(0.0, 1.0, 10_001)
    assert simpson(BALANCE_G(t) * (1 - t), x=t) == pytest.approx(INV_E, abs=1e-8)
    assert simpson(RANKING_G(t), x=t) == pytest.approx(1 - INV_E, abs=1e-8)
    ta = np.linspace(INV_E, 1.0, 6322)
    ga = INV_E / ta  # the active branch of the secretary profile
    assert simpson(ga, x=ta) == pytest.approx(INV_E, abs=1e-8)


@pytest.mark.parametrize("profile,kind,limit", [
    (RANKING_G, "ranking", 1 - INV_E),
    (SECRETARY_G, "secretary", INV_E),
    (BALANCE_G, "balance", INV_E),
    (TOY_G, "toy", 1 - INV_E),
])
def test_discretize_profile_bridges_to_lp(profile, kind, limit):
    n = 1000
    x, gap = discretize_profile(profile, FamilySpec(kind, n))
    assert x.shape == (n,)
    assert gap.max_violation <= 2.0 / n
    assert gap.objective_gap <= 2e-3
    assert gap.continuum_objective == pytest.approx(limit, abs=1e-12)


def test_discretize_zero_profile_fails_row_one():
    x, gap = discretize_profile(lambda t: np.zeros_like(t), FamilySpec("toy", 5))
    assert np.all(x == 0.0)
    assert gap.max_violation == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["toy", "balance"])
@pytest.mark.parametrize("g", [
    pytest.param(lambda t: np.exp(-t), id="exp"),
    pytest.param(lambda t: np.sqrt(t) * np.sin(7.0 * t) ** 2, id="sqrt-sin"),
    pytest.param(lambda t: np.where(t > INV_E, INV_E / np.maximum(t, INV_E), 0.0),
                 id="jump"),
])
def test_bare_callable_objective_is_simpson(kind, g):
    # a bare callable's continuum objective is composite Simpson on 100_000
    # panels of g, weighted by 1 - t for balance and by 1 for the other kinds
    _, gap = discretize_profile(g, FamilySpec(kind, 8))
    t = np.linspace(0.0, 1.0, 100_001)
    w = 1.0 - t if kind == "balance" else 1.0
    assert abs(gap.continuum_objective - simpson(g(t) * w, x=t)) <= 1e-14


def test_discretize_rejects_mismatch():
    with pytest.raises(LpInputError):
        discretize_profile(RANKING_G, FamilySpec("balance", 10))
    with pytest.raises(LpInputError):
        discretize_profile(RANKING_U, FamilySpec("ranking", 10))


def test_discretize_rejects_a_non_callable_profile():
    with pytest.raises(LpInputError, match="ContinuumProfile or callable"):
        discretize_profile(0.5, FamilySpec("toy", 10))
    with pytest.raises(LpInputError, match="profile values must be numeric"):
        discretize_profile(lambda t: np.full(t.shape, "x"), FamilySpec("toy", 10))


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("g", [
    pytest.param(lambda t: 0.5, id="scalar"),
    pytest.param(lambda t: np.full(t.size - 1, 0.5), id="short"),
    pytest.param(lambda t: np.full((t.size, 1), 0.5), id="column"),
])
def test_discretize_rejects_profile_values_of_another_shape(kind, g):
    # refused before the x-scaling, which would broadcast a scalar for
    # secretary (x_i = g / i) and hand the rest a wrong shape
    with pytest.raises(LpInputError, match=r"profile values must have shape \(4,\)"):
        discretize_profile(g, FamilySpec(kind, 4))


def _u_star_grid(points=10_000):
    t = np.arange(1, points + 1) / points
    return t, SECRETARY_U(t)


def test_multiplier_check_accepts_optimizer():
    t, u = _u_star_grid()
    prof, rep = multiplier_check(t, u, tol=1e-6)
    assert rep.passed
    assert rep.max_residual <= 1e-6
    assert rep.min_v_sq >= -1e-6 and rep.min_w_sq >= -1e-6
    # active region is (1/e, 1] up to one grid cell
    active_t = t[rep.active]
    assert abs(active_t.min() - INV_E) <= 2e-4
    assert active_t.max() == pytest.approx(1.0)
    assert np.all(prof.v_sq >= 0.0) and np.all(prof.w_sq >= 0.0)
    assert u[0] <= 1e-9


def test_multiplier_boundary_constant():
    # mu1 = -ln t - 1 vanishes exactly at the activity boundary t = 1/e
    assert -math.log(INV_E) - 1.0 == pytest.approx(0.0, abs=1e-15)
    t, u = _u_star_grid()
    _, rep = multiplier_check(t, u)
    first_active = int(np.argmax(rep.active))
    assert abs(-math.log(t[first_active]) - 1.0) <= 1e-3


def test_multiplier_check_rejects_perturbed():
    t, u = _u_star_grid()
    _, rep = multiplier_check(t, u + 0.01 * t * (1 - t), tol=1e-6)
    assert not rep.passed
    assert rep.max_residual > 1e-3


def test_multiplier_check_rejects_decreasing():
    t = np.linspace(0.1, 1.0, 100)
    with pytest.raises(LpInputError):
        multiplier_check(t, -t)
    with pytest.raises(LpInputError):
        multiplier_check(t[::-1], t)
    with pytest.raises(LpInputError):
        multiplier_check(np.linspace(-0.5, 1.0, 50), np.zeros(50))
    # NaN fails every comparison, so the order checks alone let it through
    t, u = _u_star_grid()
    for bad in (math.nan, math.inf):
        u_bad = u.copy()
        u_bad[5000] = bad
        with pytest.raises(LpInputError, match="finite"):
            multiplier_check(t, u_bad)
        t_bad = t.copy()
        t_bad[5000] = bad
        with pytest.raises(LpInputError, match="finite"):
            multiplier_check(t_bad, u)


@pytest.mark.parametrize("tol", [math.nan, -1e-6, math.inf])
def test_multiplier_check_rejects_bad_tol(tol):
    t, u = _u_star_grid(100)
    with pytest.raises(LpInputError, match="tol"):
        multiplier_check(t, u, tol=tol)


@pytest.mark.parametrize("t, u", [
    (np.array([0.5, 1.0]), np.zeros(2)),            # fewer than 3 points
    (np.linspace(0.1, 1.0, 5), np.zeros(4)),        # lengths differ
    (np.full((3, 3), 0.5), np.zeros((3, 3))),       # not 1-d
])
def test_multiplier_check_rejects_misshapen_input(t, u):
    with pytest.raises(LpInputError, match="equal-length 1-d"):
        multiplier_check(t, u)


def test_multiplier_short_activity_runs():
    # a one-point active run at index 3 and a two-point one at 6..7; dyadic
    # grid and values, so every slope below is exact
    t = np.arange(1, 11) / 16
    u = np.array([0, 0, 0, 1, 1, 1, 3, 5, 5, 5]) / 16
    prof, rep = multiplier_check(t, u)
    assert np.flatnonzero(rep.active).tolist() == [3, 6, 7]
    # singleton: the slope from its left neighbour, (1/16) / (1/16); the
    # centred difference across it would give 0.5
    assert prof.w_sq[3] == 1.0
    # two-point run: the secant (5/16 - 3/16) / (1/16) at both ends
    assert prof.w_sq[6] == prof.w_sq[7] == 2.0
    # the two-point inactive runs 4..5 and 8..9 take their flat secant
    assert prof.w_sq[[4, 5, 8, 9]].tolist() == [0.0] * 4


def test_multiplier_carry_across_runs():
    # flat below 0.3, slope 1 up to 0.5, flat on [0.5, 0.7), slope 1 again
    t = np.arange(1, 1001) / 1000
    u = np.where(t < 0.5, np.clip(t - 0.3, 0.0, None), 0.2)
    u = np.where(t >= 0.7, 0.2 + (t - 0.7), u)
    prof, rep = multiplier_check(t, u)
    starts = np.flatnonzero(np.diff(rep.active)) + 1
    assert starts.tolist() == [300, 500, 700]
    assert not rep.active[0] and rep.active[300]
    assert not rep.active[500] and rep.active[700]
    mu2 = prof.mu2
    assert np.all(mu2[:300] == mu2[300])       # lead-in matches ahead
    assert np.all(mu2[500:700] == mu2[499])    # carry from the left
    assert np.all(prof.mu1[~rep.active] == 0.0)


def test_multiplier_constant_candidate_has_zero_multipliers():
    t = np.arange(1, 1001) / 1000
    prof, rep = multiplier_check(t, np.full(t.size, 0.25))
    assert not rep.active.any()
    assert np.all(prof.mu1 == 0.0) and np.all(prof.mu2 == 0.0)


def test_eval_profile_rejects_unknown_tag():
    with pytest.raises(LpInputError, match="unknown profile tag"):
        eval_profile("Nope", 0.5)
    with pytest.raises(LpInputError, match="unknown profile tag"):
        eval_profile(5, 0.5)


@pytest.mark.parametrize("kind", ["balance", "ranking"])
def test_ode_builds_in_three_arrays(kind):
    # ts and the R^k array the values are built on, plus one _CHUNK of the
    # line (2.03 arrays of n + 1 floats): no third (n + 1)-float array
    n = 10**6
    integrate_tight_ode(kind, 1e-2)   # first-call allocations are not the ODE's
    tracemalloc.start()
    try:
        traj = integrate_tight_ode(kind, 1.0 / n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.values.shape == (n + 1,)
    assert peak <= 2.2 * 8 * (n + 1)


@pytest.mark.parametrize("profile", [TOY_G, BALANCE_G, RANKING_G, SECRETARY_G],
                         ids=lambda p: p.tag)
def test_discretize_builds_no_matrix(profile):
    # feasibility goes through the family's prefix-sum products; the dense
    # 2048-size LP alone is 33.6 MB, 67 MB for toy
    discretize_profile(profile, FamilySpec(profile.family, 8))
    tracemalloc.start()
    try:
        discretize_profile(profile, FamilySpec(profile.family, 2048))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def _secretary_grid(points):
    t = np.arange(1, points + 1) / points
    u = SECRETARY_U(t)
    return t, {"candidate": u, "perturbed": u + 0.01 * t * (1 - t)}


@pytest.mark.parametrize("which", ["candidate", "perturbed"])
def test_multiplier_check_peak_memory(which):
    # the four result arrays (d(mu2)/dt's reused as v^2), the scratch array
    # and the two activity masks are 5.25 grid arrays; chunk-sized
    # temporaries bring the peak to 5.30
    t, candidates = _secretary_grid(10**6)
    u = candidates[which]
    multiplier_check(t[:100], u[:100])   # first-call allocations are not the check's
    tracemalloc.start()
    try:
        multiplier_check(t, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * t.nbytes


def _derivative_reference(t, y, runs):
    dy = np.empty_like(y)
    for a, b in runs:
        ln = b - a + 1
        if ln == 1:
            dy[a] = (y[a] - y[a - 1]) / (t[a] - t[a - 1])
            continue
        if ln == 2:
            dy[a] = dy[b] = (y[b] - y[a]) / (t[b] - t[a])
            continue
        ts, ys = t[a:b + 1], y[a:b + 1]
        dy[a + 1:b] = (ys[2:] - ys[:-2]) / (ts[2:] - ts[:-2])
        h0, h1 = ts[1] - ts[0], ts[2] - ts[0]
        dy[a] = (ys[1] - ys[0]) / h0 * (h1 / (h1 - h0)) \
            - (ys[2] - ys[0]) / h1 * (h0 / (h1 - h0))
        h0, h1 = ts[-1] - ts[-2], ts[-1] - ts[-3]
        dy[b] = (ys[-1] - ys[-2]) / h0 * (h1 / (h1 - h0)) \
            - (ys[-1] - ys[-3]) / h1 * (h0 / (h1 - h0))
    return dy


def _multiplier_reference(t, u, tol):
    """multiplier_check as first written, with a new array for every
    intermediate: the reference for the in-place version's bytes."""
    slope_in = np.empty_like(u)
    slope_in[1:] = np.diff(u) / np.diff(t)
    slope_in[0] = slope_in[1]
    active = slope_in > variational.ACTIVITY_THRESHOLD
    starts = np.flatnonzero(np.diff(active, prepend=~active[0])).tolist()
    runs = list(zip(starts, [a - 1 for a in starts[1:]] + [active.size - 1]))
    w_sq = _derivative_reference(t, u, runs)
    v_sq = 1.0 - u - w_sq * t
    mu1 = np.where(active, -np.log(t) - 1.0, 0.0)
    mu2 = np.where(active, t * (1.0 + mu1), 0.0)
    for a, b in runs:
        if active[a]:
            continue
        if a > 0:
            mu2[a:b + 1] = mu2[a - 1]
        elif b + 1 < active.size:
            mu2[a:b + 1] = mu2[b + 1]
    residuals = (np.max(np.abs(_derivative_reference(t, mu2, runs) - mu1)),
                 np.max(np.abs(v_sq * mu1)),
                 np.max(np.abs(w_sq * (mu2 - t * (1.0 + mu1)))),
                 v_sq.min(), w_sq.min())
    v_sq[(v_sq < 0) & (v_sq >= -tol)] = 0.0
    w_sq[(w_sq < 0) & (w_sq >= -tol)] = 0.0
    return (w_sq, v_sq, mu1, mu2, active), residuals


def _multiplier_cases():
    """(t, u) pairs: the secretary grids, short and alternating runs, a
    constant candidate and a random non-decreasing one on a random grid."""
    for points in (10**4, 10**6):
        t, candidates = _secretary_grid(points)
        for u in candidates.values():
            yield t, u
    t = np.arange(1, 11) / 16
    yield t, np.array([0, 0, 0, 1, 1, 1, 3, 5, 5, 5]) / 16
    t = np.arange(1, 1001) / 1000
    u = np.where(t < 0.5, np.clip(t - 0.3, 0.0, None), 0.2)
    yield t, np.where(t >= 0.7, 0.2 + (t - 0.7), u)
    yield t, np.full(t.size, 0.25)
    rng = np.random.default_rng(5)
    t = np.unique(rng.random(5000))
    t = t[t > 0]
    yield t, np.cumsum(rng.random(t.size) * (rng.random(t.size) < 0.5)) * 1e-3


def test_multiplier_check_matches_reference_across_chunks():
    # a grid of 2 chunks and a part, its activity runs crossing chunk
    # boundaries: a lead-in, a run longer than a chunk, a singleton, a
    # two-point run on the second boundary and a run to the end
    C = variational._CHUNK
    n = 2 * C + 777
    rng = np.random.default_rng(30)
    t = np.cumsum(rng.uniform(0.5, 1.5, n))
    t /= t[-1]
    rise = np.zeros(n)
    for a, b in ((1000, C + 1500), (C + 1502, C + 1503), (2 * C - 1, 2 * C + 1),
                 (2 * C + 50, n)):
        rise[a:b] = rng.uniform(0.5, 1.5, b - a) * 1e-7
    u = np.cumsum(rise)
    prof, rep = multiplier_check(t, u, tol=1e-6)
    arrays, residuals = _multiplier_reference(t, u, 1e-6)
    starts = np.flatnonzero(np.diff(rep.active, prepend=~rep.active[0])).tolist()
    assert starts == [0, 1000, C + 1500, C + 1502, C + 1503, 2 * C - 1, 2 * C + 1,
                      2 * C + 50]
    got = (prof.w_sq, prof.v_sq, prof.mu1, prof.mu2, rep.active)
    for a, b in zip(got, arrays):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    got = [rep.residual_stationarity, rep.residual_slack, rep.residual_drive,
           rep.min_v_sq, rep.min_w_sq]
    assert [v.hex() for v in got] == [float(r).hex() for r in residuals]


def test_multiplier_check_matches_reference_bytes():
    for t, u in _multiplier_cases():
        prof, rep = multiplier_check(t, u, tol=1e-6)
        arrays, residuals = _multiplier_reference(t, u, 1e-6)
        got = (prof.w_sq, prof.v_sq, prof.mu1, prof.mu2, rep.active)
        for a, b in zip(got, arrays):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        got = [rep.residual_stationarity, rep.residual_slack, rep.residual_drive,
               rep.min_v_sq, rep.min_w_sq]
        assert [v.hex() for v in got] == [float(r).hex() for r in residuals]

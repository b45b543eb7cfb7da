import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, simpson

from lplimits import (
    FamilySpec,
    LpInputError,
    discretize_profile,
    eval_profile,
    integrate_tight_ode,
    multiplier_check,
)
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


def test_discretize_rejects_mismatch():
    with pytest.raises(LpInputError):
        discretize_profile(RANKING_G, FamilySpec("balance", 10))
    with pytest.raises(LpInputError):
        discretize_profile(RANKING_U, FamilySpec("ranking", 10))


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
    assert prof.u[0] <= 1e-9


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

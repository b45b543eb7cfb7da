"""Continuum-limit objects: closed-form optimizer profiles, tight-constraint
ODE integration, the discretization bridge back to finite LPs, and a numeric
checker for the stationarity conditions of the secretary optimizer.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .families import INV_E, FamilySpec
from .lp_core import LpInputError, check_feasibility

# u_dot above this level counts as "active" (tight constraint); separates the
# flat piece of the secretary optimizer from the hyperbolic piece.
ACTIVITY_THRESHOLD = 1e-6


@dataclass(frozen=True)
class ContinuumProfile:
    """A named closed-form function on [0, 1]."""

    tag: str
    fn: Callable[[np.ndarray], np.ndarray]
    family: str | None = None           # family a g-profile discretizes into
    continuum_objective: float | None = None

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float))

    @property
    def is_g_profile(self) -> bool:
        return self.tag.endswith("G")


def _exp_neg(t):
    return np.exp(-t)


def _one_minus_exp_neg(t):
    return -np.expm1(-t)


def _balance_v(t):
    return np.exp(-t) - (1.0 - t)


def _secretary_u(t):
    t = np.asarray(t, dtype=float)
    vals = 1.0 - INV_E / np.where(t > 0, t, 1.0)
    return np.where(t > INV_E, vals, 0.0)


def _secretary_g(t):
    t = np.asarray(t, dtype=float)
    vals = INV_E / np.where(t > 0, t, 1.0)
    return np.where(t > INV_E, vals, 0.0)  # 0 at the threshold: left-closed


TOY_G = ContinuumProfile("ToyG", _exp_neg, family="toy",
                         continuum_objective=1.0 - INV_E)
BALANCE_G = ContinuumProfile("BalanceG", _exp_neg, family="balance",
                             continuum_objective=INV_E)
BALANCE_U = ContinuumProfile("BalanceU", _one_minus_exp_neg)
BALANCE_V = ContinuumProfile("BalanceV", _balance_v)
RANKING_G = ContinuumProfile("RankingG", _exp_neg, family="ranking",
                             continuum_objective=1.0 - INV_E)
RANKING_U = ContinuumProfile("RankingU", _one_minus_exp_neg)
SECRETARY_G = ContinuumProfile("SecretaryG", _secretary_g, family="secretary",
                               continuum_objective=INV_E)
SECRETARY_U = ContinuumProfile("SecretaryU", _secretary_u)

PROFILES = {p.tag: p for p in (
    TOY_G, BALANCE_G, BALANCE_U, BALANCE_V, RANKING_G, RANKING_U,
    SECRETARY_G, SECRETARY_U,
)}


def eval_profile(profile: ContinuumProfile | str, t: float) -> float:
    """Closed-form profile value at a point of [0, 1]."""
    if isinstance(profile, str):
        profile = PROFILES[profile]
    if not 0.0 <= t <= 1.0:
        raise LpInputError(f"t={t} outside [0, 1]")
    return float(profile(t))


@dataclass(frozen=True)
class OdeTrajectory:
    kind: str
    step: float
    ts: np.ndarray
    values: np.ndarray

    @property
    def terminal(self) -> float:
        return float(self.values[-1])


_ODE_RHS = {
    # tight main constraint of each continuum program, with zero initial value
    "balance": lambda t, v: t - v,       # v + v' = t
    "ranking": lambda t, u: 1.0 - u,     # u + u' = 1
}

ODE_CLOSED_FORM = {
    "balance": _balance_v,
    "ranking": _one_minus_exp_neg,
}

ODE_TERMINAL = {
    "balance": INV_E,
    "ranking": 1.0 - INV_E,
}


def integrate_tight_ode(kind: str, step: float) -> OdeTrajectory:
    """Classical RK4 on the tight-constraint ODE over [0, 1].

    The step is snapped to 1/round(1/step) so the uniform grid ends exactly
    at t = 1; terminal error is O(step^4).
    """
    if kind not in _ODE_RHS:
        raise LpInputError(f"unknown ode kind {kind!r}")
    if not 0.0 < step <= 1e-2:
        raise LpInputError("step must be in (0, 1e-2]")
    f = _ODE_RHS[kind]
    n = max(1, round(1.0 / step))
    h = 1.0 / n
    ts = np.linspace(0.0, 1.0, n + 1)
    ys = np.empty(n + 1)
    y = 0.0
    ys[0] = y
    for k in range(n):
        t = ts[k]
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        ys[k + 1] = y
    return OdeTrajectory(kind=kind, step=h, ts=ts, values=ys)


@dataclass(frozen=True)
class DiscretizationGap:
    family: str
    size: int
    max_violation: float
    lp_objective: float
    continuum_objective: float

    @property
    def objective_gap(self) -> float:
        return abs(self.lp_objective - self.continuum_objective)


def discretize_profile(profile, family: FamilySpec):
    """Sample a continuum g-profile into a finite primal vector.

    Sampling rules: toy/ranking  x_i = g(i/n); balance N x_i = g(i/N);
    secretary i x_i = g(i/n).  Returns the vector and a gap report against
    the family LP (max constraint violation, objective difference).

    `profile` is either a canonical g-profile matching the family kind, or a
    bare callable g (its continuum objective is then taken by quadrature).
    """
    n = family.size
    if isinstance(profile, ContinuumProfile):
        if not profile.is_g_profile:
            raise LpInputError(f"{profile.tag} is not a g-profile")
        if profile.family != family.kind:
            raise LpInputError(
                f"profile {profile.tag} does not match family {family.kind!r}")
        g = profile.fn
        continuum = profile.continuum_objective
    elif callable(profile):
        g = profile
        continuum = None
    else:
        raise LpInputError("profile must be a ContinuumProfile or callable")

    grid = np.arange(1, n + 1) / n
    gv = np.asarray(g(grid), dtype=float)
    if family.kind in ("toy", "ranking"):
        x = gv
    elif family.kind == "balance":
        x = gv / n
    else:  # secretary
        x = gv / np.arange(1, n + 1)

    if continuum is None:
        continuum = _quadrature_objective(g, family.kind)

    lp = family.build()
    report = check_feasibility(lp, x, tol=2.0 / n)
    lp_obj = float(lp.objective @ x)
    gap = DiscretizationGap(family=family.kind, size=n,
                            max_violation=report.max_violation,
                            lp_objective=lp_obj,
                            continuum_objective=float(continuum))
    return x, gap


def _quadrature_objective(g, kind: str, panels: int = 100_000) -> float:
    from scipy.integrate import simpson

    t = np.linspace(0.0, 1.0, panels + 1)
    gv = np.asarray(g(t), dtype=float)
    w = (1.0 - t) if kind == "balance" else np.ones_like(t)
    return float(simpson(gv * w, x=t))


@dataclass(frozen=True)
class MultiplierProfile:
    grid: np.ndarray
    u: np.ndarray
    u_dot: np.ndarray
    w_sq: np.ndarray
    v_sq: np.ndarray
    mu1: np.ndarray
    mu2: np.ndarray


@dataclass(frozen=True)
class MultiplierReport:
    residual_stationarity: float   # d(mu2)/dt - mu1
    residual_slack: float          # v^2 * mu1
    residual_drive: float          # w^2 * (mu2 - t (1 + mu1))
    min_v_sq: float
    min_w_sq: float
    active: np.ndarray
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.residual_stationarity, self.residual_slack,
                    self.residual_drive)

    @property
    def passed(self) -> bool:
        return (self.max_residual <= self.tol
                and self.min_v_sq >= -self.tol
                and self.min_w_sq >= -self.tol)


def _segment_derivative(t: np.ndarray, y: np.ndarray, runs) -> np.ndarray:
    """Finite differences that never straddle a run boundary.

    Centered in run interiors, second-order one-sided at run endpoints
    (first-order for two-point runs, adjacent slope for singletons).
    """
    dy = np.empty_like(y)
    for a, b in runs:  # run covers indices a..b inclusive
        ln = b - a + 1
        if ln == 1:
            if a > 0:
                dy[a] = (y[a] - y[a - 1]) / (t[a] - t[a - 1])
            else:
                dy[a] = (y[a + 1] - y[a]) / (t[a + 1] - t[a])
            continue
        if ln == 2:
            s = (y[b] - y[a]) / (t[b] - t[a])
            dy[a] = dy[b] = s
            continue
        ts, ys = t[a:b + 1], y[a:b + 1]
        interior = (ys[2:] - ys[:-2]) / (ts[2:] - ts[:-2])
        dy[a + 1:b] = interior
        h0, h1 = ts[1] - ts[0], ts[2] - ts[0]
        dy[a] = (ys[1] - ys[0]) / h0 * (h1 / (h1 - h0)) \
            - (ys[2] - ys[0]) / h1 * (h0 / (h1 - h0))
        h0, h1 = ts[-1] - ts[-2], ts[-1] - ts[-3]
        dy[b] = (ys[-1] - ys[-2]) / h0 * (h1 / (h1 - h0)) \
            - (ys[-1] - ys[-3]) / h1 * (h0 / (h1 - h0))
    return dy


def _runs_of(mask: np.ndarray):
    """Maximal runs of constant mask value, as (start, stop, value)."""
    starts = np.flatnonzero(np.diff(mask, prepend=~mask[0]))
    stops = np.append(starts[1:] - 1, mask.size - 1)
    return [(int(a), int(b), bool(mask[a])) for a, b in zip(starts, stops)]


def multiplier_check(grid, u_candidate, tol: float = 1e-6):
    """Construct Lagrange multipliers for a secretary u-trajectory and report
    how badly the stationarity conditions fail.

    From the candidate: w^2 = du/dt, v^2 = 1 - u - t du/dt.  On the active
    region (du/dt above the activity threshold) mu1 = -ln t - 1 (the constant
    fixed by continuity of mu1 at the activity boundary) and
    mu2 = t (1 + mu1); on inactive stretches mu1 = 0 and mu2 is constant,
    matched by continuity to the adjacent active value.  The three residuals
    are d(mu2)/dt - mu1, v^2 mu1 and w^2 (mu2 - t (1 + mu1)); all derivatives
    are finite differences that do not cross an activity boundary.
    """
    t = np.asarray(grid, dtype=float)
    u = np.asarray(u_candidate, dtype=float)
    if t.ndim != 1 or t.size < 3 or u.shape != t.shape:
        raise LpInputError("grid and candidate must be equal-length 1-d arrays")
    if t[0] <= 0.0 or t[-1] > 1.0 or np.any(np.diff(t) <= 0):
        raise LpInputError("grid must be strictly increasing within (0, 1]")
    du = np.diff(u)
    if np.any(du < -1e-12):
        raise LpInputError("u_candidate must be non-decreasing")

    # classify by the left-sided slope so a kink never smears into the flat
    # side; the first point uses its right-sided slope
    slope_in = np.empty_like(u)
    slope_in[1:] = du / np.diff(t)
    slope_in[0] = slope_in[1]
    active = slope_in > ACTIVITY_THRESHOLD
    run_list = _runs_of(active)
    runs = [(a, b) for a, b, _ in run_list]

    u_dot = _segment_derivative(t, u, runs)
    w_sq = u_dot.copy()
    v_sq = 1.0 - u - u_dot * t

    mu1 = np.where(active, -np.log(t) - 1.0, 0.0)
    mu2 = np.where(active, t * (1.0 + mu1), 0.0)
    for idx, (a, b, is_active) in enumerate(run_list):
        if is_active:
            continue
        if idx > 0:
            mu2[a:b + 1] = mu2[run_list[idx - 1][1]]   # carry from the left
        elif idx + 1 < len(run_list):
            mu2[a:b + 1] = mu2[run_list[idx + 1][0]]   # lead-in: match ahead

    mu2_dot = _segment_derivative(t, mu2, runs)
    res_stat = float(np.max(np.abs(mu2_dot - mu1)))
    res_slack = float(np.max(np.abs(v_sq * mu1)))
    res_drive = float(np.max(np.abs(w_sq * (mu2 - t * (1.0 + mu1)))))
    min_v, min_w = float(v_sq.min()), float(w_sq.min())
    # tiny FD negatives within tolerance are squashed so the stored fields
    # really are squares; the report keeps the raw minima
    v_sq[(v_sq < 0) & (v_sq >= -tol)] = 0.0
    w_sq[(w_sq < 0) & (w_sq >= -tol)] = 0.0

    profile = MultiplierProfile(grid=t, u=u, u_dot=u_dot, w_sq=w_sq,
                                v_sq=v_sq, mu1=mu1, mu2=mu2)
    report = MultiplierReport(residual_stationarity=res_stat,
                              residual_slack=res_slack,
                              residual_drive=res_drive,
                              min_v_sq=min_v, min_w_sq=min_w,
                              active=active, tol=tol)
    return profile, report


def write_trajectory_csv(path, ts, values, header=("t", "value")) -> None:
    """Two-column CSV export used for ODE and profile trajectories."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for t, v in zip(ts, values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")

"""Continuum-limit objects: closed-form optimizer profiles, tight-constraint
ODE integration, the discretization bridge back to finite LPs, and a numeric
checker for the stationarity conditions of the secretary optimizer.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .families import _CHUNK, FAMILIES, INV_E, ORACLE_SIZE_CAP, FamilySpec, _geometric
from .lp_core import LpInputError, _as_float, _as_floats, _as_tol, check_feasibility

# u_dot above this level counts as "active" (tight constraint); separates the
# flat piece of the secretary optimizer from the hyperbolic piece.
ACTIVITY_THRESHOLD = 1e-6


@dataclass(frozen=True)
class ContinuumProfile:
    """A named closed-form function on [0, 1].

    A g-profile names the family it discretizes into; its continuum
    objective is that family's limit.
    """

    tag: str
    fn: Callable[[np.ndarray], np.ndarray]
    family: str | None = None

    def __call__(self, t):
        return self.fn(_as_floats(t, "t"))


def _exp_neg(t):
    return np.exp(-t)


def _one_minus_exp_neg(t):
    return -np.expm1(-t)


def _balance_v(t):
    return np.exp(-t) - (1.0 - t)


def _secretary_u(t):
    vals = np.where(t > INV_E, t, INV_E)   # INV_E / INV_E is exactly 1
    np.divide(INV_E, vals, out=vals)
    return np.subtract(1.0, vals, out=vals)


def _secretary_g(t):
    vals = np.where(t > INV_E, t, np.inf)  # 0 at the threshold: left-closed
    return np.divide(INV_E, vals, out=vals)


TOY_G = ContinuumProfile("ToyG", _exp_neg, family="toy")
BALANCE_G = ContinuumProfile("BalanceG", _exp_neg, family="balance")
BALANCE_U = ContinuumProfile("BalanceU", _one_minus_exp_neg)
BALANCE_V = ContinuumProfile("BalanceV", _balance_v)
RANKING_G = ContinuumProfile("RankingG", _exp_neg, family="ranking")
RANKING_U = ContinuumProfile("RankingU", _one_minus_exp_neg)
SECRETARY_G = ContinuumProfile("SecretaryG", _secretary_g, family="secretary")
SECRETARY_U = ContinuumProfile("SecretaryU", _secretary_u)

PROFILES = {p.tag: p for p in (
    TOY_G, BALANCE_G, BALANCE_U, BALANCE_V, RANKING_G, RANKING_U,
    SECRETARY_G, SECRETARY_U,
)}


def eval_profile(profile: ContinuumProfile | str, t: float) -> float:
    """Closed-form profile value at a point of [0, 1]."""
    profile = PROFILES.get(profile, profile) if isinstance(profile, str) else profile
    if not callable(profile):
        raise LpInputError(f"unknown profile tag {profile!r}")
    t = _as_float(t, "t")
    if not 0.0 <= t <= 1.0:
        raise LpInputError(f"t={t} outside [0, 1]")
    return float(profile(t))


@dataclass(frozen=True)
class OdeTrajectory:
    kind: str
    ts: np.ndarray
    values: np.ndarray

    @property
    def terminal(self) -> float:
        return float(self.values[-1])


ODE_CLOSED_FORM = {k: PROFILES[f.ode_solution] for k, f in FAMILIES.items() if f.ode}
ODE_TERMINAL = {k: f.limit for k, f in FAMILIES.items() if f.ode}


def integrate_tight_ode(kind: str, step: float) -> OdeTrajectory:
    """Classical RK4 on the tight-constraint ODE over [0, 1], in closed form.

    The step is snapped to h = 1/round(1/step) so the uniform grid ends
    exactly at t = 1; terminal error is O(step^4).  The ODE is linear and
    RK4 is exact on its line alpha + beta (t - 1), so every step scales the
    distance to that line by R = 1 - q, q = h - h^2/2 + h^3/6 - h^4/24: the
    RK4 iterates are y_k = alpha + beta (t_k - 1) + (beta - alpha) R^k, with
    R^k taken as exp(k log1p(-q)) so the rounding of R does not grow with k.
    The values are built in place on the R^k array, one ``_CHUNK`` at a
    time: two arrays of n + 1 floats and one chunk at the peak.
    """
    if not isinstance(kind, str) or kind not in ODE_TERMINAL:
        raise LpInputError(f"unknown ode kind {kind!r}")
    step = _as_float(step, "step")
    if not 0.0 < step <= 1e-2:
        raise LpInputError("step must be in (0, 1e-2]")
    steps = 1.0 / step   # inf for a subnormal step, which round() refuses
    if steps > ORACLE_SIZE_CAP + 0.5:
        raise LpInputError(f"step {step!r} needs more steps than the cap "
                           f"{ORACLE_SIZE_CAP}")
    n = round(steps)
    alpha, beta = FAMILIES[kind].ode   # y' = alpha + beta t - y, y(0) = 0
    h = 1.0 / n
    q = h * (1.0 - h / 2 * (1.0 - h / 3 * (1.0 - h / 4)))
    ts = np.linspace(0.0, 1.0, n + 1)
    ys = _geometric(0, n + 1, np.log1p(-q))
    line = np.empty(min(n + 1, _CHUNK))
    for a in range(0, n + 1, _CHUNK):
        chunk = ys[a:a + _CHUNK]
        head = np.subtract(ts[a:a + _CHUNK], 1.0, out=line[:chunk.size])
        head *= beta
        head += alpha
        chunk *= beta - alpha
        chunk += head
    return OdeTrajectory(kind=kind, ts=ts, values=ys)


@dataclass(frozen=True)
class DiscretizationGap:
    max_violation: float
    lp_objective: float
    continuum_objective: float

    @property
    def objective_gap(self) -> float:
        return abs(self.lp_objective - self.continuum_objective)


def discretize_profile(profile, family: FamilySpec):
    """Sample a continuum g-profile into a finite primal vector.

    x_i = g(i/n) / d_i, with d the family's ``x_scale``: 1, n or i.  Returns
    the vector and a gap report against the family LP (max constraint
    violation, objective difference), checked through the family's
    ``FamilyLp``, so no n x n matrix is built.

    `profile` is either a canonical g-profile matching the family kind, or a
    bare callable g (its continuum objective is then taken by quadrature).
    g must map the n points i/n to n values; any other shape, a scalar
    included, is refused.
    A size past the cap of ``family.operator()`` is refused before g is
    sampled.
    """
    if not isinstance(family, FamilySpec):
        raise LpInputError(f"family must be a FamilySpec, got {type(family).__name__}")
    n, fam = family.size, FAMILIES[family.kind]
    if isinstance(profile, ContinuumProfile):
        if profile.family is None:
            raise LpInputError(f"{profile.tag} is not a g-profile")
        if profile.family != family.kind:
            raise LpInputError(
                f"profile {profile.tag} does not match family {family.kind!r}")
        g = profile.fn
    elif callable(profile):
        g = profile
    else:
        raise LpInputError("profile must be a ContinuumProfile or callable")

    lp = family.operator()
    i = np.arange(1, n + 1)
    values = _as_floats(g(i / n), "profile values")
    if values.shape != (n,):   # before the scaling, which would broadcast it
        raise LpInputError(f"profile values must have shape ({n},), got {values.shape}")
    x = values / fam.x_scale(i, n)
    continuum = (fam.limit if isinstance(profile, ContinuumProfile)
                 else _quadrature_objective(g, fam.weight))

    report = check_feasibility(lp, x, tol=2.0 / n)
    lp_obj = float(lp.objective @ x)
    gap = DiscretizationGap(max_violation=report.max_violation,
                            lp_objective=lp_obj,
                            continuum_objective=float(continuum))
    return x, gap


def _quadrature_objective(g, weight) -> float:
    """Composite Simpson rule (weights 1, 4, 2, ..., 4, 1) of g(t) weight(t)."""
    panels = 100_000   # even
    t = np.linspace(0.0, 1.0, panels + 1)
    y = _as_floats(g(t), "profile values") * weight(t)
    return float(y[:-1:2].sum() + 4.0 * y[1::2].sum() + y[2::2].sum()) / (3 * panels)


@dataclass(frozen=True)
class MultiplierProfile:
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


def _segment_derivative(t: np.ndarray, y: np.ndarray, runs, span) -> np.ndarray:
    """Finite differences that never straddle a run boundary.

    Centered in run interiors, second-order one-sided at run endpoints
    (first-order for two-point runs, left slope for singletons).  A run
    starting at index 0 has at least two points: multiplier_check gives
    indices 0 and 1 the same activity.  ``span[i]`` holds the centred step
    t[i + 1] - t[i - 1] for 0 < i < len(t) - 1, so the interior quotient is
    written straight into the result.
    """
    dy = np.empty_like(y)
    for a, b in runs:  # run covers indices a..b inclusive
        ln = b - a + 1
        if ln == 1:
            dy[a] = (y[a] - y[a - 1]) / (t[a] - t[a - 1])
            continue
        if ln == 2:
            s = (y[b] - y[a]) / (t[b] - t[a])
            dy[a] = dy[b] = s
            continue
        ts, ys = t[a:b + 1], y[a:b + 1]
        interior = dy[a + 1:b]
        np.subtract(ys[2:], ys[:-2], out=interior)
        interior /= span[a + 1:b]
        h0, h1 = ts[1] - ts[0], ts[2] - ts[0]
        dy[a] = (ys[1] - ys[0]) / h0 * (h1 / (h1 - h0)) \
            - (ys[2] - ys[0]) / h1 * (h0 / (h1 - h0))
        h0, h1 = ts[-1] - ts[-2], ts[-1] - ts[-3]
        dy[b] = (ys[-1] - ys[-2]) / h0 * (h1 / (h1 - h0)) \
            - (ys[-1] - ys[-3]) / h1 * (h0 / (h1 - h0))
    return dy


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

    Every value is computed in place, in the order the formulas give: besides
    the four result arrays, one scratch array holds the slopes, then the
    centred steps, then each residual, and d(mu2)/dt's array becomes v^2.
    The slopes, mu1 and mu2, and the residuals with their minima and squash
    run over ``_CHUNK``-sized pieces, each finished while it is in cache;
    the finite differences run over whole runs, where chunking measured no
    faster.  The bytes are those of the whole-array formulas.
    """
    t, u = _as_floats(grid, "grid"), _as_floats(u_candidate, "u_candidate")
    if t.ndim != 1 or u.shape != t.shape:
        raise LpInputError("grid and candidate must be equal-length 1-d arrays")
    if t.size < 3:
        raise LpInputError(f"grid needs at least 3 points, got {t.size}")
    slope_in = np.empty_like(u)
    bounds = [(a, min(a + _CHUNK, t.size)) for a in range(1, t.size, _CHUNK)]
    if t[0] <= 0.0 or t[-1] > 1.0 or any(
            np.any(np.subtract(t[a:e], t[a - 1:e - 1], out=slope_in[a:e]) <= 0)
            for a, e in bounds):
        raise LpInputError("grid must be strictly increasing within (0, 1]")
    tol = _as_tol(tol)

    # classify by the left-sided slope so a kink never smears into the flat
    # side; the first point uses its right-sided slope
    du = np.empty(min(t.size - 1, _CHUNK))
    for a, e in bounds:
        step = np.subtract(u[a:e], u[a - 1:e - 1], out=du[:e - a])
        if np.any(step < -1e-12):
            raise LpInputError("u_candidate must be non-decreasing")
        np.divide(step, slope_in[a:e], out=slope_in[a:e])
    slope_in[0] = slope_in[1]
    active = slope_in > ACTIVITY_THRESHOLD
    inactive = ~active
    # maximal runs of constant activity, as inclusive index ranges [a, b]
    starts = np.flatnonzero(np.diff(active, prepend=inactive[0])).tolist()
    runs = list(zip(starts, [a - 1 for a in starts[1:]] + [active.size - 1]))

    # from here on the slopes' array is scratch: the centred steps
    # t[i + 1] - t[i - 1] for both derivatives, then each residual
    scratch = slope_in
    np.subtract(t[2:], t[:-2], out=scratch[1:-1])
    w_sq = _segment_derivative(t, u, runs, scratch)   # w^2 = du/dt

    mu1, mu2 = np.empty_like(t), np.empty_like(t)
    for a in range(0, t.size, _CHUNK):
        part = slice(a, a + _CHUNK)
        ts, off = t[part], inactive[part]
        m1 = np.log(ts, out=mu1[part])
        np.negative(m1, out=m1)
        m1 -= 1.0
        np.copyto(m1, 0.0, where=off)
        m2 = np.add(1.0, m1, out=mu2[part])
        m2 *= ts
        np.copyto(m2, 0.0, where=off)
    for a, b in runs:
        if active[a]:
            continue
        if a > 0:
            mu2[a:b + 1] = mu2[a - 1]   # carry from the left
        elif b + 1 < active.size:
            mu2[a:b + 1] = mu2[b + 1]   # lead-in: match ahead

    stat = _segment_derivative(t, mu2, runs, scratch)   # d(mu2)/dt
    # the residuals, minima and squash, one chunk at a time: each chunk of
    # d(mu2)/dt becomes v^2 once its residual is taken; a row of extremes
    # per chunk holds the three max |residual|, min v^2 and min w^2
    v_sq = stat
    extremes = np.empty((5, -(-t.size // _CHUNK)))
    for i, a in enumerate(range(0, t.size, _CHUNK)):
        part = slice(a, a + _CHUNK)
        v, w, m1, ts = v_sq[part], w_sq[part], mu1[part], t[part]
        v -= m1
        extremes[0, i] = np.abs(v, out=v).max()
        np.subtract(1.0, u[part], out=v)
        v -= np.multiply(w, ts, out=scratch[part])
        slack = np.multiply(v, m1, out=scratch[part])
        extremes[1, i] = np.abs(slack, out=slack).max()
        drive = np.add(1.0, m1, out=scratch[part])
        drive *= ts
        np.subtract(mu2[part], drive, out=drive)
        drive *= w
        extremes[2, i] = np.abs(drive, out=drive).max()
        extremes[3, i], extremes[4, i] = v.min(), w.min()
        # tiny FD negatives within tolerance are squashed so the stored
        # fields really are squares; the report keeps the raw minima
        np.copyto(v, 0.0, where=(v < 0) & (v >= -tol))
        np.copyto(w, 0.0, where=(w < 0) & (w >= -tol))
    res_stat, res_slack, res_drive = extremes[:3].max(axis=1).tolist()
    min_v, min_w = extremes[3:].min(axis=1).tolist()

    profile = MultiplierProfile(w_sq=w_sq, v_sq=v_sq, mu1=mu1, mu2=mu2)
    report = MultiplierReport(residual_stationarity=res_stat,
                              residual_slack=res_slack,
                              residual_drive=res_drive,
                              min_v_sq=min_v, min_w_sq=min_w,
                              active=active, tol=tol)
    return profile, report


def write_trajectory_csv(path, ts, values) -> None:
    """Two-column ``t,value`` CSV export used for ODE and profile trajectories."""
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for t, v in zip(ts, values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lplimits import (
    DenseLp,
    LpInputError,
    build_balance,
    build_ranking,
    build_secretary,
    build_toy,
    certify,
    check_feasibility,
    discretize_profile,
    dump_lp,
    load_lp,
    solve,
)
from lplimits.families import FAMILY_KINDS, SIMPLEX_SIZE_CAP, FamilySpec, best_threshold
from lplimits.lp_core import (_BLOCK_GAP, _UFUNC_BUFSIZE, EQ, GE, LE, MAXIMIZE, MINIMIZE,
                              _blocks, _Tableau)


SIGN = {LE: 1.0, GE: -1.0, EQ: 0.0}


def box_lp(sense, c, rows, rels, rhs, lo=None, hi=None):
    c = np.asarray(c, float)
    n = c.size
    return DenseLp(sense=sense, objective=c, rows=np.asarray(rows, float),
                   sign=[SIGN[r] for r in rels], rhs=np.asarray(rhs, float),
                   var_lower=np.zeros(n) if lo is None else np.asarray(lo, float),
                   var_upper=np.ones(n) if hi is None else np.asarray(hi, float))


def test_toy_n1_forced_to_one():
    sol = solve(build_toy(1))
    assert sol.status == "optimal"
    assert sol.x == pytest.approx([1.0], abs=1e-12)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-12)


def test_toy_n2_matches_hand_solution_and_grid():
    sol = solve(build_toy(2))
    assert sol.x == pytest.approx([1.0, 0.5], abs=1e-10)
    assert sol.objective_value == pytest.approx(0.75, abs=1e-12)
    # brute force over the [0,1]^2 grid at step 1e-3
    g = np.linspace(0.0, 1.0, 1001)
    x1, x2 = np.meshgrid(g, g, indexing="ij")
    feas = (1 - x1 <= 0 + 1e-12) & (1 - x2 <= 0.5 * x1 + 1e-12) & (x1 >= x2)
    best = np.min(np.where(feas, 0.5 * (x1 + x2), np.inf))
    assert best == pytest.approx(sol.objective_value, abs=1e-9)


def test_balance_n2_vertex_enumeration():
    lp = build_balance(2)
    sol = solve(lp)
    assert sol.objective_value == pytest.approx(0.25, abs=1e-12)
    assert sol.x[0] == pytest.approx(0.5, abs=1e-12)
    # enumerate vertices of {x1 <= 1/2, 1.5 x1 + x2 <= 1, x in [0,1]^2}
    best = -np.inf
    for x1 in (0.0, 0.5):
        for x2 in (0.0, 1.0, 1.0 - 1.5 * x1):
            x = np.array([x1, min(max(x2, 0.0), 1.0)])
            if check_feasibility(lp, x, 1e-12).ok:
                best = max(best, float(lp.objective @ x))
    assert best == pytest.approx(sol.objective_value, abs=1e-12)


def test_check_feasibility_reports():
    lp = build_toy(2)
    assert check_feasibility(lp, [1.0, 0.5]).max_violation == 0.0
    rep = check_feasibility(lp, [0.0, 0.0])
    assert rep.max_violation == pytest.approx(1.0)
    assert rep.worst_row == 0
    with pytest.raises(LpInputError):
        check_feasibility(lp, [1.0, 0.5, 0.0])


def test_check_feasibility_rejects_non_finite_x():
    lp = build_ranking(4)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(LpInputError):
            check_feasibility(lp, [bad] * 4)
    with pytest.raises(LpInputError):
        discretize_profile(lambda t: np.full_like(t, np.nan), FamilySpec("ranking", 8))


def test_certify_ranking_small():
    lp = build_ranking(2)
    sol = solve(lp)
    assert sol.objective_value == pytest.approx(5.0 / 9.0, abs=1e-12)
    report = certify(lp, sol)
    assert report.passed
    assert report.gap <= 1e-9


def test_certify_rejects_perturbed_solution():
    lp = build_ranking(2)
    sol = solve(lp)
    x_bad = sol.x.copy()
    x_bad[0] += 1e-2
    bad = type(sol)(status="optimal", x=x_bad,
                    objective_value=float(lp.objective @ x_bad),
                    dual=sol.dual, iterations=sol.iterations)
    assert not certify(lp, bad).passed


def test_certify_refuses_non_optimal():
    lp = build_toy(2)
    sol = solve(lp, max_iterations=0)
    assert sol.status == "iteration_limit"
    with pytest.raises(LpInputError):
        certify(lp, sol)


def test_phase1_iteration_limit_is_reported():
    # the equality row needs an artificial, so phase 1 runs and stops at
    # once; x is the start corner, within its bounds
    lp = box_lp(MINIMIZE, [1.0, 2.0], [[1.0, 1.0]], [EQ], [1.0])
    assert _Tableau(lp).n_art == 1
    sol = solve(lp, max_iterations=0)
    assert sol.status == "iteration_limit" and sol.iterations == 0
    assert np.array_equal(sol.dual, np.zeros(1))
    assert np.all((lp.var_lower <= sol.x) & (sol.x <= lp.var_upper))


def test_singular_final_basis_is_refused_by_certify():
    # The final basis holds x2 and row 2's slack, both nonzero only in
    # row 2, so the basis matrix of the re-solve is singular.  The drifted
    # inverse still gives an answer, returned as refined; certify refuses
    # it (the exact optimum is 0.031)
    lp = box_lp(MAXIMIZE, [1.24, -2.18, -2.23],
                [[6.2e9, 0.0, 0.0], [-4.2e8, 0.0, 0.0], [-7500.0, 0.0, 5.1e7]],
                [LE, EQ, LE], [1.55e8, -1.05e7, -186.9], hi=np.ones(3))
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.030983, abs=1e-6)
    report = certify(lp, sol)
    assert not report.passed
    assert report.primal_feasibility == pytest.approx(388.5, abs=0.1)


@pytest.mark.parametrize("caller_bufsize", [np.getbufsize(), 4096], ids=["default", "4096"])
@pytest.mark.parametrize("ending", ["optimal", "infeasible", "iteration_limit"])
def test_pivot_loop_runs_under_the_small_ufunc_buffer(monkeypatch, caller_bufsize, ending):
    # the loop runs under _UFUNC_BUFSIZE, and every ending of solve gives the
    # caller back its own buffer size
    seen, run = [], _Tableau.run
    monkeypatch.setattr(_Tableau, "run", lambda tab, *args:
                        seen.append(np.getbufsize()) or run(tab, *args))
    equality = box_lp(MINIMIZE, [1.0, 2.0], [[1.0, 1.0]], [EQ], [1.0])  # phases 1 and 2
    before = np.setbufsize(caller_bufsize)
    try:
        lp, cap = {"optimal": (equality, None), "iteration_limit": (equality, 0),
                   "infeasible": (box_lp(MINIMIZE, [1.0], [[1.0]], [GE], [2.0]), None)}[ending]
        assert solve(lp, max_iterations=cap).status == ending
        after = np.getbufsize()
    finally:
        np.setbufsize(before)
    assert after == caller_bufsize
    # phase 2 runs after an optimal phase 1 only
    assert seen == [_UFUNC_BUFSIZE] * (1 if ending in ("infeasible", "iteration_limit") else 2)


def test_solve_and_certify_form_each_product_once(monkeypatch):
    # a solve forms A x at each start corner; its final re-solve forms the
    # right-hand side, then a refinement residual for x (A x) and for y
    # (A.T y); certify reuses its feasibility check's A x - b for
    # complementarity
    calls = []
    for name in ("matvec", "rmatvec"):
        product = getattr(DenseLp, name)
        monkeypatch.setattr(DenseLp, name, lambda lp, v, name=name, product=product:
                            calls.append(name) or product(lp, v))
    lp = build_ranking(12)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert calls == ["matvec"] * 4 + ["rmatvec"]
    calls.clear()
    assert certify(lp, sol).passed
    assert sorted(calls) == ["matvec", "rmatvec"]


def test_one_variable_strong_duality():
    lp = box_lp(MINIMIZE, [1.0], [[1.0]], [GE], [1.0], lo=[0.0], hi=[5.0])
    sol = solve(lp)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-12)
    rep = certify(lp, sol)
    assert rep.dual_objective == pytest.approx(1.0, abs=1e-12)
    assert rep.gap <= 1e-12


def test_infeasible_detected():
    lp = box_lp(MINIMIZE, [1.0], [[1.0]], [GE], [2.0])  # x >= 2, x <= 1
    assert solve(lp).status == "infeasible"


def test_equality_rows():
    lp = box_lp(MAXIMIZE, [1.0, 1.0], [[1.0, 1.0]], ["="], [0.7])
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.7, abs=1e-12)
    assert certify(lp, sol).passed


def test_bounds_only_lp():
    lp = DenseLp(sense=MAXIMIZE, objective=np.array([2.0, -1.0]),
                 rows=np.zeros((0, 2)), sign=(), rhs=np.zeros(0),
                 var_lower=np.array([0.0, 0.0]), var_upper=np.array([1.0, 3.0]))
    sol = solve(lp)
    assert sol.x == pytest.approx([1.0, 0.0])
    assert sol.objective_value == pytest.approx(2.0)


def test_rejects_bad_inputs():
    with pytest.raises(LpInputError):
        DenseLp(sense=MINIMIZE, objective=np.zeros(0), rows=np.zeros((0, 0)),
                sign=(), rhs=np.zeros(0), var_lower=np.zeros(0),
                var_upper=np.zeros(0))
    with pytest.raises(LpInputError):
        box_lp(MINIMIZE, [np.nan], [[1.0]], [LE], [1.0])
    with pytest.raises(LpInputError):
        box_lp(MINIMIZE, [1.0], [[np.inf]], [LE], [1.0])
    with pytest.raises(LpInputError):
        box_lp(MINIMIZE, [1.0], [[1.0]], [LE], [1.0], lo=[2.0], hi=[1.0])
    with pytest.raises(LpInputError):
        box_lp("max", [1.0], [[1.0]], [LE], [1.0])


@pytest.mark.parametrize("field, value, match", [
    ("rows", np.ones((1, 3)), r"rows must be \(m, 2\)"),
    ("rhs", np.ones(2), "sign/rhs length"),
    ("sign", (2.0,), "sign entries must be"),
    ("var_upper", np.ones(3), "bound vectors"),
    ("family_tag", "nope", "unknown family_tag"),
    # a zero-row matrix does not drop the rhs: n_rows comes from rhs
    ("rows", np.zeros((0, 2)), r"m = 1, got \(0, 2\)"),
    ("sign", (GE,), "sign must be numeric"),
    ("sign", (np.nan,), "non-finite entries in sign"),
    ("rows", [["a"]], "rows must be numeric"),
    ("rows", [[object()]], "rows must be numeric"),
    # a header field is a vector, or a scalar read as one entry
    ("objective", [[1.0, 1.0]], "objective must be a vector"),
    ("sign", [[-1.0]], "sign must be a vector"),
    ("rhs", [[1.0]], "rhs must be a vector"),
    ("var_lower", [[0.0], [0.0]], "var_lower must be a vector"),
    ("var_upper", [[1.0], [1.0]], "var_upper must be a vector"),
])
def test_dense_lp_rejects_malformed(field, value, match):
    lp = box_lp(MINIMIZE, [1.0, 1.0], [[1.0, 1.0]], [GE], [1.0])
    with pytest.raises(LpInputError, match=match):
        DenseLp(**{**vars(lp), field: value})


def test_deterministic_resolve_bit_identical():
    lp = build_ranking(40)
    a, b = solve(lp), solve(lp)
    assert np.array_equal(a.x, b.x)
    assert a.objective_value == b.objective_value
    assert a.iterations == b.iterations


@pytest.mark.parametrize("build,n", [(build_toy, 17), (build_ranking, 23)])
def test_row_scaling_leaves_optimum(build, n):
    lp = build(n)
    lam = 3.7
    scaled = DenseLp(sense=lp.sense, objective=lp.objective,
                     rows=lam * lp.rows, sign=lp.sign,
                     rhs=lam * lp.rhs, var_lower=lp.var_lower,
                     var_upper=lp.var_upper)
    a, b = solve(lp), solve(scaled)
    assert b.objective_value == pytest.approx(a.objective_value, abs=1e-10)
    assert b.x == pytest.approx(a.x, abs=1e-9)


@pytest.mark.parametrize("build,n", [
    (build_toy, 33), (build_balance, 48), (build_ranking, 57),
])
def test_solution_feasible_and_certified(build, n):
    lp = build(n)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert check_feasibility(lp, sol.x, 1e-9).max_violation == pytest.approx(0.0, abs=1e-9)
    assert certify(lp, sol).gap <= 1e-8 * (1.0 + abs(sol.objective_value))
    assert certify(lp, sol).passed
    assert np.all(sol.x >= lp.var_lower - 1e-9)
    assert np.all(sol.x <= lp.var_upper + 1e-9)


def highs(lp):
    """scipy's HiGHS on the same DenseLp: (result, objective in lp's sense)."""
    from scipy.optimize import linprog

    sgn = 1.0 if lp.sense == MINIMIZE else -1.0
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, rel, b in zip(lp.rows, lp.relations, lp.rhs):
        if rel == LE:
            a_ub.append(row); b_ub.append(b)
        elif rel == GE:
            a_ub.append(-row); b_ub.append(-b)
        else:
            a_eq.append(row); b_eq.append(b)
    ref = linprog(sgn * lp.objective, A_ub=np.array(a_ub) if a_ub else None,
                  b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=np.array(a_eq) if a_eq else None,
                  b_eq=np.array(b_eq) if b_eq else None,
                  bounds=list(zip(lp.var_lower, lp.var_upper)), method="highs")
    return ref, sgn * ref.fun if ref.status == 0 else None


# Badly scaled box LPs for fuzzing the solver.  fuzz_lp(seed) draws one LP
# from numpy.random.default_rng(seed):
# - n and m are uniform in 1..4, and the sense is minimize or maximize;
# - matrix and right-hand-side entries are +-k * 10^j, with 1 <= k < 100 and
#   -3 <= j <= 11, 30 % of them 0; the objective has the same form with
#   -2 <= j <= 2;
# - row signs are +1, -1 and 0 with probability 0.45, 0.45 and 0.1;
# - lower bounds are 0; each upper bound is 1 with probability 1/2, else
#   10^j with j uniform in 0..6.
# Entries spanning 14 orders of magnitude make the solver's absolute
# tolerances meet coefficients far from O(1), which the family LPs never do.
def _entries(rng, shape, low, high):
    """+-k * 10^j with 1 <= k < 100 and low <= j <= high, 30 % of them 0."""
    k = rng.integers(1, 100, shape)
    j = rng.integers(low, high + 1, shape)
    sign = rng.choice((-1.0, 1.0), shape)
    return np.where(rng.random(shape) < 0.3, 0.0, sign * k * 10.0 ** j)


def fuzz_lp(seed: int) -> DenseLp:
    """The fuzz LP of ``seed``: see above."""
    rng = np.random.default_rng(seed)
    n, m = (int(v) for v in rng.integers(1, 5, 2))
    sense = (MINIMIZE, MAXIMIZE)[int(rng.integers(0, 2))]
    rows = _entries(rng, (m, n), -3, 11)
    rhs = _entries(rng, m, -3, 11)
    objective = _entries(rng, n, -2, 2)
    sign = rng.choice((1.0, -1.0, 0.0), m, p=(0.45, 0.45, 0.1))
    upper = np.where(rng.random(n) < 0.5, 1.0, 10.0 ** rng.integers(0, 7, n))
    return DenseLp(sense=sense, objective=objective, rows=rows, sign=sign, rhs=rhs,
                   var_lower=np.zeros(n), var_upper=upper)



# Mixed LPs: integer data with arbitrary right-hand sides, whose feasibility
# is clear-cut, or non-integer, badly scaled data made feasible at an anchor
# point inside the box, with a slack margin of zero on many rows.
RELATIONS = (LE, GE, EQ)
LOWER = (0.0, -2.5, -1.0, 0.5, 3.0)
SPAN = (0.0, 0.5, 1.0, 4.0)          # 0 makes a fixed variable
SCALE = (1e-3, 1.0, 1e3)
ANCHOR = (0.0, 0.25, 0.5, 1.0)       # position of the anchor within each box
MARGIN = (0.0, 0.0, 0.5, 2.0)


def mixed_lp(sense, c, rows, rels, lo, span, rhs=None, anchor=None, margin=None):
    """A DenseLp; without rhs, each row holds at lo + anchor * span with the
    given margin (pushed to the feasible side, none on equality rows)."""
    if rhs is None:
        sign = np.array([SIGN[r] for r in rels])
        rhs = rows @ (lo + anchor * span) + sign * margin
    return box_lp(sense, c, rows, rels, rhs, lo, lo + span)


@st.composite
def mixed_lps(draw):
    n, m = draw(st.integers(1, 60)), draw(st.integers(0, 60))
    sense = draw(st.sampled_from((MINIMIZE, MAXIMIZE)))
    rel_weights = draw(st.sampled_from((RELATIONS, (LE, GE, EQ, EQ, EQ), (EQ,))))
    rels = draw(st.lists(st.sampled_from(rel_weights), min_size=m, max_size=m))
    lo = draw(hnp.arrays(float, n, elements=st.sampled_from(LOWER)))
    span = draw(hnp.arrays(float, n, elements=st.sampled_from(SPAN)))
    if draw(st.booleans()):
        rows = draw(hnp.arrays(float, (m, n), elements=st.integers(-4, 4).map(float),
                               fill=st.just(0.0)))
        c = draw(hnp.arrays(float, n, elements=st.integers(-5, 5).map(float)))
        rhs = draw(hnp.arrays(float, m, elements=st.integers(-6, 6).map(float)))
        return mixed_lp(sense, c, rows, rels, lo, span, rhs=rhs)
    thousandths = st.integers(-4000, 4000).map(lambda k: k / 1000)
    rows = draw(hnp.arrays(float, (m, n), elements=thousandths, fill=st.just(0.0)))
    rows *= draw(hnp.arrays(float, (m, 1), elements=st.sampled_from(SCALE)))
    c = draw(hnp.arrays(float, n, elements=thousandths)) * draw(st.sampled_from(SCALE))
    anchor = draw(hnp.arrays(float, n, elements=st.sampled_from(ANCHOR)))
    margin = draw(hnp.arrays(float, m, elements=st.sampled_from(MARGIN)))
    return mixed_lp(sense, c, rows, rels, lo, span, anchor=anchor,
                    margin=margin * np.abs(rows).max(axis=1, initial=0.0))


def random_mixed_lp(rng):
    """A numpy-seeded draw from the same kind of LPs as ``mixed_lps``."""
    n, m = int(rng.integers(1, 61)), int(rng.integers(0, 61))
    sense = (MINIMIZE, MAXIMIZE)[int(rng.integers(0, 2))]
    rels = tuple(RELATIONS[k] for k in rng.choice(3, size=m, p=rng.dirichlet([1, 1, 1])))
    lo, span = rng.choice(LOWER, n), rng.choice(SPAN, n)
    if rng.random() < 0.5:
        rows = rng.integers(-4, 5, size=(m, n)).astype(float)
        c = rng.integers(-5, 6, size=n).astype(float)
        return mixed_lp(sense, c, rows, rels, lo, span,
                        rhs=rng.integers(-6, 7, size=m).astype(float))
    rows = rng.integers(-4000, 4001, size=(m, n)) / 1000 * rng.choice(SCALE, (m, 1))
    rows[rng.random((m, n)) < 0.4] = 0.0
    c = rng.integers(-4000, 4001, size=n) / 1000 * rng.choice(SCALE)
    return mixed_lp(sense, c, rows, rels, lo, span, anchor=rng.choice(ANCHOR, n),
                    margin=rng.choice(MARGIN, m) * np.abs(rows).max(axis=1, initial=0.0))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(lp=mixed_lps())
def test_agrees_with_scipy_on_random_boxed_lps(lp):
    sol = solve(lp)
    ref, ref_value = highs(lp)
    if ref.status == 2:
        assert sol.status == "infeasible"
    else:
        assert ref.status == 0 and sol.status == "optimal", (ref.status, sol.status)
        assert certify(lp, sol).passed
        assert sol.objective_value == pytest.approx(
            ref_value, rel=1e-7, abs=1e-7 * np.abs(lp.objective).max())


def test_degenerate_cycling_instance_terminates():
    # Beale's classical cycling example: Dantzig's rule alone cycles on it
    # (the objective stays at 0 until the iteration cap), so the Bland
    # fallback after a degenerate exchange must escape it
    lp = box_lp(MINIMIZE, [-0.75, 150.0, -0.02, 6.0],
                [[0.25, -60.0, -0.04, 9.0],
                 [0.5, -90.0, -0.02, 3.0],
                 [0.0, 0.0, 1.0, 0.0]],
                [LE, LE, LE], [0.0, 0.0, 1.0],
                lo=[0.0] * 4, hi=[1e4] * 4)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-0.05, abs=1e-9)
    assert sol.iterations == 6
    assert certify(lp, sol).passed


def _tied_start_lp():
    # minimize -x0 - 3 x1 - 3 x2 subject to x2 - x1 <= 0, x in [0, 1]^3.  At
    # the start corner x = 0, x1 and x2 tie at reduced cost -3, and the row
    # is tight, so x2 entering is a degenerate exchange.  It leaves reduced
    # costs -1 on x0 and -6 on x1: Bland's rule then enters x0, the lowest
    # improving index, where Dantzig's would enter x1.
    return box_lp(MINIMIZE, [-1.0, -3.0, -3.0], [[0.0, -1.0, 1.0]], [LE], [0.0])


def test_dantzig_ties_enter_the_highest_index():
    tab = _Tableau(_tied_start_lp())
    assert tab.N == 4 and tab.basis.tolist() == [3]   # x0..x2 and row 0's slack
    assert tab.run(tab.c_phase2, max_iterations=1) == "iteration_limit"
    assert tab.basis.tolist() == [2]
    assert tab.dirn.tolist() == [1.0, 1.0, 0.0, 1.0]


def test_bland_step_follows_a_degenerate_exchange():
    lp = _tied_start_lp()
    tab = _Tableau(lp)
    assert tab.run(tab.c_phase2, max_iterations=2) == "iteration_limit"
    assert tab.basis.tolist() == [2]
    assert tab.dirn.tolist() == [-1.0, 1.0, 0.0, 1.0]   # x0 flipped to its upper bound
    sol = solve(lp)
    assert sol.status == "optimal" and np.array_equal(sol.x, [1.0, 1.0, 1.0])
    assert certify(lp, sol).passed


def test_badly_scaled_column_is_not_unbounded():
    # the entering slack's only tableau entry is -1e-11, below an absolute
    # PIVOT_TOL; the column-relative tolerance still lets it limit the step
    lp = box_lp(MAXIMIZE, [1000.0, 0.0], [[1e11, 0.0], [0.0, 1.0]], [GE, LE],
                [1.0, 0.5])
    sol = solve(lp)
    assert sol.status == "optimal"
    assert np.array_equal(sol.x, [1.0, 0.0])
    assert certify(lp, sol).passed
    ref, ref_value = highs(lp)
    assert ref.status == 0
    assert sol.objective_value == pytest.approx(ref_value, rel=1e-12)


def test_certify_refuses_a_wrong_signed_dual_within_tol():
    # solve stops at x0 = 1.6e-8: raising row 1's surplus raises x0 at only
    # 1 / 2.6e11 per unit, so its reduced cost, -2.6e-11, is above
    # -REDCOST_TOL.  x0 = 100 is feasible with value -680.  Row 1's
    # multiplier, -2.6e-11 on a >= row of a minimization, is wrong-signed
    # within tol; projected to 0, it leaves x0 a reduced cost of -6.8 at its
    # lower bound, and the gap is 680.
    lp = box_lp(MINIMIZE, [-6.8, -0.16], [[0.0, 7.1e6], [2.6e11, 5.8e6]], [LE, GE],
                [1000.0, 5000.0], hi=[100.0, 1.0])
    sol = solve(lp)
    assert sol.status == "optimal" and sol.x[0] < 1e-7
    assert check_feasibility(lp, [100.0, 0.0]).ok
    report = certify(lp, sol)
    assert report.dual_feasibility == pytest.approx(2.6e-11, rel=0.01)
    assert report.gap == pytest.approx(680.0, rel=1e-6)
    assert not report.passed


# LPs where no row that passes the PIVOT_TOL filter stops an infinite step,
# so every nonzero row is tested.  phase-2: row 1's slack enters, raising x1
# at 1e-10 per unit and row 0's surplus at 10; the filter drops x1's row,
# whose upper bound ends the step.  phase-1: row 0's surplus enters, moving
# x0 and x2 at 1.8e-11 and 1.8e-15 per unit and row 2's slack up at 0.91;
# x0's row stops it at a step of 0, and phase 1 goes on to a feasible point.
# Its optimum is x2 = 4.4e14 / 7e10.
FILTERED_ROW_LPS = {
    "phase-2": box_lp(MAXIMIZE, [-3.44253542, 41.90573515],
                      [[-1e4, 1e11], [20.0, -1e10], [2e6, 0.0]], [GE, LE, LE],
                      [0.0, -1000.0, 5000.0], hi=[1.0, 1e6]),
    "phase-1": box_lp(MINIMIZE, [1.42, 0.68, 0.63],
                      [[-5.5e10, 0.0, 0.07], [8.6e5, 0.0, -7e10],
                       [5e10, 7.2e5, 310.0]],
                      [GE, LE, LE], [440.0, -4.4e14, 2.2e6], hi=[1.0, 1.0, 1e4]),
}


@pytest.mark.parametrize("case", FILTERED_ROW_LPS)
def test_filtered_out_bounding_row_still_limits_the_step(case):
    lp = FILTERED_ROW_LPS[case]
    sol = solve(lp)
    assert sol.status == "optimal"
    assert certify(lp, sol).passed
    ref, ref_value = highs(lp)
    assert ref.status == 0
    assert np.array_equal(sol.x, ref.x)
    assert sol.objective_value == pytest.approx(ref_value, rel=1e-12)


def test_column_that_no_row_stops_does_not_enter():
    # Exact arithmetic never hands the simplex such a column (see
    # _Tableau.run).  A cost on the surplus of x0 >= 0.5 makes one: its
    # tableau column meets only row 0's artificial, which phase 1 lets grow
    # without bound.  It must not enter: an infinite step would make xB inf
    # or NaN.  Both bound corners violate a row, so the start is the lower
    # one, and the columns are x0, x1, the two slacks and the artificial.
    tab = _Tableau(box_lp(MINIMIZE, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]],
                          [GE, LE], [0.5, 0.5]))
    assert tab.N == 5 and tab.basis.tolist() == [4, 3]
    assert tab.run(np.array([0.0, 0.0, -1.0, 0.0, 0.0]), max_iterations=10) == "optimal"
    assert tab.iterations == 0
    assert np.array_equal(tab.xB, [0.5, 0.5])


def test_dump_load_roundtrip(tmp_path):
    lp = build_balance(5)
    path = tmp_path / "balance5.lp"
    dump_lp(lp, path)
    lp2 = load_lp(path, family_tag="balance")
    assert np.array_equal(lp.rows, lp2.rows)
    assert np.array_equal(lp.objective, lp2.objective)
    assert lp.relations == lp2.relations
    assert np.array_equal(lp.rhs, lp2.rhs)
    assert solve(lp2).objective_value == solve(lp).objective_value


# Pivot counts of every family under Dantzig's entering rule (ties to the
# highest index) with Bland's rule after a degenerate exchange; a hot-path
# change that alters one entering or leaving choice changes these.  Toy
# takes exactly n pivots, one per variable: at its start corner every
# reduced cost ties, x_n, ..., x_2 enter in turn, and only the last, x_1's,
# is a degenerate exchange.
PIVOTS = {
    "toy": [1, 2, 3, 7, 16, 64, 128, 256],
    "balance": [0, 1, 2, 6, 15, 63, 127, 255],
    "ranking": [1, 2, 3, 7, 16, 64, 128, 256],
    "secretary": [1, 1, 2, 5, 10, 41, 81, 162],
}
PIVOT_SIZES = [1, 2, 3, 7, 16, 64, 128, 256]


@pytest.mark.parametrize("kind,n,pivots", [
    (kind, n, p) for kind, counts in PIVOTS.items()
    for n, p in zip(PIVOT_SIZES, counts)
] + [("toy", 512, 512)])
def test_pivot_sequence_pinned(kind, n, pivots):
    sol = solve(FamilySpec(kind, n).build())
    assert sol.status == "optimal"
    assert sol.iterations == pivots


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_agrees_with_highs_at_family_scale(kind):
    lp = FamilySpec(kind, 256).build()
    sol = solve(lp)
    ref, ref_value = highs(lp)
    assert sol.status == "optimal" and ref.status == 0
    assert sol.objective_value == pytest.approx(ref_value, abs=1e-9)


# Over fuzz seeds 0..2999 (``fuzz_lp``): the statuses that agree with
# HiGHS (optimal and 0, infeasible and 2) and the certified optima; then the
# certified optima off HiGHS by more than 1e-6 relative, or certified where
# HiGHS finds the LP infeasible.  On these badly scaled LPs the absolute
# tolerances let ``solve`` stop short of the optimum, or accept a point that
# misses a row with coefficients of 1e11 and more by less than FEAS_TOL.
FUZZ_SEEDS = range(3000)
FUZZ_COUNTS = {"agree": 2955, "certified": 1460}
FUZZ_OFF_HIGHS = [390, 991, 1018, 1025, 1219, 1507, 1613, 1889, 2330]


@pytest.fixture
def no_lu(monkeypatch):
    """The solver factors no matrix: np.linalg.solve raises if called."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)


def test_fuzz_counts_pinned(no_lu):
    counts, off = dict.fromkeys(FUZZ_COUNTS, 0), []
    for seed in FUZZ_SEEDS:
        lp = fuzz_lp(seed)
        sol = solve(lp)
        ref, ref_value = highs(lp)
        counts["agree"] += (sol.status, ref.status) in (("optimal", 0), ("infeasible", 2))
        if sol.status == "optimal" and certify(lp, sol).passed:
            counts["certified"] += 1
            if ref.status != 0 or (abs(sol.objective_value - ref_value)
                                   > 1e-6 * (1.0 + abs(ref_value))):
                off.append(seed)
    assert counts == FUZZ_COUNTS
    assert off == FUZZ_OFF_HIGHS


# Fuzz LPs whose refined re-solve misses its residual tolerances, and
# whether certify passes the answer: seed 15 misses in x (a residual of 0.05
# on rows with coefficients near 5e11) and in y, 183 in x alone and 1541 in
# y alone.  183's answer is still certified; 1541's value is HiGHS's 0.0,
# but its duals leave a gap.
INACCURATE_INVERSE_CERTIFIED = {15: False, 183: True, 1541: False}


@pytest.mark.parametrize("seed", INACCURATE_INVERSE_CERTIFIED)
def test_certify_judges_an_inaccurate_inverse(no_lu, seed):
    lp = fuzz_lp(seed)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert certify(lp, sol).passed == INACCURATE_INVERSE_CERTIFIED[seed]


@pytest.mark.parametrize("text", [
    pytest.param("", id="empty"),
    pytest.param("minimize 2 1\n1.0 1.0\n1.0 1.0 >= 1.0\n0.0 0.0\n", id="truncated"),
    pytest.param("minimize 2 1\n1.0 x\n1.0 1.0 >= 1.0\n0.0 0.0\n1.0 1.0\n",
                 id="non-numeric"),
    pytest.param("minimize 2 1\n1.0 1.0\n1.0 >= 1.0\n0.0 0.0\n1.0 1.0\n", id="short-row"),
    pytest.param("minimize two 1\n1.0 1.0\n1.0 1.0 >= 1.0\n0.0 0.0\n1.0 1.0\n",
                 id="bad-header"),
    pytest.param("minimize 2\n1.0 1.0\n0.0 0.0\n1.0 1.0\n", id="short-header"),
    pytest.param("minimize 2 1\n1.0 1.0\n1.0 1.0 < 1.0\n0.0 0.0\n1.0 1.0\n",
                 id="unknown-relation"),
])
def test_load_lp_rejects_malformed_dump(tmp_path, text):
    path = tmp_path / "bad.lp"
    path.write_text(text)
    with pytest.raises(LpInputError):
        load_lp(path)


# (status, pivots) of 200 seeded mixed LPs: unlike the families, these have
# equality rows, mixed relations, negative and fixed bounds and scaled rows.
MIXED_STATUS = (
    "ioioooiioioooioooiiooooioiooiiioiioioooooooooooiio"
    "oooooioioiioooiiiiiooiooioiiiioioiioioooiooioiiooi"
    "iooioiiioooiiioooioiooioioioooiioiooioiiiiiiiiiioo"
    "iioooioioiiooooooioiiioioooiooioioooooooioiioioioi"
)
MIXED_PIVOTS = [
    16, 1, 17, 265, 74, 172, 21, 25, 23, 39, 34, 269, 45, 10, 3, 247,
    68, 44, 45, 41, 76, 129, 30, 11, 220, 1, 301, 1, 31, 47, 12, 6,
    25, 41, 46, 5, 68, 37, 202, 46, 6, 137, 1, 116, 33, 2, 2, 8,
    12, 12, 131, 13, 224, 24, 21, 52, 41, 24, 9, 17, 10, 41, 42, 18,
    24, 18, 80, 53, 5, 81, 39, 63, 111, 57, 50, 3, 55, 25, 10, 1,
    70, 32, 69, 7, 97, 7, 14, 6, 14, 44, 5, 34, 34, 1, 60, 18,
    47, 212, 120, 4, 60, 14, 97, 38, 1, 109, 4, 52, 130, 197, 25, 32,
    46, 31, 174, 67, 0, 6, 55, 25, 4, 0, 30, 11, 7, 128, 27, 96,
    208, 90, 49, 34, 66, 20, 4, 18, 9, 100, 2, 4, 52, 16, 20, 1,
    21, 8, 6, 39, 3, 47, 44, 44, 24, 46, 239, 77, 89, 9, 10, 1,
    2, 38, 67, 3, 123, 102, 261, 22, 45, 32, 34, 25, 95, 8, 182, 118,
    35, 4, 146, 2, 28, 151, 29, 94, 19, 0, 71, 82, 50, 52, 42, 16,
    38, 33, 61, 16, 24, 13, 78, 23,
]


# sha256 over x.tobytes() and dual.tobytes() of each of the 200, in order;
# like SOLUTION_BYTES below, it belongs to one numpy/BLAS build
MIXED_BYTES = "33b3911722dc1d62eb50f7775749189dd5498245f4474a62a124663422fc7468"


def test_mixed_pivots_pinned():
    rng = np.random.default_rng(4096)
    sols = [solve(random_mixed_lp(rng)) for _ in range(200)]
    assert "".join(s.status[0] for s in sols) == MIXED_STATUS
    assert [s.iterations for s in sols] == MIXED_PIVOTS
    digest = hashlib.sha256()
    for s in sols:
        digest.update(s.x.tobytes())
        digest.update(s.dual.tobytes())
    assert digest.hexdigest() == MIXED_BYTES


def test_mixed_dump_bytes_pinned(tmp_path):
    # the 117th of the mixed LPs: one variable, 14 rows of all three relations
    rng = np.random.default_rng(4096)
    lp = [random_mixed_lp(rng) for _ in range(117)][-1]
    assert set(lp.relations) == {LE, GE, EQ}
    path = tmp_path / "mixed.lp"
    dump_lp(lp, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "eebce6ab4b4ba9ee0581fa52f3f502878dfbe4458d0e25c96e12b3ed1fa55b8e"
    lp2 = load_lp(path)
    assert lp2.sign.tobytes() == lp.sign.tobytes()


# Iterations and sha256 of x.tobytes() and dual.tobytes() of family optima.
# The pivot update must not move one bit of either.  The final x and duals
# come from BLAS products with the tableau's basis inverse, so these digests
# belong to one numpy/BLAS build; the pivot counts do not.
SOLUTION_BYTES = {
    ("toy", 128): (128, "b3ce3a427ac72a652262407f4aa508c8e33943d83dceec37bc2945a00d42df20",
                   "9cb0dd198b02e1fb0909da57b4d421a9d610ba280326ce02b57d0df8f51d7c2a"),
    ("toy", 512): (512, "2ec5081ca2f53f4e72b0cf7bf345d6879383853c157eaeaa4c90318aed06b70c",
                   "29b9aa9944cc41d2b0ce3c234b913cb733021f28359956f58d649e2c01388d3b"),
    ("balance", 128): (127, "8dad29d0234ad7a5f434e94a05c91e0d8e47b7fa441912b784eaee5a606a49f9",
                       "f497a0cd356e2ea9ecbf90a7575371317f51855ed1d8c06e450ee2e8702ea9b0"),
    ("balance", 512): (511, "600df2a3de63bb8849bf65e940764cdef20ca4023210943218522108f8b721b3",
                       "9b9f9239a1bc4fa1f41445b1a3da53c98f8ccaf849f20f27c7f6cb5afea02998"),
    ("ranking", 128): (128, "cb1e9ba69c644cd0c59d87f497b7a46916a59f53076356b85b885bd4cf7e4481",
                       "eb06b994c7ac92a9cee6a786642b77eb26c836673dc050ff45ced11d3c65f17a"),
    ("ranking", 512): (512, "6c2b2b7126a8bf701bffb0a3c8a949cf10cd7e3b4352b1097e4560598925d83f",
                       "69aee7c509eb2483845d0d3478d3cf32141d5a2810b49773324bdabfbb312ecb"),
    ("secretary", 128): (81, "615e823861be2a6bf5d13e721df024011d65f75de0bdce0426f18ab35abf26dc",
                         "0642d9dbaf632eabdd28e3d46137a7813826471f363def3d21f81e99ebbfb46c"),
    ("secretary", 512): (324, "51f8dfbcc354f6dfc14ca4a4b7d1bcc7ff3c08d05c05f30fd38a35b69aa3dbc6",
                         "d45cce8f0bf8d88c319890c45ab9962701bab3add392a0dade6f8885e05a4184"),
}


@pytest.mark.parametrize("kind,n", SOLUTION_BYTES)
def test_solution_bytes_pinned(no_lu, kind, n):
    sol = solve(FamilySpec(kind, n).build())
    assert sol.status == "optimal"
    digests = (hashlib.sha256(sol.x.tobytes()).hexdigest(),
               hashlib.sha256(sol.dual.tobytes()).hexdigest())
    assert (sol.iterations, *digests) == SOLUTION_BYTES[kind, n]


# Total pivots, and one sha256 over each solve's iterations (8 bytes,
# little-endian), x.tobytes() and dual.tobytes() in order, of
# solve(build_secretary(n)) for n = 1..200: the lp-small benchmark's solves.
# Like SOLUTION_BYTES, the digest belongs to one numpy/BLAS build; the
# pivot count does not.
SECRETARY_1_200 = (12743, "b930fadb793c9f6cdb8d449e6f01e376d06060854e1386808c5c4e2ee1f0c700")


def test_secretary_1_to_200_bytes_pinned(no_lu):
    digest, pivots = hashlib.sha256(), 0
    for n in range(1, 201):
        sol = solve(build_secretary(n))
        assert sol.status == "optimal"
        pivots += sol.iterations
        digest.update(sol.iterations.to_bytes(8, "little"))
        digest.update(sol.x.tobytes())
        digest.update(sol.dual.tobytes())
    assert (pivots, digest.hexdigest()) == SECRETARY_1_200


@pytest.mark.parametrize("kind,n,pivots", [("toy", 64, 64), ("secretary", 64, 41)])
def test_pivot_loop_calls_no_python_level_numpy_wrapper(monkeypatch, kind, n, pivots):
    # _Tableau.run and _blocks call only ufuncs, ndarray methods and
    # np.where; the tableau is built first, since its set-up may call anything
    tab = _Tableau(FamilySpec(kind, n).build())
    assert not tab.n_art   # phase 2 alone, as in solve

    def refuse(*args, **kwargs):
        raise AssertionError("numpy's Python-level wrapper called in the pivot loop")

    for name in ("outer", "diff", "flatnonzero", "argmin", "argmax"):
        monkeypatch.setattr(np, name, refuse)
    assert tab.run(tab.c_phase2, 10_000) == "optimal"
    assert tab.iterations == pivots


def _mixed_equality_lp():
    # the 13th of the mixed LPs: 24 variables, 28 rows, 11 of them equalities;
    # 17 rows start on an artificial, 6 of which also have a nonbasic slack
    rng = np.random.default_rng(4096)
    return [random_mixed_lp(rng) for _ in range(13)][-1]


def _tableau_lps():
    return {**{kind: FamilySpec(kind, 16).build() for kind in FAMILY_KINDS},
            "mixed": _mixed_equality_lp()}


@pytest.mark.parametrize("name", ["toy", "balance", "ranking", "secretary", "mixed"])
def test_tableau_holds_only_the_nonbasic_columns(name):
    tab = _Tableau(_tableau_lps()[name])
    assert tab.T.shape == (tab.m, tab.N - tab.m)
    if name == "mixed":
        assert tab.n_art == 17 and tab.N - tab.m == tab.n + 6


def _start_cost(tab):
    """Phase 1's cost when the tableau has artificials, else phase 2's."""
    if not tab.n_art:
        return tab.c_phase2
    c = np.zeros(tab.N)
    c[tab.n + tab.n_slack:] = 1.0
    return c


@pytest.mark.parametrize("name,steps", [
    ("toy", (0, 1, 5, 11, 16)),
    ("secretary", (0, 1, 4, 7, 10)),
    ("mixed", (0, 1, 5, 13, 38)),
])
def test_tableau_is_the_basis_inverse_times_the_nonbasic_columns(name, steps):
    # a reference built apart from the solver: after k pivots, T is
    # B^{-1} M[:, slot_var], with M = [rows | unit columns], B = M[:, basis]
    # and B^{-1} from np.linalg.solve
    lp = _tableau_lps()[name]
    for k in steps:
        tab = _Tableau(lp)
        tab.run(_start_cost(tab), max_iterations=k)
        assert tab.iterations == k
        M = np.zeros((tab.m, tab.N))
        M[:, :tab.n] = lp.rows
        M[tab.unit_row, tab.n + np.arange(tab.N - tab.n)] = tab.unit_sign
        assert sorted(tab.slot_var.tolist() + tab.basis.tolist()) == list(range(tab.N))
        assert (tab.var_slot[tab.slot_var] == np.arange(tab.N - tab.m)).all()
        assert (tab.var_slot[tab.basis] == -1).all()
        ref = np.linalg.solve(M[:, tab.basis], M[:, tab.slot_var])
        assert np.abs(tab.T - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max()), k


@pytest.mark.parametrize("idx, want", [
    pytest.param([7], [(7, 8)], id="single"),
    pytest.param(range(3, 40), [(3, 40)], id="contiguous"),
    pytest.param([0, 1, 1 + _BLOCK_GAP, 2 + _BLOCK_GAP], [(0, 3 + _BLOCK_GAP)],
                 id="gap-merged"),
    pytest.param([0, _BLOCK_GAP, 2 * _BLOCK_GAP], [(0, 2 * _BLOCK_GAP + 1)],
                 id="gaps-merged"),
    pytest.param([0, 1, 2 + _BLOCK_GAP, 3 + _BLOCK_GAP],
                 [(0, 2), (2 + _BLOCK_GAP, 4 + _BLOCK_GAP)], id="gap-split"),
    pytest.param([0, 1, 2, 497, 498, 499], [(0, 3), (497, 500)], id="both-ends"),
    pytest.param([0, 100, 200], [(0, 1), (100, 101), (200, 201)], id="three-runs"),
])
def test_blocks(idx, want):
    assert _blocks(np.asarray(idx)) == want


def test_blocks_match_a_loop_over_the_indices():
    rng = np.random.default_rng(7)
    for _ in range(300):
        idx = np.flatnonzero(rng.random(rng.integers(1, 400)) < rng.random() ** 3)
        if not idx.size:
            continue
        want = [[int(idx[0]), int(idx[0]) + 1]]
        for i in idx[1:].tolist():
            if i - (want[-1][1] - 1) <= _BLOCK_GAP:
                want[-1][1] = i + 1
            else:
                want.append([i, i + 1])
        assert _blocks(idx) == [tuple(b) for b in want]


def test_secretary_solves_and_certifies_at_the_size_cap():
    n = SIMPLEX_SIZE_CAP
    lp = build_secretary(n)
    sol = solve(lp)
    assert sol.status == "optimal" and sol.iterations == 1295
    assert certify(lp, sol).passed
    assert sol.objective_value == pytest.approx(best_threshold(n)[1], abs=1e-9)

"""Every integer input goes through one check, ``lp_core._as_int``: a
non-integer value or a bool is refused with LpInputError, and an
integer-valued number or the decimal text of one gives the same result as
the int.
Every float parameter goes through ``lp_core._as_float``: a non-number,
text included, is refused with LpInputError.  A tol also goes through
``lp_core._as_tol``, which refuses a NaN, infinite or negative value.
Every array input goes through ``lp_core._as_floats``: text is refused as
not numeric, and a NaN or infinite entry as non-finite."""
import pickle
from dataclasses import replace

import numpy as np
import pytest

from lplimits import (
    FamilySpec,
    IntervalSequence,
    LpInputError,
    PolicyTable,
    SimInstance,
    certify,
    check_feasibility,
    discretize_profile,
    eval_profile,
    families,
    integrate_tight_ode,
    limit_estimate,
    load_lp,
    lp_core,
    multiplier_check,
    planted_instance,
    reconstruct_u,
    run_balance,
    run_ranking,
    run_secretary,
    search_best,
    secretary_policy_from_lp,
    solve,
    sweep_family,
    triangular_instance,
)
from lplimits.interval_opt import GRID_CAP
from lplimits.online_sim import _block_rng, read_instance
from lplimits.variational import RANKING_G, SECRETARY_U


def _policy(n):
    return PolicyTable(n=n, accept_prob=np.ones(3), reachable=np.ones(3, bool))


# name -> (call on the integer input, an accepted value of it)
EDGES = {
    **{f"build_{k}": (getattr(families, f"build_{k}"), 3)
       for k in families.FAMILY_KINDS},
    **{f"tight_{what}_{k}": (getattr(families, f"tight_{what}_{k}"), 3)
       for what in ("value", "solution") for k in ("toy", "balance", "ranking")},
    "best_threshold": (families.best_threshold, 3),
    "threshold_policy_value.n": (lambda v: families.threshold_policy_value(v, 1), 3),
    "threshold_policy_value.k": (lambda v: families.threshold_policy_value(10, v), 3),
    "run_ranking.trials": (
        lambda v: run_ranking(triangular_instance(6), trials=v, seed=1), 3),
    "run_ranking.seed": (
        lambda v: run_ranking(triangular_instance(6), trials=500, seed=v), 3),
    "run_secretary.trials": (lambda v: run_secretary(_policy(3), trials=v, seed=1), 3),
    "run_secretary.seed": (lambda v: run_secretary(_policy(3), trials=500, seed=v), 3),
    "run_balance.n_slabs": (
        lambda v: run_balance(triangular_instance(6, 6), n_slabs=v).stats, 3),
    "PolicyTable.n": (lambda v: run_secretary(_policy(v), trials=500, seed=1), 3),
    "planted_instance.seed": (lambda v: planted_instance(5, 1, seed=v), 3),
    "triangular_instance.n": (triangular_instance, 3),
    "SimInstance.arrivals": (lambda v: SimInstance(3, 1, ((v,),)), 3),
    "_block_rng.seed": (lambda v: _block_rng(v, 0).random(4), 3),
    "search_best.K": (lambda v: search_best(v, 1e-2, 1e-2), 2),
    "solve.max_iterations": (
        lambda v: solve(families.build_ranking(4), max_iterations=v), 3),
}


_RANKING3 = families.build_ranking(3)
_GRID = np.arange(1, 101) / 100


# name -> (call on the float input, an accepted value of it)
FLOAT_EDGES = {
    "integrate_tight_ode.step": (lambda v: integrate_tight_ode("balance", v), 1e-3),
    "multiplier_check.tol": (
        lambda v: multiplier_check(_GRID, SECRETARY_U(_GRID), tol=v), 1e-6),
    "search_best.resolution": (lambda v: search_best(1, v, 0.1), 1e-2),
    "search_best.min_separation": (lambda v: search_best(1, 1e-2, v), 0.1),
    "eval_profile.t": (lambda v: eval_profile("ToyG", v), 0.5),
    "check_feasibility.tol": (
        lambda v: check_feasibility(_RANKING3, np.zeros(3), tol=v), 1e-9),
    "certify.tol": (lambda v: certify(_RANKING3, solve(_RANKING3), tol=v), 1e-8),
}


# name -> (call on the array input, given 3 entries; the name in its messages)
ARRAY_EDGES = {
    "LpHeader.rhs": (
        lambda v: replace(FamilySpec("ranking", 3).operator(), rhs=v), "rhs"),
    "DenseLp.rows": (lambda v: replace(_RANKING3, rows=[v] * 3), "rows"),
    "check_feasibility.x": (lambda v: check_feasibility(_RANKING3, v), "x"),
    "certify.dual": (
        lambda v: certify(_RANKING3, replace(solve(_RANKING3), dual=v)), "dual"),
    "PolicyTable.accept_prob": (
        lambda v: PolicyTable(n=3, accept_prob=v, reachable=np.ones(3, bool)),
        "accept_prob"),
    "secretary_policy_from_lp.x": (secretary_policy_from_lp, "x"),
    "ContinuumProfile.t": (RANKING_G, "t"),
    "discretize_profile.values": (
        lambda v: discretize_profile(lambda t: np.resize(v, t.shape),
                                     FamilySpec("toy", 3)), "profile values"),
    # fine on the sample grid i/n; the quadrature grid starts at t = 0
    "discretize_profile.quadrature": (
        lambda v: discretize_profile(lambda t: t if t[0] > 0 else np.resize(v, t.shape),
                                     FamilySpec("toy", 3)), "profile values"),
    "multiplier_check.grid": (
        lambda v: multiplier_check(v, SECRETARY_U(_GRID[-3:])), "grid"),
    "multiplier_check.u_candidate": (
        lambda v: multiplier_check(_GRID[-3:], v), "u_candidate"),
    "reconstruct_u.t": (lambda v: reconstruct_u(IntervalSequence((0.5, 1.0)), v), "t"),
}


@pytest.mark.parametrize("edge", ARRAY_EDGES)
@pytest.mark.parametrize("bad, message", [
    pytest.param(["a", "b", "c"], "{} must be numeric", id="text"),
    pytest.param(["0.5", "0.5", "0.5"], "{} must be numeric", id="numeric-text"),
    pytest.param([0.5, np.nan, 0.5], "non-finite entries in {}", id="nan"),
])
def test_array_edge_refuses_text_and_nan(edge, bad, message):
    # every array input is read by lp_core._as_floats, with its messages
    call, name = ARRAY_EDGES[edge]
    with pytest.raises(LpInputError, match=message.format(name)):
        call(bad)


@pytest.mark.parametrize("edge", FLOAT_EDGES)
def test_float_edge_refuses_a_non_number(edge):
    call, good = FLOAT_EDGES[edge]
    for bad in (str(good), "x", None, [good]):
        with pytest.raises(LpInputError, match="must be a real number"):
            call(bad)


@pytest.mark.parametrize("edge", FLOAT_EDGES)
def test_float_edge_reads_real_numbers_alike(edge):
    call, good = FLOAT_EDGES[edge]
    want = pickle.dumps(call(good))
    assert pickle.dumps(call(np.float64(good))) == want


@pytest.mark.parametrize("edge", ["check_feasibility.tol", "certify.tol"])
@pytest.mark.parametrize("bad", [float("nan"), -1.0, -1e-12, float("inf")])
def test_tol_edge_refuses_a_value_outside_its_range(edge, bad):
    # a NaN or negative tol would call every point infeasible
    call, _ = FLOAT_EDGES[edge]
    with pytest.raises(LpInputError, match="tol must be finite and >= 0"):
        call(bad)


@pytest.mark.parametrize("edge", EDGES)
def test_integer_edge_refuses_a_fraction(edge):
    call, good = EDGES[edge]
    with pytest.raises(LpInputError, match="integer"):
        call(good + 0.5)


@pytest.mark.parametrize("edge", EDGES)
def test_integer_edge_refuses_a_bool(edge):
    # a bool is an int to Python, but True is not a size, a seed or a count
    call, _ = EDGES[edge]
    for bad in (True, False, np.True_, np.False_):
        with pytest.raises(LpInputError, match="must be an integer, got"):
            call(bad)


@pytest.mark.parametrize("edge", EDGES)
def test_integer_edge_reads_integer_values_alike(edge):
    call, good = EDGES[edge]
    # pickled bytes: equal values of equal types, array bytes included
    want = pickle.dumps(call(good))
    for value in (float(good), np.int64(good), str(good)):
        assert pickle.dumps(call(value)) == want, repr(value)


@pytest.mark.parametrize("bad, message", [("x", "must be an integer"),
                                          (2.5, "must be an integer"),
                                          (-1, "must be >= 0")])
def test_solve_refuses_a_bad_iteration_cap(monkeypatch, bad, message):
    # None keeps the default cap and 0 is a valid one; a bad cap is refused
    # before the m x N tableau is allocated
    def no_tableau(lp):
        raise AssertionError("tableau built before max_iterations was checked")

    monkeypatch.setattr(lp_core, "_Tableau", no_tableau)
    with pytest.raises(LpInputError, match=message):
        solve(families.build_ranking(4), max_iterations=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_certify_refuses_a_non_finite_dual(bad):
    # refused like a non-finite x, not reported as a failed certificate
    # whose gap is nan
    sol = solve(_RANKING3)
    for lp in (_RANKING3, FamilySpec("ranking", 3).operator()):
        with pytest.raises(LpInputError, match="non-finite entries in dual"):
            certify(lp, replace(sol, dual=np.full(3, bad)))


@pytest.mark.parametrize("text", ["2.5", "3.0", ""])
def test_family_spec_parse_refuses_non_integer_text(text):
    with pytest.raises(LpInputError, match="integer"):
        FamilySpec.parse(f"toy:{text}")


def test_family_spec_parse_reads_the_size_as_text():
    assert FamilySpec.parse("toy:3") == FamilySpec("toy", "3") == FamilySpec("toy", 3)


@pytest.mark.parametrize("header", ["minimize 2.5 0", "minimize 1 0.0"])
def test_load_lp_refuses_a_non_integer_header(tmp_path, header):
    path = tmp_path / "lp.txt"
    path.write_text(f"{header}\n1.0\n0.0\n1.0\n")
    with pytest.raises(LpInputError, match="integer"):
        load_lp(path)


@pytest.mark.parametrize("text", ["3.0 1 1\n1\n", "3 1 1\n1.5\n"])
def test_read_instance_refuses_non_integer_fields(tmp_path, text):
    path = tmp_path / "inst.txt"
    path.write_text(text)
    with pytest.raises(LpInputError, match="integer"):
        read_instance(path)


@pytest.mark.parametrize("points", [("0.2", "0.9"), ("a", "b"), (None, 1.0),
                                    (0.1, 0.2, [0.3], 0.4)])
def test_interval_sequence_refuses_a_non_number(points):
    # text is refused, not parsed, like every other float input
    with pytest.raises(LpInputError, match="each point must be a real number"):
        IntervalSequence(points)


def test_interval_sequence_reads_real_numbers_alike():
    want = IntervalSequence((0.25, 1.0))
    for points in ((np.float64(0.25), 1), (np.float32(0.25), True)):
        assert pickle.dumps(IntervalSequence(points)) == pickle.dumps(want)


@pytest.mark.parametrize("accept_prob", [["x"], [None, "y"], [[0.5, 0.5], [0.5]]])
def test_policy_table_refuses_non_numeric_probabilities(accept_prob):
    with pytest.raises(LpInputError, match="accept_prob must be numeric"):
        PolicyTable(n=len(accept_prob), accept_prob=accept_prob,
                    reachable=[True] * len(accept_prob))


@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("resolution", [1e-7, 5e-324, 1 / (GRID_CAP + 1)])
def test_search_best_refuses_a_grid_past_its_cap(K, resolution):
    # refused before the grid is allocated: at 1e-7 the search would form
    # 5e13 pairs per interval
    with pytest.raises(LpInputError, match=f"more than GRID_CAP = {GRID_CAP}"):
        search_best(K, resolution, 1e-2)


@pytest.mark.parametrize("call, kind", [
    pytest.param(lambda kind: sweep_family(kind, [3]), ["toy"], id="sweep_family"),
    pytest.param(lambda kind: integrate_tight_ode(kind, 1e-3), ["balance"],
                 id="integrate_tight_ode"),
])
def test_unhashable_kind_is_an_unknown_kind(call, kind):
    # a list cannot be a dict key; it is refused like any other unknown kind
    with pytest.raises(LpInputError, match=r"unknown \w+ kind \["):
        call(kind)


@pytest.mark.parametrize("sizes", ["34", b"34", ""])
def test_sweep_refuses_text_sizes(sizes):
    # iterating "34" would give the sizes 3 and 4
    with pytest.raises(LpInputError, match="sizes must be a sequence of integers"):
        sweep_family("toy", sizes)


@pytest.mark.parametrize("family", ["toy:4", None, ("toy", 4)])
def test_discretize_refuses_a_family_that_is_not_a_spec(family):
    with pytest.raises(LpInputError, match="family must be a FamilySpec"):
        discretize_profile(RANKING_G, family)
    with pytest.raises(LpInputError, match="family must be a FamilySpec"):
        discretize_profile("ToyG", family)


@pytest.mark.parametrize("table", [None, [], {"rows": [1, 2, 3]}])
def test_limit_estimate_refuses_a_table_that_is_not_a_sweep(table):
    with pytest.raises(LpInputError, match="table must be a SweepTable"):
        limit_estimate(table)

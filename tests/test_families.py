import tracemalloc

import numpy as np
import pytest

from lplimits import (
    FamilySpec,
    LpInputError,
    build_balance,
    build_ranking,
    build_secretary,
    build_toy,
    best_threshold,
    check_feasibility,
    ranking_triangular_closed_form,
    ranking_triangular_value,
    solve,
    tight_solution_balance,
    tight_solution_ranking,
    tight_solution_toy,
    tight_value_balance,
    tight_value_ranking,
    tight_value_toy,
)
from lplimits import families, studies, variational
from lplimits.families import (_BUILDERS, _CHUNK, FAMILIES, FAMILY_KINDS, LIMIT_TARGETS,
                               ORACLE_SIZE_CAP, RANKING_DP_CAP, SIMPLEX_SIZE_CAP,
                               _geometric)

INV_E = 1.0 / np.e

# Frozen C for the |value(n) - limit| <= C/n desk-scale trend checks.
TREND_C = {"toy": 0.5, "balance": 0.5, "ranking": 0.25, "secretary": 1.0}


def test_each_kind_is_one_family_record():
    # FAMILIES defines the kinds; every other table keyed by kind is its view
    assert tuple(FAMILIES) == FAMILY_KINDS
    assert all(family.kind == kind for kind, family in FAMILIES.items())
    assert LIMIT_TARGETS == {"toy": 1 - INV_E, "balance": INV_E,
                             "ranking": 1 - INV_E, "secretary": INV_E}
    assert studies.LIMIT_TARGETS is LIMIT_TARGETS
    assert _BUILDERS == {kind: getattr(families, f"build_{kind}") for kind in FAMILY_KINDS}
    g_profiles = {p.tag: p.family for p in variational.PROFILES.values() if p.family}
    assert g_profiles == {f.g_profile: kind for kind, f in FAMILIES.items()}
    assert variational.ODE_CLOSED_FORM == {"balance": variational.BALANCE_V,
                                           "ranking": variational.RANKING_U}
    assert variational.ODE_TERMINAL == {"balance": INV_E, "ranking": 1 - INV_E}


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_family_oracle_is_looked_up_when_called(monkeypatch, kind):
    # a rebinding of the module's oracle function is seen through the record,
    # as the benchmark's tracer needs
    seen = []
    name = "best_threshold" if kind == "secretary" else f"tight_value_{kind}"
    original = getattr(families, name)
    monkeypatch.setattr(families, name, lambda n: seen.append(n) or original(n))
    FAMILIES[kind].oracle(7)
    assert seen == [7]


def test_spec_parsing():
    spec = FamilySpec.parse("ranking:512")
    assert (spec.kind, spec.size) == ("ranking", 512)
    for bad in ("ranking", "nope:4", "toy:x", "toy:0"):
        with pytest.raises(LpInputError):
            FamilySpec.parse(bad)


@pytest.mark.parametrize("build", [build_toy, build_balance, build_ranking,
                                   build_secretary])
def test_size_validation(build):
    with pytest.raises(LpInputError):
        build(0)
    with pytest.raises(LpInputError):
        build(SIMPLEX_SIZE_CAP + 1)


def test_toy_structure():
    lp = build_toy(4)
    assert lp.n_rows == 4 + 3
    assert lp.sense == "minimize"
    # cumulative row i: coefficient 1 on x_i, 1/n on earlier columns
    assert lp.rows[2, 2] == 1.0
    assert lp.rows[2, 0] == lp.rows[2, 1] == pytest.approx(0.25)
    assert lp.rows[2, 3] == 0.0
    # monotonicity row x_2 - x_3 >= 0
    assert list(lp.rows[5]) == [0.0, 1.0, -1.0, 0.0]


def test_balance_coefficient_formula():
    lp = build_balance(3)
    assert lp.rows[2, 0] == pytest.approx(1 + 2 / 3)   # row p=3, column i=1
    assert lp.rhs[2] == pytest.approx(1.0)
    assert lp.objective[0] == pytest.approx(1 - 1 / 3)


@pytest.mark.parametrize("kind,n", [("balance", 17), ("ranking", 23),
                                    ("secretary", 19)])
def test_random_coefficient_spot_checks(kind, n, rng):
    lp = {"balance": build_balance, "ranking": build_ranking,
          "secretary": build_secretary}[kind](n)
    for _ in range(50):
        p = int(rng.integers(1, n + 1))
        i = int(rng.integers(1, n + 1))
        got = lp.rows[p - 1, i - 1]
        if kind == "balance":
            want = 1.0 + (p - i) / n if i <= p else 0.0
        elif kind == "ranking":
            want = (1.0 / n + (1.0 if i == p else 0.0)) if i <= p else 0.0
        else:
            want = float(p) if i == p else (1.0 if i < p else 0.0)
        assert got == want, (kind, p, i)


def test_family_example_values():
    assert solve(build_toy(1)).objective_value == pytest.approx(1.0)
    assert solve(build_toy(2)).objective_value == pytest.approx(0.75)
    assert solve(build_balance(1)).objective_value == pytest.approx(0.0)
    assert solve(build_balance(2)).objective_value == pytest.approx(0.25)
    sol = solve(build_ranking(1))
    assert sol.objective_value == pytest.approx(0.5)
    assert sol.x == pytest.approx([0.5])
    sol = solve(build_ranking(2))
    assert sol.objective_value == pytest.approx(5 / 9)
    assert sol.x == pytest.approx([2 / 3, 4 / 9])
    assert solve(build_secretary(1)).objective_value == pytest.approx(1.0)
    assert solve(build_secretary(2)).objective_value == pytest.approx(0.5)
    # n=3 equals the best threshold rule: (1/3)(1 + 1/2)
    assert solve(build_secretary(3)).objective_value == pytest.approx(0.5)


def test_tight_ranking_oracle():
    assert tight_solution_ranking(1) == pytest.approx([0.5])
    x2 = tight_solution_ranking(2)
    assert x2 == pytest.approx([2 / 3, 4 / 9])
    assert tight_value_ranking(2) == pytest.approx(5 / 9)
    for n in (1, 2, 3, 7, 50, 200):
        lp = build_ranking(n)
        x = tight_solution_ranking(n)
        # every row tight
        resid = lp.rows @ x - lp.rhs
        assert np.max(np.abs(resid)) <= 1e-12
        assert check_feasibility(lp, x, 1e-12).ok
        assert tight_value_ranking(n) == pytest.approx(float(np.mean(x)), abs=1e-13)


def test_tight_toy_oracle():
    assert tight_solution_toy(1) == pytest.approx([1.0])
    for n in (2, 3, 11, 64):
        lp = build_toy(n)
        x = tight_solution_toy(n)
        assert x[0] == 1.0
        cum = lp.rows[:n] @ x - lp.rhs[:n]
        assert np.max(np.abs(cum)) <= 1e-12     # cumulative rows tight
        assert check_feasibility(lp, x, 1e-12).ok
        assert tight_value_toy(n) == pytest.approx(float(np.mean(x)), abs=1e-13)


def test_tight_balance_oracle():
    assert tight_value_balance(1) == 0.0
    assert tight_value_balance(2) == pytest.approx(0.25, abs=1e-15)
    for n in (1, 2, 3, 11, 64):
        lp = build_balance(n)
        x = tight_solution_balance(n)
        assert np.max(np.abs(lp.rows @ x - lp.rhs)) <= 1e-12     # every row tight
        assert check_feasibility(lp, x, 1e-12).ok
        assert abs(float(lp.objective @ x) - tight_value_balance(n)) <= 1e-13
        # (1 - 1/N)^N is the toy complement
        assert abs(tight_value_balance(n) - (1.0 - tight_value_toy(n))) <= 1e-15


def test_oracles_reject_sizes_past_the_cap():
    for oracle in (tight_value_toy, tight_value_balance, tight_value_ranking,
                   tight_solution_toy, tight_solution_balance,
                   tight_solution_ranking, best_threshold,
                   ranking_triangular_value, ranking_triangular_closed_form):
        for n in (0, ORACLE_SIZE_CAP + 1):
            with pytest.raises(LpInputError):
                oracle(n)
    # the O(n^2) DP has a cap of its own
    with pytest.raises(LpInputError):
        ranking_triangular_value(RANKING_DP_CAP + 1)


@pytest.mark.parametrize("n", list(range(1, 33)) + [64, 128, 256, 512])
def test_recurrence_matches_simplex(n):
    for build, oracle in [(build_toy, tight_value_toy),
                          (build_balance, tight_value_balance),
                          (build_ranking, tight_value_ranking),
                          (build_secretary, lambda n: best_threshold(n)[1])]:
        assert abs(solve(build(n)).objective_value - oracle(n)) <= 1e-9


def test_monotone_trends_with_frozen_constants():
    sizes = [1, 2, 4, 8, 16, 32, 64]
    toy = [tight_value_toy(n) for n in sizes]
    rank = [tight_value_ranking(n) for n in sizes]
    # toy decreases onto its limit; ranking minima climb toward theirs
    assert all(a >= b - 1e-15 for a, b in zip(toy, toy[1:]))
    assert all(a <= b + 1e-15 for a, b in zip(rank, rank[1:]))
    sec = [solve(build_secretary(n)).objective_value for n in sizes]
    bal = [solve(build_balance(n)).objective_value for n in sizes]
    for kind, limit, vals in [("toy", 1 - INV_E, toy),
                              ("ranking", 1 - INV_E, rank),
                              ("secretary", INV_E, sec),
                              ("balance", INV_E, bal)]:
        for n, v in zip(sizes, vals):
            assert abs(v - limit) <= TREND_C[kind] / n, (kind, n, v)


@pytest.mark.parametrize("oracle,limit,sign", [
    pytest.param(tight_value_toy, 1 - INV_E, 1.0, id="tight_value_toy-1.0"),
    pytest.param(tight_value_ranking, 1 - INV_E, -1.0, id="tight_value_ranking--1.0"),
    pytest.param(tight_value_balance, INV_E, -1.0, id="tight_value_balance--1.0"),
])
def test_oracle_first_order_coefficient(oracle, limit, sign):
    # value(n) = L + C/n + O(1/n^2) with C = +-1/(2e), since (1 - 1/n)^n
    # and (n/(n+1))^n are e^-1 (1 -+ 1/(2n) + O(1/n^2))
    ns = np.array([1000.0, 2000.0, 4000.0, 8000.0])
    values = np.array([oracle(int(n)) for n in ns])
    basis = np.column_stack([np.ones_like(ns), 1.0 / ns, 1.0 / ns**2])
    (L, C, _), *_ = np.linalg.lstsq(basis, values, rcond=None)
    assert abs(L - limit) <= 1e-9
    assert abs(C - sign * INV_E / 2) <= 1e-4


def test_secretary_first_order_coefficient():
    # H_m = ln m + gamma + 1/(2m) + O(1/m^2) makes the best threshold value
    # 1/e + (1 - 1/e)/(2n) + O(1/n^2).  k* jumps with n, so a fit over
    # several n misses C by about 1e-4; one large n does not.
    n = 10**6
    _, v = best_threshold(n)
    assert abs(n * (v - INV_E) - (1 - INV_E) / 2) <= 1e-4


def test_secretary_implied_bound_at_optimum():
    for n in (5, 23, 60):
        sol = solve(build_secretary(n))
        i = np.arange(1, n + 1)
        assert np.all(sol.x * i <= 1.0 + 1e-9)


@pytest.mark.parametrize("oracle", [tight_solution_toy, tight_solution_ranking,
                                    tight_solution_balance])
def test_oracle_solution_builds_in_one_array(oracle):
    # exp(k log q) is written into its one float array, so a 10^7-point
    # oracle never holds a second n-float temporary
    n = 10**6
    oracle(8)   # first-call allocations are not the oracle's
    tracemalloc.start()
    try:
        x = oracle(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.shape == (n,)
    assert peak <= 1.1 * 8 * n


@pytest.mark.parametrize("n", [1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_oracles_match_the_one_array_formula_across_chunks(n):
    # the chunked fill gives the bytes of exp(k log q) over one arange
    def one_array(first, n, log_q):
        return np.exp(np.arange(first, first + n, dtype=float) * log_q)

    for first, log_q in ((0, -1.0 / 3), (1, -2e-6), (5, -40.0)):
        assert _geometric(first, n, log_q).tobytes() == one_array(first, n, log_q).tobytes()
    ranking = one_array(1, n, np.log(n) - np.log(n + 1))
    assert tight_solution_ranking(n).tobytes() == ranking.tobytes()
    toy = one_array(0, n, np.log1p(-1.0 / n)) if n > 1 else np.ones(1)
    assert tight_solution_toy(n).tobytes() == toy.tobytes()
    assert tight_solution_balance(n).tobytes() == (toy / n).tobytes()


def test_family_spec_rejects_non_integer_size():
    with pytest.raises(LpInputError, match="integer"):
        FamilySpec("toy", 2.5)
    for size in (3, 3.0, np.int64(3)):
        spec = FamilySpec("toy", size)
        assert spec.size == 3 and type(spec.size) is int
        assert spec.build().n_vars == 3


def _reference_rows(kind, n):
    """Each family's rows as first written: through np.tril, np.where and
    np.vstack, with n x n temporaries."""
    if kind == "toy":
        rows = np.tril(np.full((n, n), 1.0 / n), k=-1)
        rows[np.diag_indices(n)] += 1.0
        mono = np.zeros((n - 1, n))
        idx = np.arange(n - 1)
        mono[idx, idx] = 1.0
        mono[idx, idx + 1] = -1.0
        return np.vstack([rows, mono])
    if kind == "balance":
        p = np.arange(1, n + 1)[:, None]
        i = np.arange(1, n + 1)[None, :]
        return np.where(i <= p, 1.0 + (p - i) / n, 0.0)
    if kind == "ranking":
        rows = np.tril(np.full((n, n), 1.0 / n))
        rows[np.diag_indices(n)] += 1.0
        return rows
    rows = np.tril(np.ones((n, n)), k=-1)
    rows[np.diag_indices(n)] = np.arange(1, n + 1, dtype=float)
    return rows


BUILDERS = {"toy": build_toy, "balance": build_balance, "ranking": build_ranking,
            "secretary": build_secretary}


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 513, 2048])
def test_rows_match_reference_bytes(kind, n):
    rows = BUILDERS[kind](n).rows
    ref = _reference_rows(kind, n)
    assert rows.dtype == ref.dtype and rows.shape == ref.shape
    assert rows.tobytes() == ref.tobytes()   # the sign of every zero included


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_builder_allocates_rows_once(kind):
    # the rows array plus a one-byte mask or finiteness check: no second
    # n x n float array (the tril/where/vstack builders peaked at 2.13x)
    BUILDERS[kind](8)   # first-call allocations are not the builder's
    tracemalloc.start()
    try:
        lp = BUILDERS[kind](2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * lp.rows.nbytes

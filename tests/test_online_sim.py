import itertools
import math
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_flow

from lplimits import (
    LpInputError,
    PolicyTable,
    SimInstance,
    SlabStats,
    best_threshold,
    build_secretary,
    offline_optimum,
    planted_instance,
    policy_value,
    ranking_triangular_closed_form,
    ranking_triangular_value,
    run_balance,
    run_ranking,
    run_secretary,
    secretary_policy_from_lp,
    slab_audit,
    solve,
    threshold_policy_value,
    triangular_instance,
)
from lplimits import online_sim
from lplimits.families import ORACLE_SIZE_CAP
from lplimits.online_sim import _blocks, read_instance, write_instance

INV_E = 1.0 / math.e


def test_balance_single_forced_assignment():
    inst = SimInstance(n_offline=1, b=1, arrivals=((1,),))
    run = run_balance(inst, n_slabs=4)
    assert run.value == 1.0
    assert run.stats.alpha[-1] == 1  # the bidder ends fully spent


def test_balance_empty_arrivals():
    run = run_balance(SimInstance(n_offline=3, b=2, arrivals=()), n_slabs=5)
    assert run.value == 0.0
    assert np.all(run.stats.beta == 0.0)
    assert run.stats.alpha[0] == 3


def test_balance_ties_go_to_lowest_index():
    inst = SimInstance(n_offline=3, b=1, arrivals=((1, 2, 3), (2, 3)))
    run = run_balance(inst, n_slabs=2)
    assert list(run.assignments) == [1, 1, 0]


def test_balance_triangular_ratio():
    inst = triangular_instance(40, 40)
    run = run_balance(inst, n_slabs=20)
    ratio = run.value / 40
    assert abs(ratio - (1 - INV_E)) <= 0.02
    assert run.value <= 40.0
    assert slab_audit(run.stats, opt_exhausts_budgets=True).passed


def test_balance_never_beats_offline_optimum(rng):
    for k in range(10):
        n = int(rng.integers(2, 12))
        b = int(rng.integers(1, 4))
        n_arr = int(rng.integers(1, 3 * n))
        arrivals = []
        for _ in range(n_arr):
            deg = int(rng.integers(0, n + 1))
            arrivals.append(tuple(sorted(set(
                int(v) for v in rng.integers(1, n + 1, size=deg)))))
        inst = SimInstance(n_offline=n, b=b, arrivals=tuple(arrivals))
        run = run_balance(inst, n_slabs=4)
        assert run.value <= offline_optimum(inst) + 1e-12
        assert run.value <= n


def b_matching_lp_optimum(inst):
    """Maximum b-matching size from its LP relaxation; the bipartite
    incidence matrix is totally unimodular, so the LP optimum is integral."""
    edges = [(u - 1, t) for t, nb in enumerate(inst.arrivals) for u in nb]
    if not edges:
        return 0.0
    A = np.zeros((inst.n_offline + inst.n_online, len(edges)))
    for e, (u, t) in enumerate(edges):
        A[u, e] = 1.0
        A[inst.n_offline + t, e] = 1.0
    rhs = np.r_[np.full(inst.n_offline, inst.b), np.ones(inst.n_online)]
    res = linprog(-np.ones(len(edges)), A_ub=A, b_ub=rhs, bounds=(0, 1),
                  method="highs")
    assert res.status == 0
    return -res.fun


def max_flow_optimum(inst):
    """Maximum b-matching size as an integer max-flow.  Node 0 is the
    source, nodes 1..n_offline the offline side (capacity b from the
    source), node n_offline+1+t arrival t (capacity 1 to the sink, the last
    node), with a unit-capacity edge from each neighbor to it."""
    n = inst.n_offline
    sink = n + inst.n_online + 1
    edges = [(0, u, inst.b) for u in range(1, n + 1)]
    for t, nb in enumerate(inst.arrivals, start=n + 1):
        edges += [(u, t, 1) for u in nb]
        edges.append((t, sink, 1))
    tail, head, cap = np.array(edges, dtype=np.int32).T
    graph = csr_array((cap, (tail, head)), shape=(sink + 1, sink + 1))
    return maximum_flow(graph, 0, sink).flow_value


def test_offline_optimum_matches_b_matching_lp():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        b = int(rng.integers(1, 4))
        n_arr = int(rng.integers(1, n * b))  # fewer arrivals than capacity
        arrivals = tuple(
            tuple(int(v) for v in rng.integers(1, n + 1, size=int(rng.integers(0, 4))))
            for _ in range(n_arr))
        inst = SimInstance(n_offline=n, b=b, arrivals=arrivals)
        opt = offline_optimum(inst) * b
        assert opt < n * b
        assert abs(opt - b_matching_lp_optimum(inst)) <= 1e-9
        assert opt == max_flow_optimum(inst)
    for seed in range(5):
        inst = planted_instance(10, 3, extra_degree=2, seed=seed)
        assert offline_optimum(inst) == 10
        assert abs(b_matching_lp_optimum(inst) - 30) <= 1e-9
        assert max_flow_optimum(inst) == 30
    # up to three arrivals per unit of capacity: long paths and failed
    # searches on small instances
    for _ in range(400):
        n = int(rng.integers(1, 15))
        b = int(rng.integers(1, 4))
        arrivals = tuple(
            tuple(int(v) for v in rng.integers(1, n + 1, size=int(rng.integers(0, 6))))
            for _ in range(int(rng.integers(0, 3 * n * b + 1))))
        inst = SimInstance(n_offline=n, b=b, arrivals=arrivals)
        assert offline_optimum(inst) * b == max_flow_optimum(inst)
    # arrival t takes vertex t, so the last arrival needs a 3000-step path:
    # deeper than Python's default recursion limit
    chain = SimInstance(3000, 1, tuple((t, t + 1) for t in range(1, 3000)) + ((1,),))
    # every arrival sees every vertex: all searches after the 100th fail
    overloaded = SimInstance(100, 1, (tuple(range(1, 101)),) * 10_000)
    for inst, opt in ((chain, 3000), (overloaded, 100)):
        assert offline_optimum(inst) == opt == max_flow_optimum(inst)


def _planted_reference(n, b, extra_degree, seed):
    """The planted_instance that drew each arrival's extras in its own call."""
    rng = online_sim._block_rng(seed, 0)
    arrivals = []
    for u in range(1, n + 1):
        for _ in range(b):
            extras = rng.integers(1, n + 1, size=extra_degree)
            arrivals.append(tuple(sorted({u, *map(int, extras)})))
    order = rng.permutation(len(arrivals))
    return SimInstance(n_offline=n, b=b,
                       arrivals=tuple(arrivals[i] for i in order))


def _balance_reference(instance):
    """(value, assignments) of the numpy BALANCE loop that run_balance
    replaced: argmax of the remaining capacities, first maximum on ties."""
    b = instance.b
    remaining = np.full(instance.n_offline, b, dtype=np.int64)
    matched = 0
    for nb in instance.arrivals:
        if not nb:
            continue
        idx = np.array(nb, dtype=np.int64) - 1
        rem = remaining[idx]
        j = int(np.argmax(rem))
        if rem[j] > 0:
            remaining[idx[j]] -= 1
            matched += 1
    return matched / b, b - remaining


def _assert_balance_matches_reference(inst):
    run = run_balance(inst, n_slabs=20)
    value, assignments = _balance_reference(inst)
    assert run.value == value
    assert run.assignments.dtype == assignments.dtype
    assert np.array_equal(run.assignments, assignments)


@pytest.mark.parametrize("n", [1, 5, 15, 200])
@pytest.mark.parametrize("b", [1, 3, 60])
def test_planted_instance_and_balance_match_references(n, b):
    for extra_degree in range(4):
        for seed in (0, 11, 2**128 - 1):
            inst = planted_instance(n, b, extra_degree, seed=seed)
            ref = _planted_reference(n, b, extra_degree, seed)
            assert (inst.n_offline, inst.b) == (n, b)
            assert inst.arrivals == ref.arrivals
            _assert_balance_matches_reference(inst)


def test_balance_matches_reference_on_triangular_and_random():
    _assert_balance_matches_reference(triangular_instance(100, 100))
    rng = np.random.default_rng(5)
    for _ in range(50):
        n, b = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        arrivals = tuple(tuple(rng.integers(1, n + 1, size=rng.integers(0, n + 1)))
                         for _ in range(rng.integers(0, 3 * n * b)))
        _assert_balance_matches_reference(SimInstance(n, b, arrivals))


def test_slab_audit_on_planted_corpus(rng):
    # slab boundaries aligned with the spend grid: b a multiple of N
    for k in range(40):
        N = int(rng.choice([5, 10, 20]))
        b = N * int(rng.integers(1, 4))
        n = int(rng.integers(4, 16))
        inst = planted_instance(n, b, extra_degree=int(rng.integers(1, 4)),
                                seed=int(rng.integers(0, 2**31)))
        assert offline_optimum(inst) == n  # planted perfect b-matching
        run = run_balance(inst, n_slabs=N)
        assert slab_audit(run.stats, opt_exhausts_budgets=True).passed


def test_slab_audit_rejects_fabricated_stats():
    bad = SlabStats(N=4, alpha=np.array([6, 0, 0, 0, 0]),
                    beta=np.zeros(4), rho=np.zeros(6),
                    beta_units=np.zeros(4, dtype=np.int64), b=1)
    res = slab_audit(bad, opt_exhausts_budgets=True)
    assert not res.passed
    assert res.worst_prefix == 1


def test_slab_audit_vacuous_when_all_full():
    inst = SimInstance(n_offline=2, b=1, arrivals=((1,), (2,)))
    run = run_balance(inst, n_slabs=6)
    assert np.all(run.stats.alpha[:-1] == 0)
    assert slab_audit(run.stats, opt_exhausts_budgets=True).passed


def test_slab_audit_refused_without_hypothesis():
    run = run_balance(SimInstance(1, 1, ((1,),)), n_slabs=2)
    with pytest.raises(LpInputError):
        slab_audit(run.stats, opt_exhausts_budgets=False)


def test_ranking_single_edge():
    rep = run_ranking(SimInstance(1, 1, ((1,),)), trials=500, seed=1)
    assert rep.estimate == 1.0
    assert rep.std_error == 0.0


def test_ranking_complete_graph_is_perfect():
    n = 6
    inst = SimInstance(n, 1, tuple(tuple(range(1, n + 1)) for _ in range(n)))
    rep = run_ranking(inst, trials=300, seed=2)
    assert rep.estimate == float(n)


def test_ranking_requires_unit_capacity():
    with pytest.raises(LpInputError):
        run_ranking(SimInstance(2, 2, ((1,),)), trials=10)


@pytest.mark.parametrize("call", [
    lambda: run_balance(triangular_instance(3, 3), n_slabs=0),
    lambda: run_ranking(triangular_instance(3), trials=0),
    lambda: run_secretary(PolicyTable(n=3, accept_prob=np.ones(3),
                                      reachable=np.ones(3, bool)), trials=0),
], ids=["run_balance.n_slabs", "run_ranking.trials", "run_secretary.trials"])
def test_count_below_one_is_rejected(call):
    with pytest.raises(LpInputError, match="must be >= 1"):
        call()


@pytest.mark.parametrize("seed", [-1, 2**128], ids=["negative", "2^128"])
def test_seed_outside_philox_key_range_is_rejected(seed):
    policy = PolicyTable(n=3, accept_prob=np.ones(3), reachable=np.ones(3, bool))
    with pytest.raises(LpInputError, match="seed"):
        run_ranking(triangular_instance(4, 1), trials=10, seed=seed)
    with pytest.raises(LpInputError, match="seed"):
        run_secretary(policy, trials=10, seed=seed)
    with pytest.raises(LpInputError, match="seed"):
        planted_instance(5, 1, seed=seed)


def test_largest_seed_is_accepted():
    seed = 2**128 - 1
    assert run_ranking(triangular_instance(4, 1), trials=10, seed=seed).seed == seed
    assert planted_instance(5, 1, seed=seed).n_online == 5


def test_ranking_reproducible_and_seed_consistent():
    inst = triangular_instance(30, 1)
    a = run_ranking(inst, trials=4000, seed=9)
    b = run_ranking(inst, trials=4000, seed=9)
    assert a.estimate == b.estimate and a.std_error == b.std_error
    c = run_ranking(inst, trials=4000, seed=10)
    spread = abs(a.estimate - c.estimate)
    assert spread <= 4 * math.hypot(a.std_error, c.std_error)


# six offline vertices; arrivals 2 and 5 have no neighbor
EMPTY_ARRIVALS = SimInstance(6, 1, ((1, 2), (), (3,), (1, 2, 3, 4, 5, 6), (), (6,),
                                    (2, 3)))


def test_block_streams_pinned():
    # 10_000 trials: two full blocks and a partial third
    assert list(_blocks(10_000)) == [(0, 4096), (1, 4096), (2, 1808)]
    rep = run_ranking(triangular_instance(30, 1), 10_000, seed=9)
    assert rep.estimate == 19.2292
    n, k = 20, 7
    threshold = PolicyTable(n=n, accept_prob=np.r_[np.zeros(k), np.ones(n - k)],
                            reachable=np.ones(n, dtype=bool))
    assert run_secretary(threshold, 10_000, seed=6).estimate == 0.3814
    # (instance, seed, trials) -> (estimate, std_error); 5000 trials end in a
    # partial block of 904
    for inst, seed, trials, estimate, std_error in [
        (triangular_instance(30, 1), 0, 1, 20.0, 0.0),
        (triangular_instance(30, 1), 9, 1, 18.0, 0.0),
        (triangular_instance(30, 1), 1, 5000, 19.2156, 0.01536068091275971),
        (triangular_instance(30, 1), 2, 5000, 19.2262, 0.015556834993757634),
        (planted_instance(40, 1, seed=2), 1, 1, 35.0, 0.0),
        (planted_instance(40, 1, seed=2), 9, 5000, 34.7144, 0.016699170651864843),
        (EMPTY_ARRIVALS, 1, 1, 5.0, 0.0),
        (EMPTY_ARRIVALS, 0, 5000, 4.1474, 0.00918866335801141),
        (EMPTY_ARRIVALS, 2, 5000, 4.1624, 0.00924458438590366),
    ]:
        rep = run_ranking(inst, trials, seed=seed)
        assert (rep.estimate, rep.std_error) == (estimate, std_error)


def _ranking_reference(instance, trials, seed):
    """The float-priority RANKING loop that run_ranking replaced: per block,
    an (n, bsz) array of draws, argmin over each arrival's neighbors (first
    minimum, so ties go to the lowest index), inf for a matched vertex."""
    n = instance.n_offline
    nb_idx = [np.array(nb, dtype=np.int64) - 1 for nb in instance.arrivals]
    total = total_sq = 0.0
    for block, bsz in _blocks(trials):
        rng = online_sim._block_rng(seed, block)
        live = np.ascontiguousarray(rng.random((bsz, n)).T)
        size = np.zeros(bsz, dtype=np.int64)
        cols = np.arange(bsz)
        for idx in nb_idx:
            if idx.size == 0:
                continue
            pri = live[idx]
            j = pri.argmin(axis=0)
            size += pri[j, cols] < np.inf
            live[idx[j], cols] = np.inf
        total += float(size.sum())
        total_sq += float((size.astype(float) ** 2).sum())
    return online_sim._report(total, total_sq, trials, seed)


def _random_instance(n, n_online, degree, seed):
    rng = np.random.default_rng(seed)
    return SimInstance(n, 1, tuple(tuple(rng.integers(1, n + 1, size=degree))
                                   for _ in range(n_online)))


# more arrivals than vertices, so arrivals find every neighbor matched
OVERLOADED = SimInstance(5, 1, tuple(tuple(range(1, 6)) for _ in range(8))
                         + ((2, 4), (1, 5), (3,)))


@pytest.mark.parametrize("inst", [
    pytest.param(triangular_instance(30, 1), id="triangular-30"),
    pytest.param(planted_instance(40, 1, seed=2), id="planted-40"),
    pytest.param(EMPTY_ARRIVALS, id="empty-arrivals"),
    pytest.param(OVERLOADED, id="overloaded"),
    pytest.param(_random_instance(12, 30, 4, 7), id="random-12"),
])
def test_ranking_matches_reference(inst):
    # 1 and 5000 trials end in partial blocks (of 1 and 904), 8192 does not
    for seed, trials in [(0, 1), (1, 5000), (2, 5000), (9, 8192), (2**128 - 1, 300)]:
        rep = run_ranking(inst, trials, seed=seed)
        ref = _ranking_reference(inst, trials, seed)
        assert (rep.estimate, rep.std_error) == (ref.estimate, ref.std_error)


@pytest.mark.parametrize("n", [511, 512, 1023, 1024, 1100])
def test_ranking_matches_reference_around_packing_limit(n):
    # up to n = 1023 the keys hold the draws themselves, above it their ranks
    for inst in (planted_instance(n, 1, 3, seed=n), triangular_instance(n, 1),
                 _random_instance(n, 2 * n, 2, n)):
        rep = run_ranking(inst, 300, seed=n)
        ref = _ranking_reference(inst, 300, n)
        assert (rep.estimate, rep.std_error) == (ref.estimate, ref.std_error)


class _CoarseGenerator:
    """Draws on the grid k/8, so most trials hold tied priorities."""

    def __init__(self, seed, block):
        self._rng = np.random.default_rng([seed, block])

    def random(self, size):
        return self._rng.integers(0, 8, size=size) / 8


class _TiedGenerator(_CoarseGenerator):
    """Every draw is 0: all priorities tie."""

    random = staticmethod(np.zeros)


@pytest.mark.parametrize("n", [6, 30, 1100])
def test_ranking_ties_go_to_lowest_index(monkeypatch, n):
    monkeypatch.setattr(online_sim, "_block_rng", _CoarseGenerator)
    runs = [(0, 300), (3, 5000)] if n < 1024 else [(0, 300), (3, 400)]
    for inst in (triangular_instance(n, 1), _random_instance(n, 2 * n, 3, 1)):
        for seed, trials in runs:
            rep = run_ranking(inst, trials, seed=seed)
            ref = _ranking_reference(inst, trials, seed)
            assert (rep.estimate, rep.std_error) == (ref.estimate, ref.std_error)
    # with every priority tied, the first arrival of triangular(2, 1) takes
    # vertex 1 and leaves vertex 2 for the second
    monkeypatch.setattr(online_sim, "_block_rng", _TiedGenerator)
    assert run_ranking(triangular_instance(2, 1), 50, seed=0).estimate == 2.0


def exact_ranking_value(inst):
    """E[RANKING] as a fraction, averaged over all n! priority orders."""
    total = 0
    orders = list(itertools.permutations(range(inst.n_offline)))
    for rank in orders:
        free = set(range(1, inst.n_offline + 1))
        for nb in inst.arrivals:
            avail = [u for u in nb if u in free]
            if avail:
                free.remove(min(avail, key=lambda u: rank[u - 1]))
                total += 1
    return Fraction(total, len(orders))


@pytest.mark.parametrize("inst,exact", [
    pytest.param(triangular_instance(6, 1), Fraction(2921, 720), id="triangular-6"),
    pytest.param(EMPTY_ARRIVALS, Fraction(83, 20), id="empty-arrivals"),
])
def test_ranking_matches_exact_expectation(inst, exact):
    assert exact_ranking_value(inst) == exact
    for seed in range(3):
        rep = run_ranking(inst, trials=20_000, seed=seed)
        assert abs(rep.estimate - float(exact)) <= 4 * rep.std_error


def _triangular_dp_exact(n):
    """ranking_triangular_value's DP in exact rationals: p[k] is the chance
    that k bidders of the suffix are free."""
    p, value = {n: Fraction(1)}, Fraction(0)
    for s in range(n, 0, -1):
        value += 1 - p.get(0, 0)
        nxt = {0: p.get(0, 0)}
        for k, w in p.items():
            if k:
                nxt[k - 1] = nxt.get(k - 1, 0) + w * Fraction(s - k + 1, s)
                nxt[k - 2] = nxt.get(k - 2, 0) + w * Fraction(k - 1, s)
        p = nxt
    return value


@pytest.mark.parametrize("n", [*range(1, 8), 20, 60])
def test_triangular_dp_in_rationals_and_floats(n):
    exact = _triangular_dp_exact(n)
    if n < 8:   # all n! priority orders
        assert exact == exact_ranking_value(triangular_instance(n, 1))
    assert ranking_triangular_value(n) == pytest.approx(float(exact), rel=1e-14)


@pytest.mark.parametrize("n", [100, 1000, 4000])
def test_triangular_dp_meets_closed_form(n):
    # n (1 - 1/e) + 1 - 2/e
    assert ranking_triangular_value(n) == pytest.approx(
        ranking_triangular_closed_form(n), rel=1e-14)


def test_ranking_matches_triangular_value():
    rep = run_ranking(triangular_instance(100, 1), 100_000, seed=1)
    assert abs(rep.estimate - ranking_triangular_value(100)) <= 4 * rep.std_error


@pytest.mark.parametrize("trials", [1, 4096, 3 * 4096 + 5])
@pytest.mark.parametrize("inst", [
    pytest.param(triangular_instance(30, 1), id="triangular-30"),
    pytest.param(planted_instance(40, 1, seed=2), id="planted-40"),
    pytest.param(EMPTY_ARRIVALS, id="empty-arrivals"),
    pytest.param(_random_instance(1100, 300, 3, 1), id="ranks-1100"),
])
def test_ranking_is_invariant_to_the_cpu_count(monkeypatch, inst, trials):
    # thread switches forced often, so the fill interleaves with the arrivals
    ref = _ranking_reference(inst, trials, 3)
    runs = set()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(online_sim, "_workers", lambda: workers)
            rep = run_ranking(inst, trials, seed=3)
            runs.add((rep.estimate.hex(), rep.std_error.hex()))
    finally:
        sys.setswitchinterval(interval)
    assert runs == {(ref.estimate.hex(), ref.std_error.hex())}


@pytest.mark.parametrize("workers", [1, 2])
def test_ranking_fill_exception_reaches_the_caller(monkeypatch, workers):
    threads = set()

    class Failing(_CoarseGenerator):
        def __init__(self, seed, block):
            threads.add(threading.get_ident())
            if block == 1:
                raise RuntimeError("block 1")
            super().__init__(seed, block)

    monkeypatch.setattr(online_sim, "_workers", lambda: workers)
    monkeypatch.setattr(online_sim, "_block_rng", Failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="block 1"):
        run_ranking(triangular_instance(30, 1), 3 * 4096 + 5, seed=0)
    # with two CPUs block 1 is drawn on a second thread
    assert len(threads) == workers
    assert threading.active_count() == before


def test_ranking_triangular_near_limit():
    rep = run_ranking(triangular_instance(60, 1), trials=20_000, seed=5)
    assert 0.60 <= rep.estimate / 60 <= 0.67


def test_policy_from_lp_threshold_shape():
    n = 60
    sol = solve(build_secretary(n))
    pol = secretary_policy_from_lp(sol.x)
    k_star, _ = best_threshold(n)
    assert np.all(pol.accept_prob[:k_star] <= 1e-9)
    reach = pol.reachable[k_star:]
    assert np.all(pol.accept_prob[k_star:][reach] >= 1 - 1e-9)
    assert abs(k_star / n - INV_E) <= 2.0 / n


def test_policy_from_zero_vector():
    pol = secretary_policy_from_lp(np.zeros(8))
    assert np.all(pol.accept_prob == 0.0)
    assert np.all(pol.reachable)


def test_policy_first_position_only():
    x = np.zeros(5)
    x[0] = 1.0
    pol = secretary_policy_from_lp(x)
    assert pol.accept_prob[0] == 1.0
    assert not pol.reachable[1:].any()
    assert np.all(pol.accept_prob[1:] == 0.0)


def test_policy_rejects_infeasible():
    x = np.full(5, 0.9)
    with pytest.raises(LpInputError):
        secretary_policy_from_lp(x)


@pytest.mark.parametrize("x", [[-0.01, 0.0, 0.0], [np.nan, 0.0, 0.0],
                               [np.inf, 0.0], [], np.zeros((2, 2))],
                         ids=["negative", "nan", "inf", "empty", "2-d"])
def test_policy_rejects_malformed(x):
    with pytest.raises(LpInputError):
        secretary_policy_from_lp(x)


def test_policy_has_no_simplex_size_cap():
    pol = secretary_policy_from_lp(np.zeros(3000))
    assert pol.n == 3000
    assert np.all(pol.accept_prob == 0.0) and np.all(pol.reachable)


def test_secretary_trivial_and_uniform_policies():
    always = PolicyTable(n=1, accept_prob=np.ones(1),
                         reachable=np.ones(1, dtype=bool))
    rep = run_secretary(always, trials=200, seed=3)
    assert rep.estimate == 1.0
    assert policy_value(always) == 1.0

    n = 8
    first = PolicyTable(n=n, accept_prob=np.ones(n),
                        reachable=np.ones(n, dtype=bool))
    rep = run_secretary(first, trials=40_000, seed=4)
    assert abs(rep.estimate - 1.0 / n) <= 4 * rep.std_error
    assert policy_value(first) == pytest.approx(1.0 / n, abs=1e-15)


@pytest.mark.parametrize("n", [10, 50, 200])
def test_secretary_policy_tracks_lp_objective(n):
    sol = solve(build_secretary(n))
    pol = secretary_policy_from_lp(sol.x)
    rep = run_secretary(pol, trials=60_000, seed=6)
    assert abs(rep.estimate - sol.objective_value) <= 3 * rep.std_error


@pytest.mark.parametrize("n", [1, 2, 10, 100, 300])
def test_policy_value_is_lp_objective_and_best_threshold(n):
    sol = solve(build_secretary(n))
    value = policy_value(secretary_policy_from_lp(sol.x))
    assert abs(value - sol.objective_value) <= 1e-12
    assert abs(value - best_threshold(n)[1]) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_secretary_estimate_brackets_policy_value(monkeypatch, seed):
    # the simulators run at the caller's ufunc buffer size, not the small
    # one the simplex sets for its pivot loop
    caller, bufsizes, block_rng = threading.get_ident(), [], online_sim._block_rng
    caller_bufsize = np.getbufsize()

    def recording(*args):
        if threading.get_ident() == caller:
            bufsizes.append(np.getbufsize())
        return block_rng(*args)

    monkeypatch.setattr(online_sim, "_block_rng", recording)
    pol = secretary_policy_from_lp(solve(build_secretary(100)).x)
    rep = run_secretary(pol, trials=100_000, seed=seed)
    assert abs(rep.estimate - policy_value(pol)) <= 4 * rep.std_error
    run_ranking(triangular_instance(30, 1), 3 * 4096 + 5, seed=seed)
    assert bufsizes and set(bufsizes) == {caller_bufsize}


def test_fractional_secretary_stream_pinned():
    # a fractional policy draws its coins after the quality array, as before
    half = PolicyTable(n=20, accept_prob=np.full(20, 0.5),
                       reachable=np.ones(20, dtype=bool))
    rep = run_secretary(half, 10_000, seed=6)
    assert (rep.estimate, rep.std_error) == (0.1243, 0.003299399885427712)


def _secretary_reference(policy, trials, seed):
    """The coin-drawing run_secretary loop: per block, a quality and then a
    coin per position; a best-so-far position accepts where coin < p."""
    p = policy.accept_prob
    total = 0.0
    for block, bsz in _blocks(trials):
        rng = online_sim._block_rng(seed, block)
        quality = rng.random((bsz, policy.n))
        coins = rng.random((bsz, policy.n))
        best_so_far = quality == np.maximum.accumulate(quality, axis=1)
        accept = (coins < p[None, :]) & best_so_far
        first = np.argmax(accept, axis=1)
        success = accept.any(axis=1) & (first == np.argmax(quality, axis=1))
        total += float(success.sum())
    return online_sim._report(total, total, trials, seed)


def _policy(p):
    p = np.asarray(p, dtype=float)
    return PolicyTable(n=p.size, accept_prob=p, reachable=np.ones(p.size, bool))


_ZERO_ONE = np.random.default_rng(77).integers(0, 2, size=(3, 30)).astype(float)


@pytest.mark.parametrize("trials", [1, 4096, 3 * 4096 + 5])
@pytest.mark.parametrize("p", [
    *_ZERO_ONE, np.zeros(12), np.ones(12), [0.0], [1.0],
    np.r_[np.zeros(10), np.ones(20)],
    np.full(9, 0.5), np.r_[np.zeros(5), np.full(5, 1 - 1e-13)], [0.3],
], ids=["random0", "random1", "random2", "all-zero", "all-one", "n1-zero",
        "n1-one", "threshold", "half", "near-one", "n1-fractional"])
def test_secretary_matches_coin_drawing_reference(p, trials):
    policy = _policy(p)
    for seed in (0, 5):
        got = run_secretary(policy, trials, seed=seed)
        want = _secretary_reference(policy, trials, seed)
        assert (got.trials, got.seed) == (want.trials, want.seed)
        assert got.estimate.hex() == want.estimate.hex()
        assert got.std_error.hex() == want.std_error.hex()


@pytest.mark.parametrize("seed", [0, 2**128 - 1], ids=["0", "2^128-1"])
def test_block_substream_is_a_slice_of_the_block_stream(seed):
    # 10_000 trials end in a block of 1808; at n = 20, the second of two
    # row ranges starts at row 904 and takes its coins at (1808 + 904) * 20
    (block, bsz), n, a = list(_blocks(10_000))[-1], 20, 904
    for offset in [*range(8), 4095, (bsz + a) * n]:
        whole = online_sim._block_rng(seed, block).random(offset + 37)
        part = online_sim._block_rng(seed, block, offset).random(37)
        assert part.tobytes() == whole[offset:].tobytes(), offset


@pytest.mark.parametrize("trials", [1, 4096, 3 * 4096 + 5])
@pytest.mark.parametrize("p", [
    np.r_[np.zeros(10), np.ones(20)], np.full(9, 0.5),
    np.r_[np.zeros(5), np.full(5, 1 - 1e-13)], _ZERO_ONE[0],
], ids=["threshold", "half", "near-one", "random0"])
def test_secretary_is_invariant_to_the_worker_count(monkeypatch, p, trials):
    # more workers than CPUs, and thread switches forced often
    policy = _policy(p)
    runs = set()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3, 5):
            monkeypatch.setattr(online_sim, "_workers", lambda: workers)
            rep = run_secretary(policy, trials, seed=5)
            runs.add((rep.estimate.hex(), rep.std_error.hex()))
    finally:
        sys.setswitchinterval(interval)
    assert len(runs) == 1


@pytest.mark.parametrize("failing", [0, 2], ids=["calling-thread", "worker-thread"])
def test_secretary_worker_exception_reaches_the_caller(monkeypatch, failing):
    rows, threads = online_sim._secretary_rows, set()

    def flaky(*args):
        # the Thread object, held here, not its ident: a worker that has
        # exited can hand its ident on to the next one
        threads.add(threading.current_thread())
        if args[-2] == failing:
            raise RuntimeError(f"range {failing}")
        return rows(*args)

    monkeypatch.setattr(online_sim, "_workers", lambda: 3)
    monkeypatch.setattr(online_sim, "_secretary_rows", flaky)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"range {failing}"):
        run_secretary(_policy(np.full(9, 0.5)), 3 * 4096 + 5, seed=0)
    assert len(threads) == 3
    assert threading.active_count() == before
    # the seed is checked before any thread starts
    monkeypatch.setattr(online_sim, "_on_threads", None)
    with pytest.raises(LpInputError, match="seed"):
        run_secretary(_policy(np.full(9, 0.5)), 10, seed=-1)


def test_policy_from_lp_optima_are_zero_one():
    # every n, so an optimal vertex the simplex picks among ties (n = 2
    # has two) must still be a policy of the optimal value
    for n in range(1, 201):
        pol = secretary_policy_from_lp(solve(build_secretary(n)).x)
        p = pol.accept_prob
        assert np.all((p == 0.0) | (p == 1.0)), n
        assert abs(policy_value(pol) - best_threshold(n)[1]) <= 1e-12, n


@pytest.mark.parametrize("x, p", [
    ([1 - 1e-13], 1.0), ([1e-13], 0.0), ([0.5], 0.5),
    ([1 - 1e-11], 1 - 1e-11), ([1e-11], 1e-11),
    ([0.0, 0.5 - 5e-14], 1.0),     # p_2 = 2 x_2 = 1 - 1e-13
], ids=["1-1e-13", "1e-13", "half", "1-1e-11", "1e-11", "second-position"])
def test_policy_from_lp_snaps_only_rounding(x, p):
    assert secretary_policy_from_lp(x).accept_prob[-1] == p


def test_given_policy_is_not_snapped():
    p = [1e-13, 1 - 1e-13]
    assert _policy(p).accept_prob.tolist() == p


def test_slab_stats_invariants():
    inst = triangular_instance(12, 6)
    run = run_balance(inst, n_slabs=3)
    st = run.stats
    assert st.alpha.sum() == 12
    assert np.all(st.beta >= 0) and np.all(st.beta <= 12 / 3 + 1e-12)
    assert np.all((st.rho >= 0) & (st.rho <= 1))
    assert st.beta_units.sum() == run.value * st.N * st.b


def _threshold_policy_value_reference(n, k):
    """(k/n) * sum_{i=k+1}^n 1/(i-1) by rational accumulation (1/n for k = 0)."""
    if k == 0:
        return 1.0 / n
    acc = Fraction(0)
    for i in range(k + 1, n + 1):
        acc += Fraction(1, i - 1)
    return float(Fraction(k, n) * acc)


def _best_threshold_reference(n):
    """(k*, value) over exact suffix sums of the harmonic tail; ties go to the
    smallest k."""
    best_k, best_v = 0, Fraction(1, n)
    tail = Fraction(0)   # sum_{i=k+1}^n 1/(i-1)
    for k in range(n - 1, 0, -1):
        tail += Fraction(1, k)
        v = Fraction(k, n) * tail
        if v >= best_v:
            best_k, best_v = k, v
    return best_k, float(best_v)


def test_threshold_policy_value_examples():
    assert threshold_policy_value(3, 1) == pytest.approx(0.5, abs=1e-15)
    assert threshold_policy_value(2, 0) == pytest.approx(0.5, abs=1e-15)
    assert threshold_policy_value(1, 0) == 1.0
    with pytest.raises(LpInputError):
        threshold_policy_value(3, 3)
    with pytest.raises(LpInputError):
        threshold_policy_value(3, -1)
    with pytest.raises(LpInputError):
        threshold_policy_value(0, 0)


def test_threshold_policy_value_matches_rational_reference():
    for n in (1, 2, 3, 10, 97, 500):
        for k in {0, 1, n // 3, n // 2, n - 1} - {n}:
            assert abs(threshold_policy_value(n, k)
                       - _threshold_policy_value_reference(n, k)) <= 1e-15


def test_threshold_near_one_over_e():
    n = 10_000
    v = threshold_policy_value(n, int(n / math.e))
    assert abs(v - INV_E) <= 1e-3


def test_best_threshold_matches_rational_reference():
    for n in list(range(1, 301)) + [1000, 2000]:
        k, v = best_threshold(n)
        k_ref, v_ref = _best_threshold_reference(n)
        assert k == k_ref, n
        assert abs(v - v_ref) <= 1e-15, n


def test_best_threshold_at_the_oracle_cap():
    assert online_sim.best_threshold is best_threshold
    t0 = time.perf_counter()
    k, v = best_threshold(ORACLE_SIZE_CAP)
    elapsed = time.perf_counter() - t0
    assert abs(k / ORACLE_SIZE_CAP - INV_E) <= 1e-6
    assert INV_E < v < INV_E + 1e-7
    assert elapsed < 1.0


@pytest.mark.parametrize("n", list(range(1, 61)))
def test_best_threshold_equals_lp(n):
    _, v = best_threshold(n)
    assert abs(v - solve(build_secretary(n)).objective_value) <= 1e-9


def test_instance_file_roundtrip(tmp_path):
    inst = planted_instance(5, 2, seed=3)
    path = tmp_path / "inst.txt"
    write_instance(inst, path)
    back = read_instance(path)
    assert back.n_offline == inst.n_offline
    assert back.b == inst.b
    assert back.arrivals == inst.arrivals


@pytest.mark.parametrize("text", ["x 3 1\n", "2 1 1\n1 y\n", "2 -1 1\n",
                                  "3 1 1\n1\n2\n3\n", "3 1 1\n1\n\n",
                                  "3 2 1\n1\n", "3 1\n1\n"],
                         ids=["non-numeric header", "non-numeric arrival",
                              "negative n_online", "extra arrival lines",
                              "extra empty arrival line", "missing arrival line",
                              "two-field header"])
def test_read_instance_rejects_malformed(tmp_path, text):
    path = tmp_path / "inst.txt"
    path.write_text(text)
    with pytest.raises(LpInputError):
        read_instance(path)


def test_read_instance_keeps_empty_arrivals(tmp_path):
    path = tmp_path / "inst.txt"
    write_instance(EMPTY_ARRIVALS, path)
    assert read_instance(path) == EMPTY_ARRIVALS


def test_instance_validation():
    with pytest.raises(LpInputError):
        SimInstance(2, 1, ((0,),))
    with pytest.raises(LpInputError):
        SimInstance(2, 1, ((3,),))
    with pytest.raises(LpInputError):
        SimInstance(0, 1, ())
    for arrivals in ((5,), None):   # not a sequence of neighbor tuples
        with pytest.raises(LpInputError, match="arrivals must be a sequence"):
            SimInstance(3, 1, arrivals)


@pytest.mark.parametrize("b", [1, 2, 5])
def test_instance_validation_of_repeated_tuples(b):
    for bad in ((0, 1), (1, 3)):
        with pytest.raises(LpInputError):
            SimInstance(2, b, ((1, 2),) + (bad,) * b)
    with pytest.raises(ValueError):
        SimInstance(2, b, (("x",),) * b)
    messy = [2, 1, 2]
    inst = SimInstance(2, b, ((2, 1, 2),) * b + (messy,) * b + ((),))
    assert inst.arrivals == ((1, 2),) * (2 * b) + ((),)


@pytest.mark.parametrize("accept_prob, reachable", [
    (np.array([0.0, np.nan, 1.0]), np.ones(3, bool)),   # NaN
    (np.array([0.0, 2.0, 1.0]), np.ones(3, bool)),      # above 1
    (np.array([0.0, -0.5, 1.0]), np.ones(3, bool)),     # below 0
    (np.ones(4), np.ones(4, bool)),                     # size is not n
    (np.ones((3, 1)), np.ones((3, 1), bool)),           # not a vector
    (np.ones(3), np.ones(2, bool)),                     # reachable misshapen
])
def test_policy_table_validation(accept_prob, reachable):
    with pytest.raises(LpInputError):
        PolicyTable(n=3, accept_prob=accept_prob, reachable=reachable)


def test_policy_table_needs_a_position():
    with pytest.raises(LpInputError):
        PolicyTable(n=0, accept_prob=np.ones(0), reachable=np.ones(0, bool))


@pytest.mark.parametrize("arrivals", [(("a",),), ((1.7,),), ((1, math.nan),),
                                      ((math.inf,),)])
def test_instance_rejects_non_integer_neighbors(arrivals):
    with pytest.raises(LpInputError, match="neighbor index must be an integer, got "):
        SimInstance(3, 1, arrivals)


def test_instance_keeps_integer_valued_inputs():
    inst = SimInstance(3.0, np.int64(2), ((2.0, np.int64(1)), (3,)))
    assert (inst.n_offline, inst.b) == (3, 2)
    assert inst.arrivals == ((1, 2), (3,))
    with pytest.raises(LpInputError, match="integer"):
        SimInstance(3.5, 1, ())


@pytest.mark.parametrize("extra_degree", [-1, 1.5])
def test_planted_instance_rejects_bad_extra_degree(extra_degree):
    with pytest.raises(LpInputError, match="extra_degree"):
        planted_instance(5, 1, extra_degree=extra_degree)


@pytest.mark.parametrize("excess, ok", [(5e-7, True), (2e-6, False)])
def test_policy_reads_the_secretary_rows(excess, ok):
    # row 2 is 2 x_2 + x_1 <= 1: only its prefix sum goes over by `excess`
    x = np.array([0.5, (0.5 + excess) / 2, 0.0])
    if ok:
        assert secretary_policy_from_lp(x).n == 3
    else:
        with pytest.raises(LpInputError, match="not feasible"):
            secretary_policy_from_lp(x)

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Expensive solves are shared across criteria through
module-scoped fixtures.
"""
import math
import time

import numpy as np
import pytest

from lplimits import (
    best_threshold,
    build_balance,
    build_ranking,
    build_secretary,
    build_toy,
    certify,
    check_feasibility,
    discretize_profile,
    integrate_tight_ode,
    limit_estimate,
    multiplier_check,
    planted_instance,
    policy_value,
    run_balance,
    run_ranking,
    run_secretary,
    secretary_policy_from_lp,
    slab_audit,
    solve,
    tight_value_ranking,
    triangular_instance,
)
from lplimits.families import FamilySpec
from lplimits.interval_opt import search_best
from lplimits.variational import BALANCE_G, RANKING_G, SECRETARY_G, SECRETARY_U

INV_E = 1.0 / math.e
BALANCE_SIZES = (64, 128, 256, 512, 1024)
TOY_SIMPLEX_SIZES = (64, 128, 256, 512)
TOY_ORACLE_SIZES = (4096, 16384, 65536, 262144, 1048576)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def balance_solutions():
    t0 = time.perf_counter()
    sols = {}
    for n in BALANCE_SIZES:
        lp = build_balance(n)
        sols[n] = (lp, solve(lp))
    return sols, time.perf_counter() - t0


@pytest.fixture(scope="module")
def secretary_solutions():
    sols = {}
    for n in list(range(1, 201)) + [512]:
        lp = build_secretary(n)
        sols[n] = (lp, solve(lp))
    return sols


@pytest.fixture(scope="module")
def ranking_512():
    lp = build_ranking(512)
    return lp, solve(lp)


@pytest.fixture(scope="module")
def toy_solutions():
    sols = {}
    for n in TOY_SIMPLEX_SIZES:
        lp = build_toy(n)
        sols[n] = (lp, solve(lp))
    return sols


def test_criterion_1_balance_limit(balance_solutions):
    sols, elapsed = balance_solutions
    vals = [sols[n][1].objective_value for n in BALANCE_SIZES]
    ok_status = all(sols[n][1].status == "optimal" for n in BALANCE_SIZES)
    ok_monotone = all(a < b for a, b in zip(vals, vals[1:]))
    from lplimits.studies import SweepRow, SweepTable
    table = SweepTable(family="balance",
                       rows=[SweepRow(n, v, "optimal", 0.0)
                             for n, v in zip(BALANCE_SIZES, vals)],
                       limit_target=INV_E)
    fit = limit_estimate(table)
    ok_limit = fit.target_gap <= 1e-3
    ok_raw = abs(vals[-1] - 0.3678794412) <= 5e-3
    ok_time = elapsed <= 300.0
    report(1, ok_status and ok_monotone and ok_limit and ok_raw and ok_time,
           f"balance values increasing={ok_monotone}, extrapolated="
           f"{fit.extrapolated_limit:.8f} (gap {fit.target_gap:.2e}), "
           f"raw@1024 gap {abs(vals[-1] - INV_E):.2e}, {elapsed:.1f}s")


def test_criterion_2_ranking_limit(ranking_512):
    t0 = time.perf_counter()
    v = tight_value_ranking(10**6)
    oracle_time = time.perf_counter() - t0
    ok_value = abs(v - 0.6321205588) <= 1e-5
    ok_fast = oracle_time < 1.0
    lp, sol = ranking_512
    diff = abs(sol.objective_value - tight_value_ranking(512))
    ok_match = sol.status == "optimal" and diff <= 1e-9
    report(2, ok_value and ok_fast and ok_match,
           f"recurrence@1e6={v:.8f} in {oracle_time * 1e3:.1f} ms, "
           f"simplex@512 vs recurrence diff={diff:.2e}")


def test_criterion_3_secretary_limit(secretary_solutions):
    sols = secretary_solutions
    v512 = sols[512][1].objective_value
    ok_limit = abs(v512 - INV_E) <= 2e-3
    worst = 0.0
    for n in range(1, 201):
        _, lp_sol = sols[n]
        _, thr = best_threshold(n)
        worst = max(worst, abs(lp_sol.objective_value - thr))
    ok_thr = worst <= 1e-9
    report(3, ok_limit and ok_thr,
           f"LP_S(512)={v512:.6f} (gap {abs(v512 - INV_E):.2e}), "
           f"max LP-vs-threshold gap over n<=200: {worst:.2e}")


def test_criterion_4_toy_limit(toy_solutions):
    rows = []
    from lplimits.studies import SweepRow, SweepTable
    for n in TOY_SIMPLEX_SIZES:
        rows.append(SweepRow(n, toy_solutions[n][1].objective_value,
                             "optimal", 0.0))
    from lplimits.families import tight_value_toy
    for n in TOY_ORACLE_SIZES:
        rows.append(SweepRow(n, tight_value_toy(n), "optimal", 0.0))
    table = SweepTable(family="toy", rows=rows, limit_target=1 - INV_E)
    fit = limit_estimate(table)
    ok = fit.target_gap <= 1e-3
    report(4, ok, f"toy extrapolated limit {fit.extrapolated_limit:.8f} "
                  f"(gap {fit.target_gap:.2e})")


def test_criterion_5_ode_agreement():
    errs = {}
    ratios = {}
    for kind, target in [("balance", INV_E), ("ranking", 1 - INV_E)]:
        errs[kind] = abs(integrate_tight_ode(kind, 1e-4).terminal - target)
        e1 = abs(integrate_tight_ode(kind, 1e-2).terminal - target)
        e2 = abs(integrate_tight_ode(kind, 5e-3).terminal - target)
        ratios[kind] = e1 / e2
    ok_err = all(e <= 1e-8 for e in errs.values())
    ok_ratio = all(12.0 <= r <= 20.0 for r in ratios.values())
    report(5, ok_err and ok_ratio,
           f"terminal errors {errs['balance']:.1e}/{errs['ranking']:.1e}, "
           f"halving ratios {ratios['balance']:.1f}/{ratios['ranking']:.1f}")


def test_criterion_6_discretization_bridge():
    n = 1000
    checks = []
    for prof, kind, limit in [(BALANCE_G, "balance", INV_E),
                              (RANKING_G, "ranking", 1 - INV_E),
                              (SECRETARY_G, "secretary", INV_E)]:
        _, gap = discretize_profile(prof, FamilySpec(kind, n))
        checks.append((kind, gap.max_violation <= 2.0 / n,
                       abs(gap.lp_objective - limit) <= 2e-3,
                       gap.max_violation, abs(gap.lp_objective - limit)))
    ok = all(c[1] and c[2] for c in checks)
    detail = "; ".join(f"{k}: viol={v:.1e}, objgap={o:.1e}"
                       for k, _, _, v, o in checks)
    report(6, ok, detail)


def test_criterion_7_multiplier_conditions():
    g = 10_000
    t = np.arange(1, g + 1) / g
    u = SECRETARY_U(t)
    _, rep = multiplier_check(t, u, tol=1e-6)
    _, rep_bad = multiplier_check(t, u + 0.01 * t * (1 - t), tol=1e-6)
    ok = rep.passed and rep.max_residual <= 1e-6 \
        and (not rep_bad.passed) and rep_bad.max_residual > 1e-3
    report(7, ok, f"candidate max residual {rep.max_residual:.2e}, "
                  f"perturbed {rep_bad.max_residual:.2e}")


def test_criterion_8_interval_objective():
    r1 = search_best(1, 1e-3, 1e-2)
    a, b = r1.best_s.points
    ok1 = abs(a - INV_E) <= 1e-3 and abs(b - 1.0) <= 1e-3 \
        and abs(r1.best_value - INV_E) <= 1e-6
    r2 = search_best(2, 1e-2, 1e-2)
    ok2 = r2.best_value < INV_E
    report(8, ok1 and ok2,
           f"K=1 argmax=({a:.6f},{b:.6f}) value gap "
           f"{abs(r1.best_value - INV_E):.1e}; K=2 max {r2.best_value:.6f} "
           f"< 1/e by {INV_E - r2.best_value:.1e} over "
           f"{r2.grid_points_evaluated} grid points")


def test_criterion_9_simulations(secretary_solutions):
    t0 = time.perf_counter()
    rank = run_ranking(triangular_instance(100, 1), trials=10**5, seed=2024)
    rank_ratio = rank.estimate / 100
    ok_rank = 0.61 <= rank_ratio <= 0.66

    bal = run_balance(triangular_instance(100, 100), n_slabs=20)
    bal_ratio = bal.value / 100
    ok_bal = abs(bal_ratio - (1 - INV_E)) <= 0.02

    _, sol = secretary_solutions[100]
    policy = secretary_policy_from_lp(sol.x)
    sec = run_secretary(policy, trials=10**6, seed=2024)
    # the simulated policy's exact value, which is the LP optimum it came from
    exact = policy_value(policy)
    dev = abs(sec.estimate - exact)
    ok_sec = dev <= 3 * sec.std_error and abs(exact - sol.objective_value) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok_time = elapsed <= 180.0
    report(9, ok_rank and ok_bal and ok_sec and ok_time,
           f"RANKING ratio {rank_ratio:.4f}, BALANCE ratio {bal_ratio:.4f}, "
           f"secretary dev {dev:.5f} vs 3se={3 * sec.std_error:.5f}, "
           f"{elapsed:.0f}s")


def test_criterion_10_audit_and_certificates(balance_solutions,
                                             secretary_solutions,
                                             ranking_512, toy_solutions):
    rng = np.random.default_rng(31415)
    audits_passed = 0
    for _ in range(200):
        n_slabs = int(rng.choice([5, 10, 20]))
        b = n_slabs * int(rng.integers(1, 4))
        n = int(rng.integers(4, 16))
        inst = planted_instance(n, b, extra_degree=int(rng.integers(1, 4)),
                                seed=int(rng.integers(0, 2**31)))
        run = run_balance(inst, n_slabs=n_slabs)
        if slab_audit(run.stats, opt_exhausts_budgets=True).passed:
            audits_passed += 1
    ok_audit = audits_passed == 200

    solved = [balance_solutions[0][n] for n in BALANCE_SIZES]
    solved += [secretary_solutions[n] for n in list(range(1, 201)) + [512]]
    solved.append(ranking_512)
    solved += [toy_solutions[n] for n in TOY_SIMPLEX_SIZES]
    worst_rel_gap = 0.0
    certified = 0
    for lp, sol in solved:
        rep = certify(lp, sol, tol=1e-8)
        rel = rep.gap / (1.0 + abs(rep.objective_value))
        worst_rel_gap = max(worst_rel_gap, rel)
        certified += rep.passed
    ok_cert = certified == len(solved)
    report(10, ok_audit and ok_cert,
           f"slab audits {audits_passed}/200, certificates "
           f"{certified}/{len(solved)} (worst relative gap {worst_rel_gap:.1e})")

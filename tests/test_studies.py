import math
from dataclasses import replace

import numpy as np
import pytest

from lplimits import (
    LpInputError,
    families,
    limit_estimate,
    solve,
    studies,
    sweep_family,
    write_sweep_csv,
)
from lplimits.families import ORACLE_SIZE_CAP
from lplimits.studies import CSV_HEADER, SweepError, SweepRow, SweepTable

INV_E = 1.0 / math.e


def test_sweep_toy_singleton():
    table = sweep_family("toy", [1])
    assert table.rows[0].value == pytest.approx(1.0)
    assert table.rows[0].status == "optimal"


def test_sweep_ranking_mixes_simplex_and_oracle():
    table = sweep_family("ranking", [2, 8, 32, 10_000, 100_000])
    vals = table.values
    assert np.all(np.diff(vals) > 0)          # climbing toward 1 - 1/e
    assert vals[-1] < 1 - INV_E
    assert abs(vals[-1] - (1 - INV_E)) < 1e-4
    assert np.all(table.sizes == [2, 8, 32, 10_000, 100_000])
    # every family has an oracle past the simplex cap
    for kind in ("toy", "balance", "ranking", "secretary"):
        table = sweep_family(kind, [2, 8, 32, 10_000, 100_000])
        assert [r.status for r in table.rows] == ["optimal"] * 5
        gaps = np.abs(table.values - table.limit_target)
        assert np.all(np.diff(gaps) < 0), kind
        assert gaps[-1] < 1e-5, kind


def test_sweep_balance_increasing():
    table = sweep_family("balance", [4, 8, 16, 32, 64])
    assert np.all(np.diff(table.values) > 0)
    assert table.values[-1] < INV_E


def test_sweep_rejects_oversize_and_unknown():
    for kind in ("toy", "balance", "ranking", "secretary"):
        with pytest.raises(LpInputError):
            sweep_family(kind, [ORACLE_SIZE_CAP + 1])
    with pytest.raises(LpInputError):
        sweep_family("nope", [4])
    with pytest.raises(LpInputError):
        sweep_family("toy", [])
    with pytest.raises(LpInputError, match="sizes must be a sequence"):
        sweep_family("toy", 5)


def test_sweep_aborts_on_non_optimal(monkeypatch):
    monkeypatch.setattr(studies, "solve", lambda lp: solve(lp, max_iterations=1))
    with pytest.raises(SweepError) as err:
        sweep_family("balance", [2, 16])
    assert err.value.size == 16
    assert err.value.status == "iteration_limit"


def test_sweep_aborts_on_oracle_mismatch(monkeypatch):
    toy = replace(families.FAMILIES["toy"], oracle=lambda n: 0.0)
    monkeypatch.setitem(families.FAMILIES, "toy", toy)
    with pytest.raises(SweepError) as err:
        sweep_family("toy", [4])
    assert (err.value.size, err.value.status) == (4, "oracle_mismatch")


def test_limit_estimate_constant_table():
    table = SweepTable(family="toy", rows=[
        SweepRow(n, 0.5, "optimal", 1.0) for n in (10, 20, 40, 80)
    ], limit_target=1 - INV_E)
    fit = limit_estimate(table)
    assert fit.extrapolated_limit == pytest.approx(0.5, abs=1e-12)
    assert fit.fit_constant == pytest.approx(0.0, abs=1e-9)


def test_limit_estimate_needs_three_rows():
    table = SweepTable(family="toy", rows=[
        SweepRow(10, 0.5, "optimal", 1.0), SweepRow(20, 0.5, "optimal", 1.0)
    ], limit_target=1 - INV_E)
    with pytest.raises(LpInputError):
        limit_estimate(table)


def test_ranking_extrapolation_through_1e6():
    table = sweep_family("ranking", [10_000, 40_000, 160_000, 640_000, 1_000_000])
    fit = limit_estimate(table)
    assert abs(fit.extrapolated_limit - (1 - INV_E)) <= 1e-5


def test_secretary_extrapolation_through_512():
    table = sweep_family("secretary", [64, 128, 256, 512])
    fit = limit_estimate(table)
    assert abs(fit.extrapolated_limit - INV_E) <= 1e-3


def test_rate_bound_with_fitted_constant():
    table = sweep_family("ranking", [8, 16, 32, 64, 128, 256, 5000, 20_000])
    fit = limit_estimate(table)
    L, C = fit.extrapolated_limit, fit.fit_constant
    for row in table.rows[2:]:
        assert abs(row.value - L) <= 2 * abs(C) / row.n


def test_cross_module_consistency():
    """The solver at desk scale, the discretization bridge, the tight ODE,
    and the simulated secretary policy all land on the same limits."""
    import lplimits as L
    from lplimits.families import FamilySpec
    from lplimits.variational import RANKING_G, SECRETARY_G

    limit_r, limit_s = 1 - INV_E, INV_E
    assert abs(L.solve(L.build_ranking(512)).objective_value - limit_r) <= 0.25 / 512 * 2
    _, gap = L.discretize_profile(RANKING_G, FamilySpec("ranking", 1000))
    assert abs(gap.lp_objective - limit_r) <= 2e-3
    assert abs(L.integrate_tight_ode("ranking", 1e-3).terminal - limit_r) <= 1e-8

    sol = L.solve(L.build_secretary(100))
    assert abs(sol.objective_value - limit_s) <= 1.0 / 100
    _, gap = L.discretize_profile(SECRETARY_G, FamilySpec("secretary", 1000))
    assert abs(gap.lp_objective - limit_s) <= 2e-3
    rep = L.run_secretary(L.secretary_policy_from_lp(sol.x), trials=50_000,
                          seed=8)
    assert abs(rep.estimate - sol.objective_value) <= 3 * rep.std_error


def test_csv_schema_golden(tmp_path):
    table = sweep_family("toy", [2, 4])
    path = tmp_path / "table.csv"
    write_sweep_csv(table, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER == "family,n,value,status,ms"
    first = lines[1].split(",")
    assert first[0] == "toy" and first[1] == "2"
    assert float(first[2]) == pytest.approx(0.75)
    assert first[3] == "optimal"
    float(first[4])  # parseable milliseconds


def test_sweep_rejects_non_integer_sizes():
    with pytest.raises(LpInputError, match="integer"):
        sweep_family("toy", [2.7, 5])
    with pytest.raises(LpInputError, match="integer"):
        sweep_family("toy", ["a"])
    assert sweep_family("toy", [2.0, np.int64(5)]).sizes.tolist() == [2, 5]

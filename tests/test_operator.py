"""The rows-free family LP (`FamilySpec.operator`) against the dense one."""
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from lplimits import (FamilySpec, LpInputError, certify, check_feasibility, dump_lp,
                      lp_core, solve)
from lplimits.families import FAMILIES, FAMILY_KINDS, SIMPLEX_SIZE_CAP, FamilyLp
from lplimits.variational import PROFILES, discretize_profile

SIZES = [1, 2, 3, 7, 64, 513, 2048]
CERT_SIZES = [1, 2, 3, 7, 64, 512]


def _g_profile(kind):
    return next(p for p in PROFILES.values() if p.family == kind)


def _points(kind, n, length):
    """Random points in [0, 1]^length, [0, 1/n]^length and [-1, 1]^length,
    and for length n the family's discretized g-profile."""
    rng = np.random.default_rng(n)
    pts = [rng.random(length), rng.random(length) / n, 2.0 * rng.random(length) - 1.0]
    if length == n:
        pts.append(discretize_profile(_g_profile(kind), FamilySpec(kind, n))[0])
    return pts


def _assert_close(op_value, dense_value, scale):
    assert op_value.shape == dense_value.shape
    assert np.all(np.abs(op_value - dense_value) <= 1e-12 * (1.0 + scale))


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("n", SIZES)
def test_operator_products_match_rows(kind, n):
    spec = FamilySpec(kind, n)
    dense, op = spec.build(), spec.operator()
    abs_rows = np.abs(dense.rows)
    points = _points(kind, n, n)
    for x in points:
        _assert_close(op.matvec(x), dense.rows @ x, abs_rows @ np.abs(x))
    # an (n, k) block gives, column by column, the vector products' bytes
    block = np.column_stack(points)
    products = op.matvec(block)
    assert products.shape == (dense.n_rows, block.shape[1])
    for j in range(block.shape[1]):
        assert products[:, j].tobytes() == op.matvec(block[:, j]).tobytes()
    for y in _points(kind, n, dense.n_rows):
        _assert_close(op.rmatvec(y), dense.rows.T @ y, abs_rows.T @ np.abs(y))


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("n", [1, 7, 513])
def test_operator_has_the_dense_fields(kind, n):
    spec = FamilySpec(kind, n)
    dense, op = spec.build(), spec.operator()
    assert isinstance(op, FamilyLp)
    assert (op.n_vars, op.n_rows) == (dense.n_vars, dense.n_rows)
    assert {f.name for f in fields(op)} == {f.name for f in fields(dense)} - {"rows"}
    assert op.relations == dense.relations
    for name, value in asdict(op).items():
        if isinstance(value, np.ndarray):
            assert value.tobytes() == getattr(dense, name).tobytes(), name
        else:
            assert value == getattr(dense, name), name


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("n", CERT_SIZES)
def test_certify_through_operator_matches_dense(kind, n):
    spec = FamilySpec(kind, n)
    dense = spec.build()
    sol = solve(dense)
    assert sol.status == "optimal"
    by_rows, by_op = certify(dense, sol), certify(spec.operator(), sol)
    assert by_rows.passed and by_op.passed
    for name, value in asdict(by_rows).items():
        assert abs(getattr(by_op, name) - value) <= 1e-12, name


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_feasibility_through_operator_matches_dense(kind):
    spec = FamilySpec(kind, 64)
    dense, op = spec.build(), spec.operator()
    for x in _points(kind, 64, 64):
        a, b = check_feasibility(dense, x), check_feasibility(op, x)
        assert abs(a.max_violation - b.max_violation) <= 1e-12


@pytest.mark.parametrize("change, message", [
    pytest.param({"family_tag": "bogus"}, "unknown family_tag 'bogus'", id="bogus-tag"),
    pytest.param({"family_tag": None}, "bad FamilyLp: tag None, 5 rows", id="no-tag"),
    pytest.param({"sign": np.full(4, -1.0)}, "sign/rhs length", id="short-sign"),
    pytest.param({"sign": np.full(6, -1.0), "rhs": np.ones(6)},
                 "bad FamilyLp: tag 'ranking', 6 rows on 5 variables", id="extra-row"),
])
def test_operator_rejects_a_malformed_header(change, message):
    # refused when made: not served another family's products, nor left to
    # fail in check_feasibility with numpy's broadcast error
    with pytest.raises(LpInputError, match=message):
        FamilyLp(**{**FAMILIES["ranking"].fields(5), **change})


def test_solve_and_dump_refuse_an_lp_without_rows(monkeypatch, tmp_path):
    # refused before the tableau is built or the dump file is opened, not
    # left to fail on the missing rows with an AttributeError
    def no_tableau(lp):
        raise AssertionError("tableau built for an LP without rows")

    monkeypatch.setattr(lp_core, "_Tableau", no_tableau)
    op, path = FamilySpec("ranking", 4).operator(), tmp_path / "lp.txt"
    with pytest.raises(LpInputError, match=r"FamilySpec\.build\(\)"):
        solve(op)
    with pytest.raises(LpInputError, match=r"FamilySpec\.build\(\)"):
        dump_lp(op, path)
    assert not path.exists()


def test_operator_rejects_bad_points():
    op = FamilySpec("ranking", 4).operator()
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(LpInputError, match="non-finite"):
            check_feasibility(op, [bad] * 4)
    for shape in (3, 5, (4, 1)):
        with pytest.raises(LpInputError, match="shape"):
            check_feasibility(op, np.zeros(shape))


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_certify_rejects_a_misshapen_dual(kind):
    # the prefix sums would take a dual of another length without complaint
    spec = FamilySpec(kind, 6)
    dense = spec.build()
    sol = solve(dense)
    for size in (dense.n_rows - 1, dense.n_rows + 1):
        bad = replace(sol, dual=np.zeros(size))
        for lp in (dense, spec.operator()):
            with pytest.raises(LpInputError, match="dual must have shape"):
                certify(lp, bad)


def test_operator_keeps_the_simplex_cap():
    spec = FamilySpec("ranking", SIMPLEX_SIZE_CAP + 1)

    def unsampled(t):  # the cap is checked before g is sampled
        raise AssertionError("g sampled before the size cap was checked")

    with pytest.raises(LpInputError) as dense_err:
        spec.build()
    with pytest.raises(LpInputError) as op_err:
        spec.operator()
    with pytest.raises(LpInputError) as vc_err:
        discretize_profile(_g_profile("ranking"), spec)
    with pytest.raises(LpInputError) as bare_err:
        discretize_profile(unsampled, spec)
    assert str(op_err.value) == str(dense_err.value) == str(vc_err.value) \
        == str(bare_err.value) \
        == f"family size {SIMPLEX_SIZE_CAP + 1} exceeds cap {SIMPLEX_SIZE_CAP}"

"""The working tableau T (m x N floats) is the largest array a solve holds.

T's start rows are negated in place, and T is dropped before the m x m basis
re-solve, so no second tableau-sized array is live at any point of a solve.
tracemalloc sees numpy's arrays but not LAPACK's workspace, so these peaks
leave out what ``np.linalg.solve`` allocates inside LAPACK; the benchmark's
peak RSS is what checks that.
"""
import tracemalloc

import pytest

from lplimits import families, lp_core, solve

N = 512


@pytest.mark.parametrize("kind", families.FAMILY_KINDS)
def test_solve_holds_one_tableau(kind):
    lp = getattr(families, f"build_{kind}")(N)   # the LP's rows are not the solve's
    tableau_bytes = lp_core._Tableau(lp).T.nbytes
    solve(families.build_toy(4))   # first-call allocations are not the solve's
    tracemalloc.start()
    try:
        solve(lp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the update's temporary, the broadcast product part[a - top:b - top,
    # None] * seg, is one block of T; toy's dense pivot rows make it the
    # largest: at n = 512 the peak is 1.349 T for toy and 1.151 T for
    # balance, ranking and secretary
    assert peak <= 1.5 * tableau_bytes, peak / tableau_bytes

"""The working tableau T (m x (N - m) floats, one column per nonbasic
variable) is the largest array a solve holds.

T is built in its condensed form, its start rows are negated in place, and
the final re-solve reads the basis inverse from T's nonbasic slack and
artificial columns and the basic ones' unit rows, with vectors alone, so no
m x N array, no second tableau-sized array and no m x m array is live at any
point of a solve.  tracemalloc sees numpy's arrays, not memory that BLAS may
take for itself; the benchmark's peak RSS is what checks that.
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
    # None] * seg, is one block of T: at n = 512 the peak is 1.175 T
    # (4.92 MB) for toy and 1.311 T (2.75 MB) for balance, ranking and
    # secretary.  The excess over T, 0.65 to 0.73 MB, is what it was under
    # the m x N tableau, a larger share of the condensed one
    assert peak <= 1.5 * tableau_bytes, peak / tableau_bytes

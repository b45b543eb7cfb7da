"""Block-sized arrays of the Monte Carlo simulators: how many are live at once.

A block array is TRIAL_BLOCK trials times n floats.  Runs of 3 blocks and a
few trials more cover full blocks, a short last block and block-to-block reuse.
"""
import tracemalloc

import numpy as np
import pytest

from lplimits import (PolicyTable, planted_instance, run_ranking, run_secretary,
                      triangular_instance)
from lplimits import online_sim
from lplimits.online_sim import TRIAL_BLOCK

TRIALS = 3 * TRIAL_BLOCK + 5


def _peak_blocks(run, n):
    run(1)   # first-call allocations are not the run's
    tracemalloc.start()
    try:
        run(TRIALS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * n * TRIAL_BLOCK)


@pytest.mark.parametrize("n", [100, 200])
@pytest.mark.parametrize("make", [lambda n: triangular_instance(n, 1),
                                  lambda n: planted_instance(n, 1, 3, seed=n)],
                         ids=["triangular", "planted"])
def test_ranking_holds_two_block_arrays(monkeypatch, make, n):
    # with 2 CPUs two key arrays take turns, one filled on a second thread
    # while the other plays; with 1 CPU one key array serves every block.
    # The draws come a few trials at a time, never a third block array
    inst = make(n)
    for workers, bound in ((1, 1.2), (2, 2.2)):
        monkeypatch.setattr(online_sim, "_workers", lambda: workers)
        peak = _peak_blocks(lambda t: run_ranking(inst, t, seed=0), n)
        assert peak <= bound, (workers, peak)


@pytest.mark.parametrize("n", [100, 200])
def test_secretary_holds_one_set_of_block_arrays(monkeypatch, n):
    # quality, its running maximum (reused for the coins) and two flag arrays
    # (2.25 block arrays) serve every block; no block's arrays overlap the
    # next block's.  The peak over 150 seeds was 2.274 with 1 CPU and 2.293
    # with 2 (row ranges add a few per-thread temporaries)
    policy = PolicyTable(n=n, accept_prob=np.full(n, 0.5), reachable=np.ones(n, bool))
    for workers in (1, 2):
        monkeypatch.setattr(online_sim, "_workers", lambda: workers)
        peak = _peak_blocks(lambda t: run_secretary(policy, t, seed=0), n)
        assert peak <= 2.345, (workers, peak)


@pytest.mark.parametrize("n", [100, 200])
def test_secretary_threshold_policy_draws_no_coins(n):
    # every p in {0, 1}: quality, its running maximum and two flag arrays
    # (2.25 block arrays); no coin array
    k = round(n / np.e)
    policy = PolicyTable(n=n, accept_prob=np.r_[np.zeros(k), np.ones(n - k)],
                         reachable=np.ones(n, bool))
    assert _peak_blocks(lambda t: run_secretary(policy, t, seed=0), n) <= 2.3

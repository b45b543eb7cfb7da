"""Secretary problem end to end: the policy-revealing LP, the stopping policy
recovered from its solution, the interval-sequence view of the continuum
optimum, and a Monte Carlo confirmation that they all agree.

Run:  python3 demos/04_secretary_policy.py
"""
import math

import numpy as np

from lplimits import (
    IntervalSequence,
    best_threshold,
    build_secretary,
    objective_g,
    reconstruct_u,
    run_secretary,
    secretary_policy_from_lp,
    solve,
    threshold_policy_value,
)
from lplimits.interval_opt import search_best

INV_E = 1.0 / math.e
n = 100

# --- the LP and the classical threshold rule --------------------------------
sol = solve(build_secretary(n))
k_star, thr_value = best_threshold(n)
print(f"LP_S({n}) optimum: {sol.objective_value:.8f}")
print(f"best threshold rule: reject {k_star}, then take the next best-so-far "
      f"-> {thr_value:.8f}")
print(f"k*/n = {k_star / n:.3f} vs 1/e = {INV_E:.3f}")
print(f"value of a few other thresholds: "
      + ", ".join(f"k={k}: {threshold_policy_value(n, k):.5f}"
                  for k in (10, 25, 37, 50, 80)))

# --- policy recovered from the LP solution ----------------------------------
# Acceptance probabilities flip from 0 to 1 at the threshold position.
policy = secretary_policy_from_lp(sol.x)
switch = int(np.argmax(policy.accept_prob > 0.5))
print(f"\nrecovered policy: p_i = 0 up to position {switch}, then 1 "
      f"(reachable positions)")

rep = run_secretary(policy, trials=200_000, seed=42)
print(f"Monte Carlo success rate: {rep.estimate:.5f} +- {rep.std_error:.5f} "
      f"(LP objective {sol.objective_value:.5f})")

# --- the continuum optimum as an interval sequence ---------------------------
# In the limit the optimal trajectory runs its constraint tight on a single
# interval [a, 1]; the induced objective a*ln(1/a) peaks at a = 1/e.
result = search_best(K=1, resolution=1e-3, min_separation=1e-2)
a, b = result.best_s.points
print(f"\nK=1 grid search + refinement: interval ({a:.6f}, {b:.6f}), "
      f"value {result.best_value:.9f} (1/e = {INV_E:.9f})")

result2 = search_best(K=2, resolution=1e-2, min_separation=1e-2)
print(f"K=2 exhaustive search: best {result2.best_value:.6f} over "
      f"{result2.grid_points_evaluated} sequences -- strictly below 1/e, "
      f"so a second interval never helps")

# The reconstructed trajectory for the optimal sequence is exactly the
# secretary optimizer: flat to 1/e, then 1 - (1/e)/t.
u, _ = reconstruct_u(IntervalSequence((INV_E, 1.0)), [INV_E, 1.0])
print(f"\nu(1/e) = {u[0]:.6f}, u(1) = {u[1]:.6f}, "
      f"objective {objective_g(IntervalSequence((INV_E, 1.0))):.6f}")

"""Build the four LP families, solve them at small sizes, and watch their
optimal values converge onto the analytic limits 1/e and 1 - 1/e.

Run:  python3 demos/01_families_and_limits.py
"""
import math

from lplimits import (
    build_balance,
    build_ranking,
    build_secretary,
    build_toy,
    limit_estimate,
    solve,
    sweep_family,
)

INV_E = 1.0 / math.e

# --- a first look at tiny instances -------------------------------------
# Each family is parameterized by its size; the printed coefficient matrices
# stay small enough to eyeball here.
for name, build in [("toy", build_toy), ("balance", build_balance),
                    ("ranking", build_ranking), ("secretary", build_secretary)]:
    lp = build(3)
    sol = solve(lp)
    print(f"{name:9s} n=3  value={sol.objective_value:.6f}  x={sol.x.round(4)}")

# The toy instance at n=2 is solvable by hand: the first constraint forces
# x1 = 1, the second then needs x2 >= 1/2, so the value is 3/4.
print("\ntoy n=2:", solve(build_toy(2)).objective_value, "(expected 0.75)")

# --- convergence sweeps ---------------------------------------------------
# Values drift onto their limits at a 1/n rate; fitting value ~ L + C/n over
# the larger sizes recovers the limit to a few decimal places more.  Sizes up
# to 2048 are solved by the simplex; larger ones use each family's closed-form
# optimum.
print("\nfamily     sizes ->            extrapolated   target        gap")
for kind, sizes in [
    ("toy", [64, 128, 256, 512, 4096, 65536]),
    ("balance", [32, 64, 128, 256, 10_000, 1_000_000]),
    ("ranking", [64, 128, 256, 10_000, 1_000_000]),
    ("secretary", [32, 64, 128, 256, 10_000, 1_000_000]),
]:
    table = sweep_family(kind, sizes)
    fit = limit_estimate(table)
    print(f"{kind:9s} n={sizes[0]}..{sizes[-1]:>8d}   "
          f"{fit.extrapolated_limit:.8f}   {table.limit_target:.8f}  "
          f"{fit.target_gap:.2e}")

print("\n1/e      =", INV_E)
print("1 - 1/e  =", 1 - INV_E)

"""Command-line interface: solves, sweeps, continuum checks, simulations.

Exit code 0 on success; any failure prints a machine-readable JSON object on
stderr and exits nonzero.  The default Monte Carlo seed can be overridden
with the LPLIMITS_SEED environment variable.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import families, interval_opt, online_sim, studies, variational
from .lp_core import LpInputError, certify, dump_lp, solve

SEED_ENV_VAR = "LPLIMITS_SEED"
DEFAULT_SEED = 20240601


def _int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise LpInputError(f"{name} must be an integer, got {text!r}") from None


def _default_seed() -> int:
    text = os.environ.get(SEED_ENV_VAR)
    return DEFAULT_SEED if text is None else _int(text, SEED_ENV_VAR)


def _cmd_solve(args) -> int:
    spec = families.FamilySpec.parse(args.family)
    lp = spec.build()
    sol = solve(lp)
    if args.dump_lp:
        dump_lp(lp, args.dump_lp)
    payload = {
        "family": spec.kind,
        "n": spec.size,
        "status": sol.status,
        "objective": sol.objective_value,
        "iterations": sol.iterations,
        "duality_gap": sol.duality_gap,
        "max_primal_violation": sol.max_primal_violation,
    }
    if sol.status == "optimal":
        payload["certified"] = bool(certify(lp, sol).passed)
    if args.json:
        print(json.dumps(payload))
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")
    return 0 if sol.status == "optimal" else 1


def _cmd_sweep(args) -> int:
    sizes = [_int(s, "--sizes") for s in args.sizes.split(",") if s.strip()]
    table = studies.sweep_family(args.family, sizes)
    fit = studies.limit_estimate(table) if args.extrapolate else None
    if args.out:
        studies.write_sweep_csv(table, args.out)
    if args.json:
        payload = {
            "family": table.family,
            "rows": [{"n": r.n, "value": r.value, "status": r.status,
                      "ms": r.ms} for r in table.rows],
            "limit_target": table.limit_target,
        }
        if fit:
            payload["extrapolated_limit"] = fit.extrapolated_limit
            payload["fit_constant"] = fit.fit_constant
            payload["error_bar"] = fit.error_bar
        print(json.dumps(payload))
    else:
        for r in table.rows:
            print(f"{table.family} n={r.n}: {r.value:.10f} ({r.status}, {r.ms:.1f} ms)")
        if fit:
            print(f"extrapolated limit: {fit.extrapolated_limit:.10f} "
                  f"(target {table.limit_target:.10f}, gap {fit.target_gap:.2e})")
    return 0


def _cmd_ode(args) -> int:
    traj = variational.integrate_tight_ode(args.kind, args.step)
    if args.out:
        variational.write_trajectory_csv(args.out, traj.ts, traj.values)
    target = variational.ODE_TERMINAL[args.kind]
    print(f"{args.kind}: terminal {traj.terminal:.12f} "
          f"(closed form {target:.12f}, error {abs(traj.terminal - target):.3e})")
    return 0


def _cmd_vc_check(args) -> int:
    profile = variational.PROFILES.get(args.profile)
    if profile is None:
        raise LpInputError(f"unknown profile tag {args.profile!r}")
    spec = families.FamilySpec.parse(args.family)
    _, gap = variational.discretize_profile(profile, spec)
    print(f"{args.profile} -> {spec.kind}:{spec.size}")
    print(f"max constraint violation: {gap.max_violation:.3e} (bound 2/n = {2.0 / spec.size:.3e})")
    print(f"objective: lp {gap.lp_objective:.8f} vs continuum "
          f"{gap.continuum_objective:.8f} (gap {gap.objective_gap:.3e})")
    return 0 if gap.max_violation <= 2.0 / spec.size else 1


def _cmd_kkt_check(args) -> int:
    g = int(args.grid)
    t = np.arange(1, g + 1) / g
    u = variational.SECRETARY_U(t)
    _, rep = variational.multiplier_check(t, u, tol=args.tol)
    print(f"candidate residuals: stationarity {rep.residual_stationarity:.3e}, "
          f"slack {rep.residual_slack:.3e}, drive {rep.residual_drive:.3e}; "
          f"pass: {rep.passed}")
    ok = rep.passed
    if args.perturb > 0:
        up = u + args.perturb * t * (1.0 - t)
        _, rep2 = variational.multiplier_check(t, up, tol=args.tol)
        print(f"perturbed (+{args.perturb} t(1-t)) max residual "
              f"{rep2.max_residual:.3e}; pass: {rep2.passed}")
        ok = ok and not rep2.passed
    return 0 if ok else 1


def _cmd_interval_search(args) -> int:
    result = interval_opt.search_best(args.k, args.resolution, args.min_sep)
    if args.json:
        print(json.dumps(result.to_dict()))
    else:
        print(f"K={result.K}: best value {result.best_value:.9f} at "
              f"{result.best_s.points} ({result.grid_points_evaluated} grid points)")
    return 0


def _load_sim_instance(args) -> online_sim.SimInstance:
    if args.instance:
        return online_sim.read_instance(args.instance)
    if args.planted:
        parts = [_int(v, "--planted") for v in args.planted.split(",")]
        n = parts[0]
        b = parts[1] if len(parts) > 1 else 1
        return online_sim.triangular_instance(n, b)
    raise LpInputError("need --instance FILE or --planted n,b")


def _cmd_simulate(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.algorithm == "balance":
        inst = _load_sim_instance(args)
        run = online_sim.run_balance(inst, n_slabs=args.slabs)
        report = online_sim.SimReport(trials=1, estimate=run.value,
                                      std_error=0.0, seed=seed)
        audit = online_sim.slab_audit(run.stats, True) if args.planted else None
    elif args.algorithm == "ranking":
        inst = _load_sim_instance(args)
        report = online_sim.run_ranking(inst, trials=args.trials, seed=seed)
        audit = None
    else:
        if not args.policy_from_lp:
            raise LpInputError("secretary simulation needs --policy-from-lp n")
        n = _int(args.policy_from_lp, "--policy-from-lp")
        sol = solve(families.build_secretary(n))
        if sol.status != "optimal":
            raise LpInputError(f"secretary LP n={n} did not solve: status {sol.status!r}")
        policy = online_sim.secretary_policy_from_lp(sol.x)
        report = online_sim.run_secretary(policy, trials=args.trials, seed=seed)
        audit = None

    payload = {"trials": report.trials, "estimate": report.estimate,
               "std_error": report.std_error, "seed": report.seed}
    if args.json:
        print(json.dumps(payload))
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")
        if audit is not None:
            print(f"slab_audit: {'pass' if audit.passed else f'fail at p={audit.worst_prefix}'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lplimits")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one family instance")
    p.add_argument("--family", required=True, metavar="KIND:N")
    p.add_argument("--dump-lp", default=None, metavar="PATH")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("sweep", help="solve a family across sizes")
    p.add_argument("--family", required=True, choices=families.FAMILY_KINDS)
    p.add_argument("--sizes", required=True, help="comma-separated sizes")
    p.add_argument("--out", default=None, metavar="CSV")
    p.add_argument("--extrapolate", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("ode", help="integrate a tight-constraint ODE")
    p.add_argument("--kind", required=True, choices=("balance", "ranking"))
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out", default=None, metavar="CSV")
    p.set_defaults(fn=_cmd_ode)

    p = sub.add_parser("vc-check", help="discretization gap of a profile")
    p.add_argument("--profile", required=True)
    p.add_argument("--family", required=True, metavar="KIND:N")
    p.set_defaults(fn=_cmd_vc_check)

    p = sub.add_parser("kkt-check", help="multiplier residuals of the secretary optimizer")
    p.add_argument("--grid", type=int, default=10_000)
    p.add_argument("--perturb", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(fn=_cmd_kkt_check)

    p = sub.add_parser("interval-search", help="grid search over interval sequences")
    p.add_argument("--k", type=int, required=True, choices=(1, 2))
    p.add_argument("--resolution", type=float, required=True)
    p.add_argument("--min-sep", type=float, default=1e-2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_interval_search)

    p = sub.add_parser("simulate", help="run an online algorithm")
    p.add_argument("algorithm", choices=("balance", "ranking", "secretary"))
    p.add_argument("--instance", default=None, metavar="FILE")
    p.add_argument("--planted", default=None, metavar="N,B",
                   help="triangular instance with a planted optimum")
    p.add_argument("--policy-from-lp", default=None, metavar="N")
    p.add_argument("--trials", type=int, default=online_sim.DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=None,
                   help=f"defaults to ${SEED_ENV_VAR} or {DEFAULT_SEED}")
    p.add_argument("--slabs", type=int, default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_simulate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # machine-readable failure on stderr
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

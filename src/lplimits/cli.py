"""Command-line interface: solves, sweeps, continuum checks, simulations.

Each command takes only the flags it uses: ``vc-check`` discretizes the
g-profile of its ``--family`` kind, and each ``simulate`` algorithm has its
own sub-parser, so a flag of another algorithm is an error.  Exit code 0 on
success and 1 when a solve or check fails; any error, a malformed flag
included, prints a machine-readable JSON object on stderr and exits 2.  The
default Monte Carlo seed can be overridden with the LPLIMITS_SEED
environment variable.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import families, interval_opt, online_sim, studies, variational
from .lp_core import LpInputError, _as_int, certify, dump_lp, solve

SEED_ENV_VAR = "LPLIMITS_SEED"
DEFAULT_SEED = 20240601


class _Parser(argparse.ArgumentParser):
    """Its errors raise LpInputError, not exit, to take main's JSON error path."""

    def error(self, message):
        raise LpInputError(f"{self.prog}: {message}")


def _default_seed() -> int:
    text = os.environ.get(SEED_ENV_VAR)
    return DEFAULT_SEED if text is None else _as_int(text, SEED_ENV_VAR)


def _emit(payload: dict, as_json: bool) -> None:
    """One JSON line, or one ``key: value`` line per field."""
    if as_json:
        print(json.dumps(payload))
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")


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
    }
    if sol.status == "optimal":
        cert = certify(lp, sol)
        payload["duality_gap"] = cert.gap
        payload["max_primal_violation"] = cert.primal_feasibility
        payload["certified"] = bool(cert.passed)
    _emit(payload, args.json)
    return 0 if sol.status == "optimal" else 1


def _cmd_sweep(args) -> int:
    sizes = [_as_int(s, "--sizes") for s in args.sizes.split(",") if s.strip()]
    table = studies.sweep_family(args.family, sizes, certificates=True)
    fit = studies.limit_estimate(table) if args.extrapolate else None
    if args.out:
        studies.write_sweep_csv(table, args.out)
    if args.json:
        payload = {
            "family": table.family,
            "rows": [asdict(r) for r in table.rows],
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
    spec = families.FamilySpec.parse(args.family)
    profile = variational.PROFILES[families.FAMILIES[spec.kind].g_profile]
    _, gap = variational.discretize_profile(profile, spec)
    print(f"{profile.tag} -> {spec.kind}:{spec.size}")
    print(f"max constraint violation: {gap.max_violation:.3e} (bound 2/n = {2.0 / spec.size:.3e})")
    print(f"objective: lp {gap.lp_objective:.8f} vs continuum "
          f"{gap.continuum_objective:.8f} (gap {gap.objective_gap:.3e})")
    return 0 if gap.max_violation <= 2.0 / spec.size else 1


def _cmd_kkt_check(args) -> int:
    if args.grid > families.ORACLE_SIZE_CAP:   # before np.arange allocates it
        raise LpInputError(f"--grid {args.grid} exceeds cap {families.ORACLE_SIZE_CAP}")
    if not 0.0 <= args.perturb < np.inf:
        raise LpInputError(f"--perturb must be finite and >= 0, got {args.perturb}")
    t = np.arange(1, args.grid + 1) / args.grid
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
    if args.planted is None:
        return online_sim.read_instance(args.instance)
    parts = [_as_int(v, "--planted") for v in args.planted.split(",")]
    if len(parts) > 2:
        raise LpInputError(f"--planted takes n or n,b, got {args.planted!r}")
    return online_sim.triangular_instance(*parts)


def _cmd_simulate(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    online_sim._as_seed(seed)  # the Philox key range check, for every algorithm
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
        n = _as_int(args.policy_from_lp, "--policy-from-lp")
        sol = solve(families.build_secretary(n))
        if sol.status != "optimal":
            raise LpInputError(f"secretary LP n={n} did not solve: status {sol.status!r}")
        policy = online_sim.secretary_policy_from_lp(sol.x)
        report = online_sim.run_secretary(policy, trials=args.trials, seed=seed)
        audit = None

    _emit(asdict(report), args.json)
    if audit is not None and not args.json:
        print(f"slab_audit: {'pass' if audit.passed else f'fail at p={audit.worst_prefix}'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="lplimits")
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
    p.add_argument("--kind", required=True, choices=variational.ODE_TERMINAL)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out", default=None, metavar="CSV")
    p.set_defaults(fn=_cmd_ode)

    p = sub.add_parser("vc-check", help="discretization gap of a profile")
    p.add_argument("--family", required=True, metavar="KIND:N")
    p.set_defaults(fn=_cmd_vc_check)

    p = sub.add_parser("kkt-check", help="multiplier residuals of the secretary optimizer")
    p.add_argument("--grid", type=int, default=10_000)
    p.add_argument("--perturb", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(fn=_cmd_kkt_check)

    p = sub.add_parser("interval-search", help="grid search over interval sequences")
    p.add_argument("--k", type=int, required=True,
                   choices=range(1, interval_opt.K_CAP + 1))
    p.add_argument("--resolution", type=float, required=True)
    p.add_argument("--min-sep", type=float, default=1e-2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_interval_search)

    p = sub.add_parser("simulate", help="run an online algorithm")
    p.set_defaults(fn=_cmd_simulate)
    algorithms = p.add_subparsers(dest="algorithm", required=True)
    shared, source, trials = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    shared.add_argument("--seed", type=int, default=None,
                        help=f"defaults to ${SEED_ENV_VAR} or {DEFAULT_SEED}")
    shared.add_argument("--json", action="store_true")
    group = source.add_mutually_exclusive_group(required=True)
    group.add_argument("--instance", default=None, metavar="FILE")
    group.add_argument("--planted", default=None, metavar="N,B",
                       help="builds triangular_instance(N, B), whose optimum "
                            "is a planted perfect B-matching; B defaults to 1")
    trials.add_argument("--trials", type=int, default=online_sim.DEFAULT_TRIALS)
    p = algorithms.add_parser("balance", parents=[source, shared])
    p.add_argument("--slabs", type=int, default=20)
    algorithms.add_parser("ranking", parents=[source, trials, shared])
    p = algorithms.add_parser("secretary", parents=[trials, shared])
    p.add_argument("--policy-from-lp", required=True, metavar="N")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except Exception as exc:  # machine-readable failure on stderr
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

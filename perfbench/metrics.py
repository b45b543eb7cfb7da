"""Metric catalogue and the derivation of per-layer metrics from spans.

Every per-layer metric names the end-to-end metric it should move and on
which workload (`moves`); `python3 perfbench/metrics.py` prints the whole
catalogue as JSON.  Sizes marked "computed" come from array shapes, not from
measurement.
"""
from __future__ import annotations

import json

from tracer import BENCH, LAYERS, self_times

KINDS = ("toy", "balance", "ranking", "secretary")
CELL_SIZES = (128, 256, 512)
CELLS = tuple(f"{k}.{n}" for k in KINDS for n in CELL_SIZES)

END_TO_END = [
    {"name": "wall_cal_s", "unit": "s", "better": "lower", "bound": 0.25,
     "meaning": "median over the run's passes of the calibrated pass time: "
                "pass wall time * calibrate.NOMINAL_S / the mean time of the "
                "calibration loop sampled during the pass"},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "meaning": "median calibrated wall time of `import lplimits` in a fresh "
                "interpreter: import time * calibrate.NOMINAL_S / the mean "
                "calibration loop time around the import"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1,
     "meaning": "peak resident memory of the workload process after its first pass"},
]

_SWEEP = ["wall_cal_s@lp-sweep"]
_CONT = ["wall_cal_s@continuum"]
_CONT_MEM = ["wall_cal_s@continuum", "peak_rss_mb@continuum"]
_MC = ["wall_cal_s@montecarlo"]
_SMALL = ["lp_solves_per_s@lp-small"]

# (name, unit, better, moves, note)
_PER_LAYER = [
    ("families.build_s", "s", "lower", _CONT_MEM, ""),
    ("families.lp_mb", "MB", "lower", _CONT_MEM,
     "computed: largest m*n*8 B constraint matrix built in the pass"),
    ("families.oracle_s", "s", "lower", _SWEEP + _CONT, ""),
    ("families.self_s", "s", "lower", ["wall_cal_s@all"], "layer self time"),
]
for _cell in CELLS:
    _PER_LAYER += [
        (f"lp_core.solve_s.{_cell}", "s", "lower", _SWEEP, ""),
        (f"lp_core.pivots.{_cell}", "count", "lower", _SWEEP,
         "exact, LpSolution.iterations"),
        (f"lp_core.ms_per_pivot.{_cell}", "ms", "lower", _SWEEP,
         "a cheaper update lowers it most where tableau_mb exceeds L2"),
        (f"lp_core.tableau_mb.{_cell}", "MB", "lower", _SWEEP,
         "computed: m*(n + non-EQ rows)*8 B"),
    ]
_PER_LAYER += [
    ("lp_core.solve_s", "s", "lower", _SMALL, "summed over the pass"),
    ("lp_core.pivots", "count", "lower", _SMALL, "summed over the pass"),
    ("lp_core.us_per_pivot", "us", "lower", _SMALL, "over the pass"),
    ("lp_core.certify_s", "s", "lower", ["wall_cal_s@all"], "guard: under 1 %"),
    ("lp_core.solve_failed", "count", "lower", ["fail_frac@all"],
     "non-optimal solves"),
    ("lp_core.certify_failed", "count", "lower", ["fail_frac@all"],
     "failed certificates"),
    ("lp_core.self_s", "s", "lower", ["wall_cal_s@all"], "layer self time"),
    ("studies.self_s", "s", "lower", _SWEEP,
     "sweep time not covered by child spans"),
]
_PER_LAYER += [(f"studies.sweep_s.{k}", "s", "lower", _SWEEP, "") for k in KINDS]
_PER_LAYER += [
    ("online_sim.run_ranking_s.triangular", "s", "lower",
     ["ranking_trials_per_s@montecarlo"], ""),
    ("online_sim.run_ranking_s.planted", "s", "lower", _MC, ""),
    ("online_sim.run_secretary_s", "s", "lower",
     ["secretary_trials_per_s@montecarlo"], ""),
    ("online_sim.run_balance_s", "s", "lower", _MC, ""),
    ("online_sim.audit_s", "s", "lower", _MC,
     "instance build, BALANCE and audit of the planted slab audits"),
    ("online_sim.offline_optimum_s", "s", "lower", _MC, ""),
    ("online_sim.policy_from_lp_s", "s", "lower", _SMALL, ""),
    ("online_sim.trial_blocks", "count", "lower", _MC,
     "computed: ceil(trials / TRIAL_BLOCK) per simulation"),
    ("online_sim.self_s", "s", "lower", ["wall_cal_s@all"], "layer self time"),
    ("variational.ode_s.balance", "s", "lower", _CONT, ""),
    ("variational.ode_s.ranking", "s", "lower", _CONT, ""),
    ("variational.ode_steps", "count", "lower", _CONT,
     "exact RK4 step count, read from the trajectory"),
    ("variational.multiplier_check_s", "s", "lower", _CONT_MEM, ""),
    ("variational.discretize_s.balance", "s", "lower", _CONT_MEM, ""),
    ("variational.discretize_s.ranking", "s", "lower", _CONT_MEM, ""),
    ("variational.discretize_s.secretary", "s", "lower", _CONT_MEM, ""),
    ("variational.self_s", "s", "lower", ["wall_cal_s@all"], "layer self time"),
    ("interval_opt.search_s.k1", "s", "lower", _CONT, ""),
    ("interval_opt.search_s.k2", "s", "lower", _CONT, ""),
    ("interval_opt.grid_points", "count", "lower", _CONT, "exact count"),
    ("interval_opt.self_s", "s", "lower", ["wall_cal_s@all"], "layer self time"),
    ("bench.self_s", "s", "lower", ["wall_cal_s@all"],
     "the benchmark's own time: checks and glue"),
    ("trace.wall_s", "s", "lower", [], "traced pass time; equals the sum of all self_s"),
    ("trace.untraced_wall_s", "s", "lower", [], "median untraced pass of the same run"),
    ("trace.overhead_s", "s", "lower", [], "trace.wall_s - trace.untraced_wall_s"),
    # throughputs, timed by the benchmark in the untraced passes of a traced run
    ("lp_solves_per_s", "1/s", "higher", [],
     "certified secretary solves (build+solve+certify) per second, n = 1..200"),
    ("ranking_trials_per_s", "1/s", "higher", [],
     "RANKING trials per second on triangular_instance(100, 1)"),
    ("secretary_trials_per_s", "1/s", "higher", [],
     "secretary trials per second, n = 100"),
]

PER_LAYER = [{"name": n, "unit": u, "better": b, "layer": n.split(".")[0]
              if "." in n else "workload", "moves": m, "note": note}
             for n, u, b, m, note in _PER_LAYER]
NOTES = ("lp_solves_per_s", "ranking_trials_per_s", "secretary_trials_per_s")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def annotate(name, args, kwargs, result):
    """Span attributes: sizes, exact counts and outcomes of one call."""
    if name.startswith("families.build_"):
        return {"lp_mb": result.rows.nbytes / 1e6}
    if name == "lp_core.solve":
        lp = _arg(args, kwargs, 0, "lp")
        slack_rows = sum(r != "=" for r in lp.relations)
        return {"kind": lp.family_tag, "n": lp.n_vars, "pivots": result.iterations,
                "status": result.status,
                "tableau_mb": lp.n_rows * (lp.n_vars + slack_rows) * 8 / 1e6}
    if name == "lp_core.certify":
        return {"passed": bool(result.passed)}
    if name == "studies.sweep_family":
        return {"kind": _arg(args, kwargs, 0, "kind")}
    if name in ("online_sim.run_ranking", "online_sim.run_secretary"):
        from lplimits.online_sim import TRIAL_BLOCK
        trials = _arg(args, kwargs, 1, "trials")
        return {"trials": trials, "blocks": -(-trials // TRIAL_BLOCK)}
    if name == "variational.integrate_tight_ode":
        return {"kind": result.kind, "steps": len(result.ts) - 1}
    if name == "variational.discretize_profile":
        return {"kind": _arg(args, kwargs, 1, "family").kind}
    if name == "interval_opt.search_best":
        return {"K": _arg(args, kwargs, 0, "K"),
                "grid_points": result.grid_points_evaluated}
    return None


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass (its root span is the pass)."""
    selfs = self_times(spans)
    m = {e["name"]: 0.0 for e in PER_LAYER if e["name"] not in NOTES}
    step = {}       # span id -> name of the nearest benchmark step
    for s in spans:
        if s.layer == BENCH:
            step[s.id] = s.name
        else:
            step[s.id] = step.get(s.parent)
        m[f"{s.layer}.self_s"] += selfs[s.id]
        a, dur, name = s.attrs, s.duration, s.name
        if a.get("raised"):
            continue    # no result to read sizes and counts from
        if name.startswith("families.build_"):
            m["families.build_s"] += dur
            m["families.lp_mb"] = max(m["families.lp_mb"], a["lp_mb"])
        elif name.startswith("families.tight_"):
            m["families.oracle_s"] += dur
        elif name == "lp_core.solve":
            m["lp_core.solve_s"] += dur
            m["lp_core.pivots"] += a["pivots"]
            m["lp_core.solve_failed"] += a["status"] != "optimal"
            cell = f"{a['kind']}.{a['n']}"
            if cell in CELLS:
                m[f"lp_core.solve_s.{cell}"] += dur
                m[f"lp_core.pivots.{cell}"] += a["pivots"]
                m[f"lp_core.tableau_mb.{cell}"] = a["tableau_mb"]
        elif name == "lp_core.certify":
            m["lp_core.certify_s"] += dur
            m["lp_core.certify_failed"] += not a["passed"]
        elif name == "studies.sweep_family":
            m[f"studies.sweep_s.{a['kind']}"] += dur
        elif name == "online_sim.run_ranking":
            m[f"online_sim.run_ranking_s.{step[s.id].rsplit('.', 1)[1]}"] += dur
            m["online_sim.trial_blocks"] += a["blocks"]
        elif name == "online_sim.run_secretary":
            m["online_sim.run_secretary_s"] += dur
            m["online_sim.trial_blocks"] += a["blocks"]
        elif name == "online_sim.offline_optimum":
            m["online_sim.offline_optimum_s"] += dur
        elif name == "online_sim.secretary_policy_from_lp":
            m["online_sim.policy_from_lp_s"] += dur
        elif name == "variational.integrate_tight_ode":
            m[f"variational.ode_s.{a['kind']}"] += dur
            m["variational.ode_steps"] += a["steps"]
        elif name == "variational.multiplier_check":
            m["variational.multiplier_check_s"] += dur
        elif name == "variational.discretize_profile":
            m[f"variational.discretize_s.{a['kind']}"] += dur
        elif name == "interval_opt.search_best":
            m[f"interval_opt.search_s.k{a['K']}"] += dur
            m["interval_opt.grid_points"] += a["grid_points"]
        if name == "online_sim.run_balance" and step[s.id] == f"{BENCH}.balance":
            m["online_sim.run_balance_s"] += dur
        if (s.layer == "online_sim" and step[s.id] == f"{BENCH}.audits"
                and spans[s.parent].layer == BENCH):
            m["online_sim.audit_s"] += dur
    for cell in CELLS:
        piv = m[f"lp_core.pivots.{cell}"]
        m[f"lp_core.ms_per_pivot.{cell}"] = (
            m[f"lp_core.solve_s.{cell}"] * 1e3 / piv if piv else 0.0)
    piv = m["lp_core.pivots"]
    m["lp_core.us_per_pivot"] = m["lp_core.solve_s"] * 1e6 / piv if piv else 0.0
    m["trace.wall_s"] = spans[0].duration
    return m


def check_accounting(m) -> float:
    """|sum of every layer's self time - traced pass time|; ~0 by construction."""
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS + (BENCH,))
    return abs(total - m["trace.wall_s"])


if __name__ == "__main__":
    print(json.dumps({"end_to_end": END_TO_END, "per_layer": PER_LAYER}, indent=1))

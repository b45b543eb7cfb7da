"""Factor- and policy-revealing LP families, their continuum limits, and
simulators for the online algorithms they analyze."""

from .lp_core import (
    CERT_TOL,
    FEAS_TOL,
    CertificateReport,
    DenseLp,
    FeasibilityReport,
    LpInputError,
    LpSolution,
    certify,
    check_feasibility,
    dump_lp,
    load_lp,
    solve,
)
from .families import (
    FamilyLp,
    FamilySpec,
    best_threshold,
    build_balance,
    build_ranking,
    build_secretary,
    build_toy,
    ranking_triangular_closed_form,
    ranking_triangular_value,
    threshold_policy_value,
    tight_solution_balance,
    tight_solution_ranking,
    tight_solution_toy,
    tight_value_balance,
    tight_value_ranking,
    tight_value_toy,
)
from .variational import (
    PROFILES,
    ContinuumProfile,
    MultiplierProfile,
    discretize_profile,
    eval_profile,
    integrate_tight_ode,
    multiplier_check,
)
from .interval_opt import (
    IntervalSequence,
    objective_g,
    reconstruct_u,
    search_best,
)
from .online_sim import (
    PolicyTable,
    SimInstance,
    SimReport,
    SlabStats,
    offline_optimum,
    planted_instance,
    policy_value,
    run_balance,
    run_ranking,
    run_secretary,
    secretary_policy_from_lp,
    slab_audit,
    triangular_instance,
)
from .studies import (
    LimitFit,
    SweepTable,
    limit_estimate,
    sweep_family,
    write_sweep_csv,
)

__version__ = "0.1.0"

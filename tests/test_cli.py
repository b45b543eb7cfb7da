import json
import math

import pytest

from lplimits import certify, interval_opt, lp_core, solve, variational
from lplimits.cli import SEED_ENV_VAR, main
from lplimits.families import FAMILY_KINDS, ORACLE_SIZE_CAP, FamilySpec

INV_E = 1.0 / math.e


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text):
    """json.loads that refuses the NaN, Infinity and -Infinity extensions."""
    return json.loads(text, parse_constant=_reject_constant)


def test_solve_json(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "ranking:8", "--json")
    assert code == 0
    payload = strict_json(out)
    assert payload["status"] == "optimal"
    assert payload["certified"] is True
    assert payload["n"] == 8


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_solve_json_reports_the_certificate(capsys, kind):
    code, out, _ = run_cli(capsys, "solve", "--family", f"{kind}:6", "--json")
    assert code == 0
    payload = strict_json(out)
    lp = FamilySpec(kind, 6).build()
    cert = certify(lp, solve(lp))
    assert payload["duality_gap"] == cert.gap
    assert payload["max_primal_violation"] == cert.primal_feasibility
    assert payload["certified"] is True and cert.passed


def test_solve_json_non_optimal_has_no_certificate(capsys, monkeypatch):
    from lplimits import cli

    monkeypatch.setattr(cli, "solve", lambda lp: lp_core.solve(lp, max_iterations=0))
    code, out, _ = run_cli(capsys, "solve", "--family", "ranking:8", "--json")
    assert code != 0
    payload = strict_json(out)
    assert payload["status"] == "iteration_limit"
    assert not {"duality_gap", "max_primal_violation", "certified"} & set(payload)


def test_solve_dump_roundtrip(capsys, tmp_path):
    path = tmp_path / "lp.txt"
    code, _, _ = run_cli(capsys, "solve", "--family", "toy:3",
                         "--dump-lp", str(path))
    assert code == 0
    header = path.read_text().splitlines()[0].split()
    assert header == ["minimize", "3", "5"]


def test_bad_family_is_json_error(capsys):
    code, _, err = run_cli(capsys, "solve", "--family", "nope:3")
    assert code != 0
    payload = strict_json(err)
    assert "error" in payload and payload["type"] == "LpInputError"


def test_sweep_csv_and_extrapolate(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "sweep", "--family", "toy",
                           "--sizes", "4,8,16,32", "--out", str(path),
                           "--extrapolate", "--json")
    assert code == 0
    payload = strict_json(out)
    assert abs(payload["extrapolated_limit"] - (1 - INV_E)) < 1e-2
    assert path.read_text().startswith("family,n,value,status,ms")


def test_sweep_repeated_sizes_is_json_error(capsys):
    code, out, err = run_cli(capsys, "sweep", "--family", "ranking",
                             "--sizes", "8,8,8", "--extrapolate", "--json")
    assert code != 0 and out == ""
    payload = strict_json(err)
    assert payload["type"] == "LpInputError"
    assert "repeat" in payload["error"]


def test_ode_writes_trajectory(capsys, tmp_path):
    path = tmp_path / "traj.csv"
    code, out, _ = run_cli(capsys, "ode", "--kind", "ranking",
                           "--step", "0.001", "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,value"
    assert len(lines) == 1002
    t, v = lines[-1].split(",")
    assert float(t) == 1.0
    assert abs(float(v) - (1 - INV_E)) < 1e-10


def test_ode_step_below_floor_is_json_error(capsys, monkeypatch):
    # numpy unreachable: the step check must fire before any allocation
    monkeypatch.setattr(variational, "np", None)
    code, out, err = run_cli(capsys, "ode", "--kind", "balance", "--step", "1e-9")
    assert code == 2 and out == ""
    payload = strict_json(err)
    assert payload["type"] == "LpInputError"
    assert "cap" in payload["error"]


@pytest.mark.parametrize("resolution", ["1e-7", "5e-324"])
def test_interval_search_past_grid_cap_is_json_error(capsys, monkeypatch, resolution):
    # numpy unreachable: the grid cap must fire before any allocation
    monkeypatch.setattr(interval_opt, "np", None)
    code, out, err = run_cli(capsys, "interval-search", "--k", "2",
                             "--resolution", resolution)
    assert code == 2 and out == ""
    payload = strict_json(err)
    assert payload["type"] == "LpInputError"
    assert "GRID_CAP" in payload["error"]


@pytest.mark.parametrize("step", ["5e-324", "1e-309"])
def test_ode_subnormal_step_is_json_error(capsys, step):
    # 1 / step overflows to inf; the cap check must refuse it before round()
    code, out, err = run_cli(capsys, "ode", "--kind", "balance", "--step", step)
    assert code == 2 and out == ""
    payload = strict_json(err)
    assert payload["type"] == "LpInputError"
    assert "cap" in payload["error"]


def test_vc_check(capsys):
    code, out, _ = run_cli(capsys, "vc-check", "--family", "ranking:400")
    assert code == 0
    assert "max constraint violation" in out


def test_kkt_check_with_perturbation(capsys):
    code, out, _ = run_cli(capsys, "kkt-check", "--grid", "5000",
                           "--perturb", "0.01")
    assert code == 0
    assert "pass: True" in out
    assert "pass: False" in out


@pytest.mark.parametrize("perturb", ["nan", "inf", "-0.01"])
def test_kkt_check_bad_perturb_is_json_error(capsys, perturb):
    code, out, err = run_cli(capsys, "kkt-check", "--grid", "100",
                             f"--perturb={perturb}")
    assert code == 2 and out == ""
    payload = strict_json(err)
    assert payload["type"] == "LpInputError"
    assert "--perturb" in payload["error"]


def test_kkt_check_past_grid_cap_is_json_error(capsys, monkeypatch):
    # numpy unreachable: the cap must fire before np.arange allocates
    from lplimits import cli
    monkeypatch.setattr(cli, "np", None)
    code, out, err = run_cli(capsys, "kkt-check", "--grid", str(ORACLE_SIZE_CAP + 1))
    assert code == 2 and out == ""
    payload = strict_json(err)
    assert payload["type"] == "LpInputError"
    assert payload["error"] == f"--grid {ORACLE_SIZE_CAP + 1} exceeds cap {ORACLE_SIZE_CAP}"


@pytest.mark.parametrize("grid", ["2", "1", "0", "-5"])
def test_kkt_check_short_grid_is_json_error(capsys, monkeypatch, grid):
    # numpy unreachable: the refusal must come before np.arange
    from lplimits import cli
    monkeypatch.setattr(cli, "np", None)
    code, out, err = run_cli(capsys, "kkt-check", f"--grid={grid}")
    assert code == 2 and out == ""
    payload = strict_json(err)
    assert payload["type"] == "LpInputError"
    assert payload["error"] == f"--grid needs at least 3 points, got {grid}"


def test_kkt_check_zero_perturb_skips_the_perturbed_check(capsys):
    code, out, _ = run_cli(capsys, "kkt-check", "--grid", "5000",
                           "--perturb", "0")
    assert code == 0
    assert "candidate residuals" in out and "perturbed" not in out


def test_interval_search_json_keys(capsys):
    code, out, _ = run_cli(capsys, "interval-search", "--k", "1",
                           "--resolution", "0.01", "--json")
    assert code == 0
    payload = strict_json(out)
    assert set(payload) == {"K", "resolution", "best_s", "best_value",
                            "grid_points_evaluated"}
    assert abs(payload["best_value"] - INV_E) < 1e-6


def test_simulate_ranking_json(capsys):
    code, out, _ = run_cli(capsys, "simulate", "ranking", "--planted", "20,1",
                           "--trials", "2000", "--seed", "3", "--json")
    assert code == 0
    payload = strict_json(out)
    assert set(payload) == {"trials", "estimate", "std_error", "seed"}
    assert payload["seed"] == 3
    assert 0 < payload["estimate"] <= 20


def test_simulate_balance(capsys):
    code, out, _ = run_cli(capsys, "simulate", "balance", "--planted", "20,20",
                           "--slabs", "10")
    assert code == 0
    assert "slab_audit: pass" in out


def test_simulate_secretary_policy(capsys):
    code, out, _ = run_cli(capsys, "simulate", "secretary",
                           "--policy-from-lp", "20", "--trials", "5000",
                           "--seed", "1", "--json")
    assert code == 0
    payload = strict_json(out)
    assert abs(payload["estimate"] - 0.38) < 0.05


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "777")
    code, out, _ = run_cli(capsys, "simulate", "ranking", "--planted", "10,1",
                           "--trials", "500", "--json")
    assert code == 0
    assert strict_json(out)["seed"] == 777


def test_bad_seed_env_is_json_error(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "seven")
    code, _, err = run_cli(capsys, "simulate", "ranking", "--planted", "10,1",
                           "--trials", "500", "--json")
    assert code != 0
    payload = strict_json(err)
    assert payload["type"] == "LpInputError"
    assert SEED_ENV_VAR in payload["error"]


# BALANCE is deterministic, yet its report echoes the seed, so the range is
# checked for every algorithm
SIMULATIONS = [("ranking", "--planted", "5,1", "--trials", "100"),
               ("balance", "--planted", "5,5"),
               ("secretary", "--policy-from-lp", "5", "--trials", "100")]


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_seed_out_of_range_is_json_error(capsys, seed):
    for args in SIMULATIONS:
        code, out, err = run_cli(capsys, "simulate", *args, "--seed", seed,
                                 "--json")
        assert code == 2 and out == ""
        payload = strict_json(err)
        assert payload["type"] == "LpInputError"
        assert "seed" in payload["error"]


def test_seed_env_out_of_range_is_json_error(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "-4")
    for args in SIMULATIONS:
        code, out, err = run_cli(capsys, "simulate", *args, "--json")
        assert code == 2 and out == ""
        payload = strict_json(err)
        assert payload["type"] == "LpInputError"
        assert "seed" in payload["error"]


@pytest.mark.parametrize("tol", ["nan", "-1e-6"])
def test_kkt_check_bad_tol_is_json_error(capsys, tol):
    code, out, err = run_cli(capsys, "kkt-check", "--grid", "100", f"--tol={tol}")
    assert code != 0 and out == ""
    assert strict_json(err)["type"] == "LpInputError"


def test_simulate_secretary_refuses_unsolved_lp(capsys, monkeypatch):
    from lplimits import cli, lp_core

    monkeypatch.setattr(cli, "solve", lambda lp: lp_core.solve(lp, max_iterations=0))
    code, _, err = run_cli(capsys, "simulate", "secretary",
                           "--policy-from-lp", "20", "--trials", "500",
                           "--seed", "1", "--json")
    assert code != 0
    payload = strict_json(err)
    assert payload["type"] == "LpInputError"
    assert "iteration_limit" in payload["error"]


def test_malformed_instance_file_is_json_error(capsys, tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("x 3 1\n")
    code, _, err = run_cli(capsys, "simulate", "ranking", "--instance",
                           str(path), "--trials", "400", "--json")
    assert code != 0
    assert strict_json(err)["type"] == "LpInputError"


@pytest.mark.parametrize("args", [
    pytest.param(("simulate", "balance", "--planted", "x"), id="planted"),
    pytest.param(("sweep", "--family", "toy", "--sizes", "4,a"), id="sizes"),
    pytest.param(("simulate", "secretary", "--policy-from-lp", "abc"),
                 id="policy-from-lp"),
])
def test_malformed_integer_flag_is_json_error(capsys, args):
    code, _, err = run_cli(capsys, *args, "--json")
    assert code != 0
    payload = strict_json(err)
    assert payload["type"] == "LpInputError"
    assert args[-2] in payload["error"]


@pytest.mark.parametrize("algorithm", ["ranking", "balance"])
def test_simulate_planted_extra_field_is_json_error(capsys, algorithm):
    trials = ("--trials", "100") if algorithm == "ranking" else ()
    code, out, err = run_cli(capsys, "simulate", algorithm, "--planted", "5,1,9",
                             *trials, "--json")
    assert code == 2 and out == ""
    payload = strict_json(err)
    assert payload["type"] == "LpInputError"
    assert "--planted" in payload["error"]


def test_simulate_planted_defaults_b_to_one(capsys):
    outs = [run_cli(capsys, "simulate", "ranking", "--planted", planted,
                    "--trials", "300", "--seed", "4", "--json")[1]
            for planted in ("7", "7,1")]
    assert outs[0] == outs[1] and strict_json(outs[0])["trials"] == 300


def test_simulate_instance_file(capsys, tmp_path):
    from lplimits import triangular_instance
    from lplimits.online_sim import write_instance

    path = tmp_path / "inst.txt"
    write_instance(triangular_instance(6, 1), path)
    code, out, _ = run_cli(capsys, "simulate", "ranking", "--instance",
                           str(path), "--trials", "400", "--seed", "2",
                           "--json")
    assert code == 0
    assert strict_json(out)["trials"] == 400


@pytest.mark.parametrize("args", [
    pytest.param(("simulate", "ranking", "--planted", "5", "--trials", "abc"),
                 id="trials-abc"),
    pytest.param(("simulate", "ranking", "--planted", "5", "--seed", "1.5"),
                 id="seed-1.5"),
    pytest.param(("ode", "--kind", "balance", "--step", "x"), id="step-x"),
    pytest.param(("sweep", "--family", "nope", "--sizes", "4"), id="bad-choice"),
    pytest.param(("interval-search", "--k", "9", "--resolution", "0.01"), id="k-9"),
    pytest.param(("sweep", "--sizes", "4"), id="missing-family"),
    pytest.param(("vc-check", "--profile", "Nope", "--family", "toy:4"),
                 id="bad-profile"),
    pytest.param(("solve", "--family", "toy:4", "--bogus"), id="unknown-flag"),
    pytest.param((), id="no-subcommand"),
])
def test_argparse_failure_is_json_error(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    payload = strict_json(err)
    assert set(payload) == {"error", "type"}
    assert payload["type"] == "LpInputError"


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.out.startswith("usage: lplimits sweep") and captured.err == ""


def test_sweep_certifies_every_simplex_optimum(capsys, monkeypatch):
    from lplimits import studies

    calls = []

    def spy(lp, sol, tol):
        calls.append(lp.n_vars)
        return certify(lp, sol, tol)

    monkeypatch.setattr(studies, "certify", spy)
    code, _, _ = run_cli(capsys, "sweep", "--family", "ranking", "--sizes", "4,8,4096")
    assert code == 0
    assert calls == [4, 8]      # 4096 is past the simplex cap: oracle only


def test_sweep_failed_certificate_is_json_error(capsys, monkeypatch):
    from dataclasses import replace

    from lplimits import studies

    monkeypatch.setattr(studies, "certify",
                        lambda lp, sol, tol: replace(certify(lp, sol, tol), passed=False))
    code, out, err = run_cli(capsys, "sweep", "--family", "toy", "--sizes", "4,8",
                             "--json")
    assert code == 2 and out == ""
    payload = strict_json(err)
    assert payload["type"] == "SweepError"
    assert "n=4" in payload["error"] and "certificate_failed" in payload["error"]


def test_readme_command_lines_parse():
    import re
    import shlex
    from pathlib import Path

    from lplimits.cli import build_parser

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("lplimits ")]
    assert len(lines) >= 9
    parser = build_parser()
    for line in lines:
        argv = shlex.split(re.sub(r"\[[^\]]*\]", "", line))[1:]
        args = parser.parse_args(argv)
        assert args.command == argv[0]


@pytest.mark.parametrize("kind, tag", [("toy", "ToyG"), ("balance", "BalanceG"),
                                       ("ranking", "RankingG"),
                                       ("secretary", "SecretaryG")])
def test_vc_check_takes_the_g_profile_of_the_family(capsys, kind, tag):
    code, out, _ = run_cli(capsys, "vc-check", "--family", f"{kind}:8")
    assert code == 0
    assert out.splitlines()[0] == f"{tag} -> {kind}:8"


# the flags of each simulate algorithm besides the shared --seed and --json,
# a value for each, and one valid invocation of each algorithm
SIM_FLAGS = {"balance": {"--instance", "--planted", "--slabs"},
             "ranking": {"--instance", "--planted", "--trials"},
             "secretary": {"--policy-from-lp", "--trials"}}
FLAG_VALUES = {"--instance": "INSTANCE", "--planted": "5,1", "--slabs": "2",
               "--trials": "100", "--policy-from-lp": "5"}
SIM_VALID = {"balance": ("--planted", "5,5"),
             "ranking": ("--planted", "5,1", "--trials", "100"),
             "secretary": ("--policy-from-lp", "5", "--trials", "100")}
# (argv after "simulate", a phrase the error names)
SIM_REFUSED = [
    *[pytest.param((algorithm, *SIM_VALID[algorithm], flag, FLAG_VALUES[flag]),
                   f"unrecognized arguments: {flag}", id=f"{algorithm}-foreign{flag}")
      for algorithm, own in SIM_FLAGS.items()
      for flag in sorted(FLAG_VALUES.keys() - own)],
    *[pytest.param((algorithm, "--instance", "INSTANCE", *SIM_VALID[algorithm]),
                   "--planted: not allowed with argument --instance",
                   id=f"{algorithm}-both-sources")
      for algorithm in ("balance", "ranking")],
    pytest.param(("balance",), "--instance --planted is required",
                 id="balance-no-source"),
    pytest.param(("ranking", "--trials", "100"), "--instance --planted is required",
                 id="ranking-no-source"),
    pytest.param(("secretary", "--trials", "100"),
                 "arguments are required: --policy-from-lp", id="secretary-no-policy"),
]


@pytest.mark.parametrize("args, phrase", SIM_REFUSED)
def test_simulate_flag_refused_is_json_error(capsys, tmp_path, args, phrase):
    from lplimits import triangular_instance
    from lplimits.online_sim import write_instance

    path = tmp_path / "inst.txt"
    write_instance(triangular_instance(5, 1), path)
    argv = [str(path) if a == "INSTANCE" else a for a in args]
    code, out, err = run_cli(capsys, "simulate", *argv, "--json")
    assert code == 2 and out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    payload = strict_json(err)
    assert set(payload) == {"error", "type"}
    assert payload["type"] == "LpInputError"
    assert phrase in payload["error"]


@pytest.mark.parametrize("algorithm", SIM_FLAGS)
def test_simulate_help_lists_only_its_flags(capsys, algorithm):
    import re

    with pytest.raises(SystemExit) as exc:
        main(["simulate", algorithm, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", out))
    assert flags == SIM_FLAGS[algorithm] | {"--help", "--seed", "--json"}


def _advertised_choices():
    """Every choices value that build_parser() offers below a command,
    each simulate algorithm included, with one tiny invocation of it."""
    import argparse

    from lplimits.cli import build_parser

    rest = {"sweep": ("--sizes", "4,8,16", "--extrapolate"),
            "ode": ("--step", "0.01"),
            "interval-search": ("--resolution", "0.01"),
            **{f"simulate {a}": (*SIM_VALID[a], "--seed", "1") for a in SIM_VALID}}
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command, parser in commands.items():
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name in action.choices:
                    yield (command, name, *rest[f"{command} {name}"])
            elif action.choices is not None:
                for value in action.choices:
                    yield (command, *action.option_strings[:1], str(value),
                           *rest[command])


ADVERTISED = list(_advertised_choices())


@pytest.mark.parametrize("args", ADVERTISED, ids=[" ".join(a) for a in ADVERTISED])
def test_every_advertised_choice_runs(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    assert out and err == ""


def test_module_help_runs_as_a_script():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import lplimits

    env = {**os.environ, "PYTHONPATH": str(Path(lplimits.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "lplimits.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: lplimits") and proc.stderr == ""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import pytest

from conftest import run_cli
from stopgrad import ReplicationStreams, sample_paths
from stopgrad.cli import optimize_theta
from stopgrad.config import (
    ConfigError,
    ExperimentConfig,
    build_model,
    load_config,
    parse_config,
    parse_method,
    reward_from_spec,
    to_ini,
    validate_config,
)
from stopgrad.model import TabulatedReward

SMALL_INI = """\
[model]
H = 1.0
H_D = 1.0
discount = 0.97
reward_wait = constant 0.5
reward_transplant = linear-decreasing 8.0 0.0

[kernel]
name = uniform-deterioration

[run]
h0 = 0.0
horizon = 120
reps = 400
seed = 4242
workers = 1

[sweep]
thetas = 0.2, 0.5, 0.8
reps = 10, 20, 30
methods = spa, fd:0.01, fd:0.1, ipa

[optimize]
theta0 = 0.9
iterations = 3
reps_per_step = 200
step_size = 0.05
clip_margin = 0.02
"""


def read_csv(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestConfigRoundTrip:
    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        assert parse_config(to_ini(cfg)) == cfg

    def test_serialization_idempotent(self):
        cfg = load_config("wsc-example")
        once = to_ini(cfg)
        assert to_ini(parse_config(once)) == once

    def test_wsc_scenario_contents(self):
        cfg = load_config("wsc-example")
        assert cfg.model.discount == 0.97
        assert cfg.policy.theta == 0.5
        assert cfg.run.h0 == 0.0
        assert cfg.sweep.methods == ("spa", "fd:0.01", "fd:0.05", "fd:0.1")

    def test_solve_policy_parses(self):
        cfg = parse_config("[policy]\ntheta = solve\n")
        assert cfg.policy.theta == "solve"
        assert parse_config(to_ini(cfg)).policy.theta == "solve"

    def test_unknown_section_and_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError):
            parse_config("[model]\nbogus = 1\n")

    def test_missing_config_name(self):
        with pytest.raises(ConfigError):
            load_config("no-such-scenario")


class TestValidation:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: setattr(c.model, "discount", 1.0),
            lambda c: setattr(c.model, "discount", 1.2),
            lambda c: setattr(c.model, "discount", 0.0),
            lambda c: setattr(c.model, "H_D", 0.0),
            lambda c: setattr(c.model, "H_D", 1.5),
            lambda c: setattr(c.policy, "theta", -0.1),
            lambda c: setattr(c.policy, "theta", 1.2),
            lambda c: setattr(c.estimator, "delta", 0.0),
            lambda c: setattr(c.estimator, "delta", -0.5),
            lambda c: setattr(c.run, "h0", 1.0),
            lambda c: setattr(c.run, "reps", 1),
            lambda c: setattr(c.run, "seed", -4),
            lambda c: setattr(c.estimator, "aux_reps", 0),
            lambda c: setattr(c.kernel, "name", "mystery"),
            lambda c: setattr(c.optimize, "theta0", 0.0),
            lambda c: setattr(c.optimize, "step_size", -0.01),
            lambda c: setattr(c.optimize, "step_size", float("nan")),
            lambda c: setattr(c.sweep, "methods", ("fd:-1",)),
            lambda c: setattr(c.sweep, "methods", ("fd:nan",)),
            lambda c: setattr(c.model, "reward_wait", "constant -1"),
            # The dip falls between the points build_model samples, so only the spec check catches it.
            lambda c: setattr(c.model, "reward_wait", "table 0:1 0.0001:-1 0.0002:1"),
            lambda c: setattr(c.model, "reward_wait", "constant inf"),
            lambda c: setattr(c.model, "reward_transplant", "table 0:8 nan:4 1:0"),
            # Inside (0, H/2) but not inside the living region's (0, H_D/2).
            lambda c: (setattr(c.model, "H_D", 0.5), setattr(c.optimize, "clip_margin", 0.25)),
        ],
    )
    def test_rejections(self, mutate):
        cfg = ExperimentConfig()
        mutate(cfg)
        assert validate_config(cfg)

    def test_valid_default_config(self):
        assert validate_config(ExperimentConfig()) == []

    def test_build_model_matches_scenario(self, wsc_model):
        m = build_model(load_config("wsc-example"))
        assert m.discount == wsc_model.discount
        assert m.transplant_reward(0.5) == pytest.approx(4.0)


class TestRewardSpecs:
    def test_constant(self):
        assert reward_from_spec("constant 0.5", 1.0)(0.7) == pytest.approx(0.5)

    def test_linear_decreasing(self):
        r = reward_from_spec("linear-decreasing 8.0 0.0", 1.0)
        assert r(0.25) == pytest.approx(6.0)

    def test_table(self):
        r = reward_from_spec("table 0:8 0.5:4 1:0", 1.0)
        assert r(0.25) == pytest.approx(6.0)

    @pytest.mark.parametrize("spec, xs, ys", [
        ("constant 0.5", (0.0, 1.0), (0.5, 0.5)),
        ("linear-decreasing 8.0 0.0", (0.0, 1.0), (8.0, 0.0)),
        ("table 0:8 0.5:4 1:0", (0.0, 0.5, 1.0), (8.0, 4.0, 0.0)),
    ], ids=["constant", "linear-decreasing", "table"])
    def test_every_form_is_a_table(self, spec, xs, ys):
        assert reward_from_spec(spec, 1.0) == TabulatedReward(xs, ys)

    @pytest.mark.parametrize("bad", ["", "constant", "linear-decreasing 1", "exotic 1 2", "table 0:1"])
    def test_malformed(self, bad):
        with pytest.raises((ConfigError, ValueError)):
            reward_from_spec(bad, 1.0)


class TestParseMethod:
    def test_forms(self):
        assert parse_method("spa", 0.01) == ("spa", None)
        assert parse_method("ipa", 0.01) == ("ipa", None)
        assert parse_method("fd", 0.02) == ("fd", 0.02)
        assert parse_method("fd:0.1", 0.02) == ("fd", 0.1)

    def test_rejects(self):
        with pytest.raises(ConfigError):
            parse_method("newton", 0.01)
        with pytest.raises(ConfigError):
            parse_method("spa:0.1", 0.01)


class TestCliSubcommands:
    def test_check(self, tmp_path):
        res = run_cli(["--out", ".", "check"], tmp_path)
        assert res.returncode == 0, res.stderr
        rows = read_csv(tmp_path / "check.csv")
        assert [r["assumption"] for r in rows] == ["A1", "A2", "A3", "A4", "A5"]
        assert all(r["passed"] == "true" for r in rows)

    def test_check_one_point_grid_with_interior_death(self, tmp_path):
        (tmp_path / "death.ini").write_text(SMALL_INI.replace("H_D = 1.0", "H_D = 0.6"))
        res = run_cli(["--config", "death.ini", "--out", ".", "check", "--grid-points", "1"], tmp_path)
        assert res.returncode == 0, res.stderr
        rows = read_csv(tmp_path / "check.csv")
        assert [(r["assumption"], r["passed"], r["vacuous"]) for r in rows][2:4] == [
            ("A3", "true", "false"), ("A4", "true", "false")]

    def test_solve_outputs_nonincreasing_value(self, tmp_path):
        res = run_cli(["--out", ".", "solve", "--nodes", "257"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "theta* = 1" in res.stdout
        rows = read_csv(tmp_path / "value_function.csv")
        values = np.array([float(r["value"]) for r in rows])
        assert float(np.diff(values).max()) <= 1e-6

    def test_simulate(self, tmp_path):
        (tmp_path / "small.ini").write_text(SMALL_INI)
        res = run_cli(["--config", "small.ini", "--out", ".", "simulate"], tmp_path)
        assert res.returncode == 0, res.stderr
        rows = read_csv(tmp_path / "simulate.csv")
        assert len(rows) == 400
        assert set(rows[0]) == {"rep", "v_n", "stop_index", "died"}

    def test_gradient_fd(self, tmp_path):
        (tmp_path / "small.ini").write_text(SMALL_INI)
        res = run_cli(["--config", "small.ini", "--out", ".", "gradient",
                       "--method", "fd", "--theta", "0.5", "--delta", "0.02", "--reps", "500"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "fd,0.5,500," in res.stdout
        assert len(read_csv(tmp_path / "gradient.csv")) == 500

    def test_gradient_ipa_prints_note(self, tmp_path):
        res = run_cli(["--out", ".", "gradient", "--method", "ipa", "--theta", "0.5", "--reps", "10"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "ipa,0.5,10,0,0" in res.stdout
        assert "identically zero" in res.stdout

    def test_sweep_cross_product_shape(self, tmp_path):
        (tmp_path / "small.ini").write_text(SMALL_INI)
        res = run_cli(["--config", "small.ini", "--out", ".", "sweep"], tmp_path)
        assert res.returncode == 0, res.stderr
        rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 36  # 3 thetas x 3 rep counts x 4 methods
        assert set(rows[0]) == {"method", "theta", "N", "delta", "mean", "se"}
        spa_cells = [r for r in rows if r["method"] == "spa"]
        assert len(spa_cells) == 9 and all(r["delta"] == "" for r in spa_cells)

    def test_sweep_empty_methods_is_validation_error(self, tmp_path):
        (tmp_path / "bad.ini").write_text(SMALL_INI + "\n")
        text = (tmp_path / "bad.ini").read_text().replace("methods = spa, fd:0.01, fd:0.1, ipa", "methods =")
        (tmp_path / "bad.ini").write_text(text)
        res = run_cli(["--config", "bad.ini", "--out", ".", "sweep"], tmp_path)
        assert res.returncode == 2
        assert not (tmp_path / "sweep.csv").exists()

    def test_invalid_discount_rejected(self, tmp_path):
        (tmp_path / "bad.ini").write_text(SMALL_INI.replace("discount = 0.97", "discount = 1.2"))
        res = run_cli(["--config", "bad.ini", "--out", ".", "simulate"], tmp_path)
        assert res.returncode == 2
        assert "discount" in res.stderr

    def test_optimize_trace(self, tmp_path):
        (tmp_path / "small.ini").write_text(SMALL_INI)
        res = run_cli(["--config", "small.ini", "--out", ".", "optimize"], tmp_path)
        assert res.returncode == 0, res.stderr
        rows = read_csv(tmp_path / "optimize_trace.csv")
        assert len(rows) == 4  # 3 iterations plus the terminal row
        assert rows[0]["theta"] == "0.9"
        assert rows[-1]["estimate"] == ""

    def test_optimize_zero_iterations(self, tmp_path):
        text = SMALL_INI.replace("iterations = 3", "iterations = 0")
        (tmp_path / "zero.ini").write_text(text)
        res = run_cli(["--config", "zero.ini", "--out", ".", "optimize"], tmp_path)
        assert res.returncode == 0, res.stderr
        rows = read_csv(tmp_path / "optimize_trace.csv")
        assert len(rows) == 1 and rows[0]["theta"] == "0.9"

    def test_optimize_zero_step_size_keeps_theta_constant(self, tmp_path):
        text = SMALL_INI.replace("step_size = 0.05", "step_size = 0.0")
        (tmp_path / "still.ini").write_text(text)
        res = run_cli(["--config", "still.ini", "--out", ".", "optimize"], tmp_path)
        assert res.returncode == 0, res.stderr
        rows = read_csv(tmp_path / "optimize_trace.csv")
        assert all(r["theta"] == "0.9" for r in rows)

    @pytest.mark.parametrize("ini_edit,args", [
        (("reward_wait = constant 0.5", "reward_wait = constant -1"), ["simulate"]),
        (None, ["simulate", "--theta", "5"]),
        (None, ["gradient", "--method", "spa", "--theta", "0"]),
        (None, ["gradient", "--method", "fd", "--theta", "0.001"]),
        (None, ["solve", "--tol", "nan", "--max-iter", "5"]),
        (None, ["solve", "--max-iter", "-1"]),
        (None, ["solve", "--nodes", "1"]),
        (None, ["check", "--grid-points", "0"]),
        (None, ["check", "--grid-points", "-3"]),
        (("reward_wait = constant 0.5", "reward_wait = table 0:1 0.0001:-1 0.0002:1"), ["check"]),
        (("reward_wait = constant 0.5", "reward_wait = constant inf"), ["gradient", "--theta", "0.5", "--reps", "1000"]),
        (("reward_transplant = linear-decreasing 8.0 0.0", "reward_transplant = table 0:8 nan:4 1:0"), ["check"]),
        (None, ["check", "--out", "small.ini"]),
        (None, ["check", "--out", "small.ini/sub"]),
    ], ids=["negative-wait-reward", "simulate-theta-5", "spa-theta-0", "fd-theta-0.001", "solve-tol-nan",
            "solve-max-iter-negative", "solve-nodes-1", "check-grid-points-0", "check-grid-points-negative",
            "negative-table-dip",
            "infinite-wait-reward", "nan-table-abscissa", "out-is-a-file",
            "out-parent-is-a-file"])
    def test_invalid_input_exit_code(self, tmp_path, ini_edit, args):
        (tmp_path / "small.ini").write_text(SMALL_INI.replace(*ini_edit) if ini_edit else SMALL_INI)
        res = run_cli(["--config", "small.ini", "--out", ".", *args], tmp_path)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        for flag in ("--grid-points", "--out"):
            if flag in args:
                assert flag in res.stderr

    @pytest.mark.parametrize("make", [lambda p: p.mkdir(), lambda p: p.write_bytes(b"\xff\xfe[model]\n")],
                             ids=["directory", "not-utf8"])
    def test_unreadable_config_exit_code(self, tmp_path, make):
        make(tmp_path / "bad.ini")
        res = run_cli(["--config", "bad.ini", "--out", ".", "check"], tmp_path)
        assert res.returncode == 2, res.stderr
        assert "config error:" in res.stderr and "bad.ini" in res.stderr
        assert "Traceback" not in res.stderr

    def test_solve_nonconvergence_exit_code(self, tmp_path):
        res = run_cli(["--out", ".", "solve", "--nodes", "129", "--max-iter", "5"], tmp_path)
        assert res.returncode == 3
        assert "converged=False" in res.stdout

    def test_sweep_aggregates_cell_failures(self, tmp_path):
        # fd with delta 0.9 at theta 0.05 leaves [0, H]: that cell fails at run
        # time, the rest of the sweep completes, exit code flags the partial run.
        text = SMALL_INI.replace("thetas = 0.2, 0.5, 0.8", "thetas = 0.05").replace(
            "reps = 10, 20, 30", "reps = 10"
        ).replace("methods = spa, fd:0.01, fd:0.1, ipa", "methods = spa, fd:0.9")
        (tmp_path / "partial.ini").write_text(text)
        res = run_cli(["--config", "partial.ini", "--out", ".", "sweep"], tmp_path)
        assert res.returncode == 4
        rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 2
        by_method = {r["method"]: r for r in rows}
        assert by_method["spa"]["mean"] != ""
        assert by_method["fd"]["mean"] == ""

    # Rewards near the float limit pass validation, but the squares of the estimates overflow.
    _HUGE_INI = SMALL_INI.replace("reward_transplant = linear-decreasing 8.0 0.0",
                                  "reward_transplant = linear-decreasing 1e300 0.5").replace(
        "discount = 0.97", "discount = 1e-12")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("args, artifact", [
        (["gradient", "--method", "spa"], "gradient.csv"),
        (["gradient", "--method", "fd"], "gradient.csv"),
        (["simulate"], "simulate.csv"),
    ], ids=["spa", "fd", "simulate"])
    def test_overflowing_estimate_exit_code(self, tmp_path, capsys, args, artifact):
        from stopgrad import cli

        (tmp_path / "huge.ini").write_text(self._HUGE_INI)
        # At 400 replications some CRN FD rows differ between the two legs, by about 1e302.
        assert cli.main(["--config", str(tmp_path / "huge.ini"), "--out", str(tmp_path), *args]) == 2
        assert not (tmp_path / artifact).exists()
        err = capsys.readouterr().err
        assert err.startswith("invalid input:") and "not finite" in err and err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_sweep_cells_fail(self, tmp_path):
        from stopgrad import cli

        text = self._HUGE_INI.replace("thetas = 0.2, 0.5, 0.8", "thetas = 0.5").replace(
            "reps = 10, 20, 30", "reps = 400")
        (tmp_path / "huge.ini").write_text(text)
        assert cli.main(["--config", str(tmp_path / "huge.ini"), "--out", str(tmp_path), "sweep"]) == 4
        rows = read_csv(tmp_path / "sweep.csv")
        assert [(r["method"], r["mean"] == "") for r in rows] == [("spa", True), ("fd", True), ("fd", True),
                                                                  ("ipa", False)]

    def test_seed_changes_results_and_reruns_are_identical(self, tmp_path):
        (tmp_path / "small.ini").write_text(SMALL_INI)
        args = ["--config", "small.ini", "--out", ".", "gradient", "--method", "spa", "--theta", "0.5", "--reps", "300"]
        run_cli([*args, "--seed", "1"], tmp_path)
        first = (tmp_path / "gradient.csv").read_bytes()
        run_cli([*args, "--seed", "1"], tmp_path)
        assert (tmp_path / "gradient.csv").read_bytes() == first
        run_cli([*args, "--seed", "2"], tmp_path)
        assert (tmp_path / "gradient.csv").read_bytes() != first

    def test_policy_solve_resolution(self, tmp_path):
        text = SMALL_INI + "\n[policy]\ntheta = solve\n"
        (tmp_path / "solve.ini").write_text(text)
        res = run_cli(["--config", "solve.ini", "--out", ".", "simulate"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "using control limit 1" in res.stdout

    def test_unconverged_solve_policy_exit_code(self, tmp_path, monkeypatch, capsys):
        # A control limit that value iteration did not reach is not used: the run
        # exits 3 like `solve` on the same model, before writing any artifact.
        import functools

        from stopgrad import cli, dp

        monkeypatch.setattr(dp, "value_iterate", functools.partial(dp.value_iterate, max_iter=5))
        ini = tmp_path / "slow.ini"
        ini.write_text(SMALL_INI.replace("discount = 0.97", "discount = 0.9999") + "\n[policy]\ntheta = solve\n")
        assert cli.main(["--config", str(ini), "--out", str(tmp_path), "simulate"]) == 3
        assert not (tmp_path / "simulate.csv").exists()
        assert "did not converge in 5 iterations" in capsys.readouterr().err

    def test_theta_flag_overrides_solve_policy(self, tmp_path):
        (tmp_path / "solve.ini").write_text(SMALL_INI + "\n[policy]\ntheta = solve\n")
        res = run_cli(["--config", "solve.ini", "--out", ".", "simulate", "--theta", "0.4"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "using control limit" not in res.stdout
        assert res.stdout.splitlines()[1].startswith("0.4,")

    def test_simulate_csv_cell_formats(self, tmp_path):
        # An interior death region and a short horizon give rows that transplant, die and are truncated.
        text = SMALL_INI.replace("H_D = 1.0", "H_D = 0.7")
        (tmp_path / "death.ini").write_text(text)
        args = ["simulate", "--theta", "0.6", "--reps", "200", "--horizon", "3"]
        res = run_cli(["--config", "death.ini", "--out", ".", *args], tmp_path)
        assert res.returncode == 0, res.stderr
        rows = read_csv(tmp_path / "simulate.csv")
        assert {r["died"] for r in rows} == {"true", "false"}
        assert all(r["v_n"] == repr(float(r["v_n"])) for r in rows)
        blank = np.array([r["stop_index"] == "" for r in rows])
        cfg = parse_config(text)
        batch = sample_paths(build_model(cfg), 0.6, 0.0, 3, 200, ReplicationStreams(cfg.run.seed))
        assert 0 < blank.sum() < len(rows)
        np.testing.assert_array_equal(blank, batch.stop_index < 0)


def test_optimizer_clips_to_the_living_region():
    # V' is exactly 0 at and above H_D, so a start at theta0 = H_D would never
    # move; the iterate starts at H_D - clip_margin instead, and moves from there.
    cfg = parse_config(SMALL_INI.replace("H_D = 1.0", "H_D = 0.9"))
    assert cfg.optimize.theta0 == cfg.model.H_D
    trace = optimize_theta(cfg, build_model(cfg), ReplicationStreams(cfg.run.seed))
    thetas = [row[1] for row in trace]
    assert thetas[0] == cfg.model.H_D - cfg.optimize.clip_margin
    assert len(set(thetas)) > 1
    assert all(cfg.optimize.clip_margin <= t <= thetas[0] for t in thetas)

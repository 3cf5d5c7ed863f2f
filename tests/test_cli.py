import json
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import glassotune as gt
import glassotune.bilevel
import glassotune.cli
import glassotune.datagen
import glassotune.glasso
import glassotune.implicit
import glassotune.linalg
from glassotune.cli import (
    ExperimentConfig,
    _build_parser,
    _converter,
    boolean,
    main,
    parse_config,
    run,
    write_trajectory,
)
from glassotune.datagen import load_matrix_csv

from conftest import cli_env, fail_support_check, make_instance


def small_config(tmp_path, **overrides):
    base = dict(p=6, n=200, density=0.3, seed=1, grid_points=25,
                max_outer_iter=50, output_dir=str(tmp_path))
    base.update(overrides)
    return ExperimentConfig(**base)


def _reject_constant(name):
    raise ValueError(f"summary.json holds {name}, which is not JSON")


def read_summary(tmp_path):
    with open(tmp_path / "summary.json") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def without_timings(obj):
    if isinstance(obj, dict):
        return {
            k: without_timings(v)
            for k, v in obj.items()
            if not k.startswith("seconds")
        }
    return obj


def config_file(tmp_path, text: str) -> str:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def usage_error(argv, capsys) -> str:
    """The last stderr line of parse_config(argv), which must exit 2."""
    with pytest.raises(SystemExit) as info:
        parse_config(argv)
    assert info.value.code == 2
    return capsys.readouterr().err.splitlines()[-1]


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config([])
        assert cfg.mode == "compare"
        assert (cfg.p, cfg.n) == (100, 2000)
        assert cfg.density == 0.05
        assert cfg.lambda_init_policy == "offdiag-max"
        assert not cfg.emit_matrices

    def test_flags(self):
        cfg = parse_config(
            ["--mode", "grid", "--p", "10", "--n", "50", "--rho", "0.2",
             "--emit-matrices", "--lambda-init-policy", "max-entry"]
        )
        assert cfg.mode == "grid"
        assert (cfg.p, cfg.n) == (10, 50)
        assert cfg.rho == 0.2
        assert cfg.emit_matrices
        assert cfg.lambda_init_policy == "max-entry"

    def test_config_file(self, tmp_path):
        # A config file holds flags: comment lines go, the rest split as a
        # shell splits them, and a # inside a word is part of the value.
        path = config_file(tmp_path, "# comment\n"
                                     "\n"
                                     "--mode scalar\n"
                                     "  --max-outer-iter 17 --split-ratio=0.6\n"
                                     "--emit-matrices yes\n"
                                     "--output-dir out#1\n")
        flags = ["--mode", "scalar", "--max-outer-iter", "17", "--split-ratio=0.6",
                 "--emit-matrices", "yes", "--output-dir", "out#1"]
        cfg = parse_config(["--config", path])
        assert cfg == parse_config(flags)
        assert (cfg.mode, cfg.max_outer_iter, cfg.split_ratio) == ("scalar", 17, 0.6)
        assert cfg.emit_matrices and cfg.output_dir == "out#1"
        assert not parse_config(["--config", path, "--emit-matrices", "no"]).emit_matrices

    def test_quoted_value_keeps_its_spaces_and_backslashes(self, tmp_path):
        path = config_file(tmp_path, "--output-dir 'my runs\\p 20'\n")
        assert parse_config(["--config", path]).output_dir == "my runs\\p 20"

    def test_flags_override_file(self, tmp_path):
        path = config_file(tmp_path, "--p 7\n--mode grid\n")
        cfg = parse_config(["--config", path, "--p", "9"])
        assert cfg.p == 9
        assert cfg.mode == "grid"

    def test_flag_turns_off_file_emit_matrices(self, tmp_path, capsys):
        path = config_file(tmp_path, "--emit-matrices yes\n")
        for flag in (["--emit-matrices", "no"], ["--emit-matrices=off"]):
            assert not parse_config(["--config", path, *flag]).emit_matrices
        # bare, it means yes and leaves the next option alone
        cfg = parse_config(["--emit-matrices", "--seed", "4"])
        assert cfg.emit_matrices and cfg.seed == 4
        assert usage_error(["--emit-matrices", "maybe"], capsys).endswith(
            "argument --emit-matrices: invalid boolean value: 'maybe'")

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        path = config_file(tmp_path, "--pp 7\n")
        assert usage_error(["--config", path], capsys) == (
            "glassotune: error: unrecognized arguments: --pp 7")

    def test_bad_value_is_usage_error(self, tmp_path, capsys):
        path = config_file(tmp_path, "--p seven\n")
        assert usage_error(["--config", path], capsys) == (
            "glassotune: error: argument --p: invalid int value: 'seven'")

    def test_bad_bool_is_usage_error(self, tmp_path, capsys):
        path = config_file(tmp_path, "--emit-matrices maybe\n")
        assert usage_error(["--config", path], capsys) == (
            "glassotune: error: argument --emit-matrices: invalid boolean value: 'maybe'")

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_bad_bool_names_the_setting_and_the_value(self, tmp_path, capsys, source):
        argv = ["--emit-matrices", "maybe"]
        if source == "file":
            argv = ["--config", config_file(tmp_path, " ".join(argv))]
        message = usage_error(argv, capsys)
        assert "emit-matrices" in message and "'maybe'" in message
        assert not re.search(r"\b_[a-z]", message)  # names no private function

    def test_hash_inside_a_line_is_part_of_the_value(self, tmp_path, capsys):
        # Only a line starting with # is a comment: an output path may hold one.
        path = config_file(tmp_path, "# comment\n--output-dir out#1\n")
        assert parse_config(["--config", path]).output_dir == "out#1"
        path = config_file(tmp_path, "--output-dir out#1\n--p 5 # five\n")
        assert usage_error(["--config", path], capsys) == (
            "glassotune: error: unrecognized arguments: # five")

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        path = str(tmp_path / "absent.cfg")
        message = usage_error(["--config", path], capsys)
        assert message.startswith(f"glassotune: error: cannot read config file {path}: ")
        assert "No such file" in message

    def test_unbalanced_quotes_are_usage_error(self, tmp_path, capsys):
        path = config_file(tmp_path, "--p 5\n--output-dir 'out\n")
        assert usage_error(["--config", path], capsys) == (
            f"glassotune: error: cannot read config file {path}: No closing quotation")

    def test_config_file_naming_another_is_usage_error(self, tmp_path, capsys):
        path = config_file(tmp_path, "--p 5 --config other.cfg\n")
        assert usage_error(["--config", path], capsys) == (
            f"glassotune: error: config file {path} may not hold --config")

    def test_domain_error_is_usage_error(self, capsys):
        assert usage_error(["--p", "1"], capsys) == (
            "glassotune: error: p must be an integer >= 2, got 1")

    @pytest.mark.parametrize(
        "flag, value",
        [("--rho", "inf"), ("--inner-tol", "inf"), ("--seed", "-1")],
    )
    def test_non_finite_or_negative_setting_is_usage_error(self, flag, value, capsys):
        message = usage_error([flag, value], capsys)
        assert message.startswith(f"glassotune: error: {flag[2:]} must be ")
        assert message.endswith(f", got {value}")

    def test_unknown_mode_is_usage_error(self, capsys):
        assert usage_error(["--mode", "bogus"], capsys) == (
            "glassotune: error: mode must be one of grid | scalar | matrix | compare, "
            "got 'bogus'")

    def test_config_validation_direct(self):
        with pytest.raises(ValueError):
            ExperimentConfig(split_ratio=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(inner_tol=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(lambda_init_policy="median")

    @pytest.mark.parametrize("value", [2.0, 6.5])
    @pytest.mark.parametrize("name", ["p", "n", "seed", "max_outer_iter", "grid_points"])
    def test_int_setting_rejects_a_float(self, name, value):
        # the flag's int() never yields a float; a direct build can
        with pytest.raises(ValueError, match=f"{name.replace('_', '-')} must be an integer"):
            ExperimentConfig(**{name: value})


def test_readme_flag_list_matches_parser():
    # README's "Flags" paragraph lists every flag of the parser and no
    # other, each config field's flag with its default in parentheses.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"^Flags \(.*?\n\n", readme, re.S | re.M).group(0)
    listed = dict(re.findall(r"`(--[a-z-]+)[^`]*`(?:\s*\(([^)]*)\))?", paragraph))
    flags = {opt for action in _build_parser()._actions for opt in action.option_strings
             if opt.startswith("--") and opt != "--help"}
    assert set(listed) == flags
    for f in fields(ExperimentConfig):
        shown = re.split(r"[\s,;|]+", listed["--" + f.name.replace("_", "-")])[0]
        convert = boolean if type(f.default) is bool else type(f.default)
        assert convert(shown) == f.default, f.name


def test_help_shows_every_flag_with_its_default(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # no wrapping inside a default
    with pytest.raises(SystemExit) as info:
        parse_config(["--help"])
    assert info.value.code == 0
    options = capsys.readouterr().out.split("options:", 1)[1]
    shown = {}
    for entry in re.split(r"\n  (?=-)", options):
        match = re.match(r"(--[a-z-]+).*\(default: (\S+)\)$", " ".join(entry.split()))
        if match:
            shown[match.group(1)] = match.group(2)
    assert set(shown) == {"--" + f.name.replace("_", "-") for f in fields(ExperimentConfig)}
    for f in fields(ExperimentConfig):
        assert _converter(f)(shown["--" + f.name.replace("_", "-")]) == f.default, f.name


def test_help_shows_a_bool_default_as_the_flag_reads_it(capsys, monkeypatch):
    # --emit-matrices reads yes/no, so its default shows as no, not False.
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        parse_config(["--help"])
    options = " ".join(capsys.readouterr().out.split("options:", 1)[1].split())
    assert re.search(r"--emit-matrices \[yes\|no\] .*?\(default: no\)", options)
    assert "False" not in options and "True" not in options


# Every setting that has a rule: the rule's words, values at its edge that
# it allows, and values just outside it.  A float setting is also checked
# against nan and inf.
TINY, HUGE = 5e-324, 1.7976931348623157e308
ONE_UP, ONE_DOWN = float(np.nextafter(1, 2)), float(np.nextafter(1, 0))
SETTING_RULES = {
    "mode": ("one of grid | scalar | matrix | compare", ["grid", "compare"], ["bogus", "Grid"]),
    "p": ("an integer >= 2", [2], [1]),
    "n": ("an integer >= 2", [2], [1]),
    "density": ("in (0, 1]", [TINY, 1.0], [0.0, ONE_UP]),
    "seed": ("an integer >= 0", [0], [-1]),
    "split_ratio": ("in (0, 1)", [TINY, ONE_DOWN], [0.0, 1.0]),
    "rho": ("finite and > 0", [TINY, HUGE], [0.0, -TINY]),
    "max_outer_iter": ("an integer >= 1", [1], [0]),
    "inner_tol": ("finite and > 0", [TINY, HUGE], [0.0, -TINY]),
    "grid_points": ("an integer >= 1", [1], [0]),
    "lambda_init_policy": ("one of offdiag-max | max-entry", ["max-entry"], ["median"]),
}


def _rule_cases():
    for name, (_, allowed, rejected) in SETTING_RULES.items():
        if isinstance(ExperimentConfig.__dataclass_fields__[name].default, float):
            rejected = [*rejected, float("nan"), float("inf")]
        yield from (pytest.param(name, value, True, id=f"{name}={value}") for value in allowed)
        yield from (pytest.param(name, value, False, id=f"{name}={value}") for value in rejected)


def test_setting_rules_cover_every_setting_with_a_rule():
    assert set(SETTING_RULES) == {f.name for f in fields(ExperimentConfig)
                                  if f.metadata["allowed"] is not None}


@pytest.mark.parametrize("name, value, ok", _rule_cases())
def test_setting_rule_holds_directly_by_flag_and_by_file(tmp_path, capsys, name, value, ok):
    flag, rule = name.replace("_", "-"), SETTING_RULES[name][0]
    message = f"{flag} must be {rule}, got {value!r}"
    # argparse reads a word such as -5e-324 as an option, in a file as on
    # the command line, so a value that starts with a dash joins its flag
    sep = "=" if str(value).startswith("-") else " "
    path = config_file(tmp_path, f"--{flag}{sep}{value}\n")
    for argv in ([f"--{flag}={value}"], ["--config", path]):
        if ok:
            assert getattr(parse_config(argv), name) == value
            continue
        assert usage_error(argv, capsys) == f"glassotune: error: {message}"
    if ok:
        assert getattr(ExperimentConfig(**{name: value}), name) == value
    else:
        with pytest.raises(ValueError) as info:
            ExperimentConfig(**{name: value})
        assert str(info.value) == message


def test_help_shows_each_rule_before_the_default(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # no wrapping inside a rule
    with pytest.raises(SystemExit):
        parse_config(["--help"])
    options = " ".join(capsys.readouterr().out.split("options:", 1)[1].split())
    for name, (rule, _, _) in SETTING_RULES.items():
        default = ExperimentConfig.__dataclass_fields__[name].default
        assert f", {rule} (default: {default})" in options, name


class TestRunGrid:
    def test_outputs(self, tmp_path):
        cfg = small_config(tmp_path, mode="grid")
        assert run(cfg) == 0
        lines = (tmp_path / "grid_curve.csv").read_text().splitlines()
        assert lines[0] == "lambda,criterion,rel_error"
        lams = [float(l.split(",")[0]) for l in lines[1:]]
        assert not (tmp_path / "trajectory.csv").exists()

        summary = read_summary(tmp_path)
        assert summary["config"]["p"] == 6
        # one row per evaluated level: the grid's largest ones, down to the
        # first at or below the best level / GRID_STOP_SPAN
        points = summary["grid"]["points"]
        assert 0 < points == len(lams) < cfg.grid_points
        grid = gt.default_grid(summary["lambda_init"], cfg.grid_points)
        assert lams == list(grid[-points:])
        best = summary["grid"]["lambda_best"]
        assert lams[0] <= best / glassotune.bilevel.GRID_STOP_SPAN < lams[1]
        assert summary["grid"]["failed_points"] == 0
        crits = [float(l.split(",")[1]) for l in lines[1:]]
        assert summary["grid"]["criterion"] == pytest.approx(min(crits))
        assert summary["lambda_start"] > summary["lambda_init"]


class TestRunScalar:
    def test_outputs(self, tmp_path):
        cfg = small_config(tmp_path, mode="scalar")
        assert run(cfg) == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("iter,lambda,")
        summary = read_summary(tmp_path)
        assert summary["scalar"]["outer_iterations"] == len(lines) - 1
        assert summary["scalar"]["lambda_opt"] > 0
        assert not (tmp_path / "grid_curve.csv").exists()

    def test_emit_matrices(self, tmp_path):
        cfg = small_config(tmp_path, mode="scalar", emit_matrices=True,
                           max_outer_iter=5)
        assert run(cfg) == 0
        lam = load_matrix_csv(tmp_path / "lambda_opt.csv")
        assert lam.shape == (1, 1)
        summary = read_summary(tmp_path)
        assert lam[0, 0] == pytest.approx(summary["scalar"]["lambda_opt"])
        assert load_matrix_csv(tmp_path / "theta_true.csv").shape == (6, 6)
        assert load_matrix_csv(tmp_path / "theta_hat.csv").shape == (6, 6)


class TestEmittedEstimate:
    @pytest.mark.parametrize(
        "mode, stage",
        [("grid", "grid"), ("scalar", "scalar"), ("matrix", "matrix"),
         ("compare", "scalar")],
    )
    def test_is_the_estimate_behind_the_reported_criterion(self, tmp_path, mode, stage):
        cfg = small_config(tmp_path, mode=mode, p=4, n=100, grid_points=5,
                           max_outer_iter=3, emit_matrices=True)
        assert run(cfg) == 0
        truth = gt.make_sparse_spd(cfg.p, cfg.density, cfg.seed)
        samples = gt.sample_gaussian(truth, cfg.n, cfg.seed + 1)
        data = gt.split_samples(samples, cfg.split_ratio, cfg.seed + 2)
        theta = load_matrix_csv(tmp_path / "theta_hat.csv")
        reported = read_summary(tmp_path)[stage]["criterion"]
        assert gt.criterion_holdout(theta, data.cov_test).value == reported


class TestRunMatrix:
    def test_outputs(self, tmp_path):
        cfg = small_config(tmp_path, mode="matrix", p=4, n=100,
                           max_outer_iter=3, emit_matrices=True)
        assert run(cfg) == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("iter,lambda_min,lambda_max,lambda_mean,")
        summary = read_summary(tmp_path)
        assert "scalar" in summary and "matrix" in summary
        m = summary["matrix"]
        assert m["lambda_min"] <= m["lambda_mean"] <= m["lambda_max"]
        assert m["criterion"] <= summary["scalar"]["criterion"] + 1e-8
        assert load_matrix_csv(tmp_path / "lambda_opt.csv").shape == (4, 4)

    def test_first_solve_starts_at_the_scalar_estimate(self, tmp_path):
        assert run(small_config(tmp_path, mode="matrix", p=4, n=100,
                                max_outer_iter=3)) == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        header = rows[0].split(",")
        first = dict(zip(header, rows[1].split(",")))
        assert first["inner_iters"] == "0"
        summary = read_summary(tmp_path)
        assert float(first["criterion"]) == pytest.approx(summary["scalar"]["criterion"],
                                                          abs=1e-9)


class TestNewtonStepsReported:
    def test_counted_within_inner_iterations_at_p100(self, tmp_path):
        cfg = ExperimentConfig(mode="compare", p=100, n=2000, density=0.05, seed=0,
                               grid_points=10, max_outer_iter=10,
                               output_dir=str(tmp_path))
        assert run(cfg) == 0
        scalar = read_summary(tmp_path)["scalar"]
        assert 0 < scalar["newton_steps_total"] <= scalar["inner_iterations_total"]


class TestNewtonTrialsReported:
    # The new counter sits beside the stage fields the summary already had
    # and leaves trajectory.csv as it was.
    STAGE_FIELDS = {"criterion", "rel_error", "outer_iterations",
                    "inner_iterations_total", "newton_steps_total", "kink_entries",
                    "converged", "aborted", "stop_reason", "seconds"}
    LEVELS = {"scalar": {"lambda_opt"},
              "matrix": {"lambda_min", "lambda_max", "lambda_mean"}}

    def test_beside_unchanged_fields(self, tmp_path):
        cfg = ExperimentConfig(mode="matrix", p=30, n=600, density=0.1, seed=2,
                               max_outer_iter=5, output_dir=str(tmp_path))
        assert run(cfg) == 0
        summary = read_summary(tmp_path)
        for stage, levels in self.LEVELS.items():
            record = summary[stage]
            assert set(record) == self.STAGE_FIELDS | levels | {
                "newton_trials_total", "rejected_steps", "population_criterion"}
            assert 0 < record["newton_steps_total"] <= record["newton_trials_total"]
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == ("iter,lambda_min,lambda_max,lambda_mean,criterion,"
                          "hypergrad_norm,inner_iters,rel_error,seconds")


class TestStageTotals:
    def test_descent_totals_count_every_solve(self, tmp_path, monkeypatch):
        # The summary copies the trajectory's totals, which take in every
        # solve of the descent, not only the ones trajectory.csv records.
        real = glassotune.bilevel.solve
        estimates = []

        def recording(*args, **kwargs):
            estimates.append(real(*args, **kwargs))
            return estimates[-1]

        monkeypatch.setattr(glassotune.bilevel, "solve", recording)
        # this loose tolerance gives one rejected trial and a last solve
        # that takes no inner iteration, neither of them a record
        assert run(small_config(tmp_path, mode="scalar", p=10, n=400, inner_tol=1e-4)) == 0
        scalar = read_summary(tmp_path)["scalar"]
        assert scalar["rejected_steps"] == 1
        assert scalar["stop_reason"] == "solve below resolution"
        assert len(estimates) == scalar["outer_iterations"] + 2
        for field, count in (("inner_iterations_total", "iterations"),
                             ("newton_steps_total", "newton_steps"),
                             ("newton_trials_total", "newton_trials")):
            assert scalar[field] == sum(getattr(est, count) for est in estimates)

    def test_grid_mode_factorizes_no_estimate_again(self, tmp_path, monkeypatch):
        # The grid's population criterion reads the log-determinant and the
        # inverse that the solve of its argmin already computed.
        real = glassotune.implicit.cholesky
        calls = []

        def counting(a):
            calls.append(a)
            return real(a)

        monkeypatch.setattr(glassotune.implicit, "cholesky", counting)
        assert run(small_config(tmp_path, mode="grid")) == 0
        assert np.isfinite(read_summary(tmp_path)["grid"]["population_criterion"])
        assert calls == []

    def test_theta_true_is_factorized_once(self, tmp_path, monkeypatch):
        # The ground truth keeps the factor of its SPD check; sampling and
        # the population covariance read it instead of factorizing again.
        config = small_config(tmp_path, mode="scalar")
        theta = gt.make_sparse_spd(config.p, config.density, config.seed).theta_true
        real = glassotune.linalg.cholesky
        calls = []

        def counting(a):
            calls.append(np.array_equal(a, theta))
            return real(a)

        for module in (glassotune.cli, glassotune.datagen, glassotune.glasso,
                       glassotune.implicit):
            if hasattr(module, "cholesky"):
                monkeypatch.setattr(module, "cholesky", counting)
        assert run(config) == 0
        assert sum(calls) == 1


class TestPopulationCriterion:
    @pytest.mark.parametrize("mode", ["grid", "scalar", "matrix"])
    def test_matches_numpy_on_the_exported_estimate(self, tmp_path, mode):
        # -logdet(theta_hat) + tr(Sigma theta_hat), Sigma = theta_true^{-1},
        # for the last stage, whose estimate the run exports.
        cfg = small_config(tmp_path, mode=mode, max_outer_iter=5, emit_matrices=True)
        assert run(cfg) == 0
        summary = read_summary(tmp_path)
        theta_hat = load_matrix_csv(tmp_path / "theta_hat.csv")
        sigma = np.linalg.inv(load_matrix_csv(tmp_path / "theta_true.csv"))
        sign, logdet = np.linalg.slogdet(theta_hat)
        assert sign == 1.0
        expected = -logdet + np.trace(sigma @ theta_hat)
        assert summary[mode]["population_criterion"] == pytest.approx(expected, rel=1e-12)

    def test_every_stage_reports_it(self, tmp_path):
        assert run(small_config(tmp_path, mode="compare", max_outer_iter=5)) == 0
        summary = read_summary(tmp_path)
        for stage in ("grid", "scalar"):
            assert np.isfinite(summary[stage]["population_criterion"])


class TestRunCompare:
    def test_outputs(self, tmp_path):
        cfg = small_config(tmp_path, mode="compare")
        assert run(cfg) == 0
        assert (tmp_path / "grid_curve.csv").exists()
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("iter,lambda,")  # scalar descent layout
        summary = read_summary(tmp_path)
        cmp = summary["compare"]
        assert cmp["lambda_grid"] == summary["grid"]["lambda_best"]
        assert cmp["lambda_descent"] == summary["scalar"]["lambda_opt"]
        assert cmp["lambda_gap"] == pytest.approx(
            abs(cmp["lambda_grid"] - cmp["lambda_descent"])
        )
        assert cmp["grid_ratio"] == pytest.approx(1e3 ** (1 / (cfg.grid_points - 1)))
        assert isinstance(cmp["within_one_cell"], bool)

    def test_single_grid_point_has_no_cell(self, tmp_path):
        cfg = small_config(tmp_path, mode="compare", p=5, grid_points=1,
                           max_outer_iter=3)
        assert run(cfg) == 0
        cmp = read_summary(tmp_path)["compare"]
        assert cmp["grid_ratio"] is None
        assert cmp["within_one_cell"] is None

    def test_deterministic_apart_from_timings(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(small_config(out_a, mode="compare")) == 0
        assert run(small_config(out_b, mode="compare")) == 0
        assert (out_a / "grid_curve.csv").read_bytes() == (
            out_b / "grid_curve.csv"
        ).read_bytes()

        def strip_seconds(path):
            lines = path.read_text().splitlines()
            return [",".join(l.split(",")[:-1]) for l in lines]

        assert strip_seconds(out_a / "trajectory.csv") == strip_seconds(
            out_b / "trajectory.csv"
        )
        a, b = read_summary(out_a), read_summary(out_b)
        a["config"].pop("output_dir")
        b["config"].pop("output_dir")
        assert without_timings(a) == without_timings(b)


class TestTrajectoryCsv:
    def _scalar_traj(self):
        _, data = make_instance(4, 200, seed=0)
        _, traj = gt.tune_scalar(
            data.cov_train, data.cov_test, gt.BilevelConfig(max_outer_iter=2)
        )
        return traj

    def test_scalar_layout(self, tmp_path):
        traj = self._scalar_traj()
        path = tmp_path / "traj.csv"
        write_trajectory(traj, path)
        lines = path.read_text().splitlines()
        assert (
            lines[0]
            == "iter,lambda,criterion,hypergrad_norm,inner_iters,rel_error,seconds"
        )
        assert len(lines) == len(traj) + 1
        for i, line in enumerate(lines[1:]):
            cols = line.split(",")
            assert len(cols) == 7
            assert cols[0] == str(i)
            assert (float(cols[1]),) == traj.records[i].penalty
            assert cols[5] == "nan"  # no ground truth passed

    def test_matrix_layout(self, tmp_path):
        _, data = make_instance(4, 200, seed=0)
        lam = 0.3 * gt.lambda_init(data.cov_train)
        _, traj = gt.tune_matrix(
            data.cov_train,
            data.cov_test,
            gt.BilevelConfig(init=gt.Regularization.scalar(lam), max_outer_iter=2),
        )
        path = tmp_path / "traj.csv"
        write_trajectory(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "iter,lambda_min,lambda_max,lambda_mean,"
            "criterion,hypergrad_norm,inner_iters,rel_error,seconds"
        )
        for line, record in zip(lines[1:], traj.records, strict=True):
            cols = line.split(",")
            assert len(cols) == 9
            assert tuple(float(c) for c in cols[1:4]) == record.penalty
            assert float(cols[1]) <= float(cols[3]) <= float(cols[2])


class TestAbortedDescent:
    def test_flagged_in_summary_with_exit_0(self, tmp_path, monkeypatch, capsys):
        # Every support check after the first fails, so the descent aborts
        # at outer iteration 1.
        fail_support_check(monkeypatch, lambda n: n > 1)
        assert run(small_config(tmp_path, mode="scalar", max_outer_iter=5)) == 0
        scalar = read_summary(tmp_path)["scalar"]
        assert scalar["aborted"] is True
        assert scalar["stop_reason"].startswith("aborted at outer iteration 1")
        assert scalar["outer_iterations"] == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"warning: scalar descent {scalar['stop_reason']}"]

    def test_out_of_range_step_aborts_with_exit_0(self, tmp_path, capsys):
        # The scalar step underflows lambda to 0; the matrix stage then
        # starts from the last valid level instead of failing on lambda=0.
        cfg = ExperimentConfig(mode="matrix", p=10, n=400, seed=1, rho=1e4,
                               max_outer_iter=5, output_dir=str(tmp_path))
        assert run(cfg) == 0
        summary = read_summary(tmp_path)
        assert summary["scalar"]["aborted"] is True
        assert summary["scalar"]["stop_reason"] == (
            "aborted at outer iteration 1: the step took a penalty to 0 or inf"
        )
        assert summary["scalar"]["lambda_opt"] > 0.0
        assert "matrix" in summary

    def test_clean_run_is_not_flagged(self, tmp_path, capsys):
        assert run(small_config(tmp_path, mode="matrix", p=4, n=100,
                                max_outer_iter=3)) == 0
        summary = read_summary(tmp_path)
        assert summary["scalar"]["aborted"] is False
        assert summary["matrix"]["aborted"] is False
        assert summary["scalar"]["kink_entries"] == 0
        assert summary["matrix"]["kink_entries"] == 0
        assert capsys.readouterr().err == ""


class TestFailureModes:
    def test_degenerate_split_exits_3(self, tmp_path):
        cfg = ExperimentConfig(mode="grid", p=2, n=2, split_ratio=0.4,
                               output_dir=str(tmp_path))
        assert run(cfg) == 3
        with open(tmp_path / "error.json") as fh:
            record = json.load(fh)
        assert record["error"] == "DegenerateSplit"
        assert record["partial_summary"]["config"]["n"] == 2
        assert not (tmp_path / "summary.json").exists()


    def test_output_dir_naming_a_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("not a directory\n")
        assert run(small_config(path, mode="grid")) == 2
        assert "output directory" in capsys.readouterr().err
        assert path.read_text() == "not a directory\n"


class TestStaleOutputs:
    FAILING = dict(mode="scalar", p=5, n=2, split_ratio=0.4)

    @pytest.mark.parametrize(
        "first, second, expected",
        [
            (dict(mode="compare", emit_matrices=True), FAILING, {"error.json"}),
            (FAILING, dict(mode="grid"), {"grid_curve.csv", "summary.json"}),
            (dict(mode="compare", emit_matrices=True), dict(mode="scalar"),
             {"summary.json", "trajectory.csv"}),
        ],
        ids=["success-then-failure", "failure-then-success", "compare-then-scalar"],
    )
    def test_directory_holds_only_the_last_run(self, tmp_path, first, second, expected):
        (tmp_path / "notes.txt").write_text("kept\n")
        run(small_config(tmp_path, max_outer_iter=3, **first))
        run(small_config(tmp_path, max_outer_iter=3, **second))
        assert {p.name for p in tmp_path.iterdir()} == expected | {"notes.txt"}


# Prints the thread count of each OpenBLAS pool, by its getter's name,
# after importing the CLI and again when main hands over to run.
_BLAS_PROBE = """
import ctypes, json, sys
import glassotune.cli as cli

def threads():
    found = {}
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                found[name] = getter()
                break
    return found

before = threads()
cli.run = lambda config: print(json.dumps([before, threads()])) or 0
cli.main(sys.argv[1:])
"""


class TestMain:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
    @pytest.mark.parametrize("explicit", [None, "2"])
    def test_scipy_blas_gets_one_thread_unless_the_variable_is_set(self, tmp_path, explicit):
        # numpy's pool keeps its threads; scipy's drops to one only when
        # OPENBLAS_NUM_THREADS is unset.
        env = cli_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if explicit is not None:
            env["OPENBLAS_NUM_THREADS"] = explicit
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE, "--output-dir", str(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        before, after = json.loads(proc.stdout.splitlines()[-1])
        numpy_pool, scipy_pool = ("scipy_openblas_get_num_threads64_",
                                  "scipy_openblas_get_num_threads")
        if set(before) != {numpy_pool, scipy_pool}:
            pytest.skip("numpy and scipy do not each load their own OpenBLAS")
        assert after[numpy_pool] == before[numpy_pool]
        assert after[scipy_pool] == (1 if explicit is None else before[scipy_pool])
        if explicit is not None:
            # both pools read the variable
            assert before[scipy_pool] == before[numpy_pool]

    def test_success_exit_code(self, tmp_path):
        argv = ["--mode", "grid", "--p", "4", "--n", "60", "--density", "0.4",
                "--seed", "1", "--grid-points", "5",
                "--output-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "glassotune.cli",
             "--mode", "grid", "--p", "4", "--n", "60", "--density", "0.4",
             "--seed", "1", "--grid-points", "5",
             "--output-dir", str(tmp_path)],
            capture_output=True, text=True, env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "summary.json").exists()
        assert "grid: best lambda=" in proc.stdout

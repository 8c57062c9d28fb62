import json
import os
import subprocess
import sys

import pytest

import fraceq
from fraceq import cli, suite
from fraceq.cli import (EXIT_CHECK_FAILED, EXIT_IO, EXIT_NUMERICAL, EXIT_OK,
                        EXIT_USAGE, main, parse_args)
from fraceq.distributions import build, quantile
from fraceq.numerics import linspace
from fraceq.order_mvt import alpha_survival_transform

EXP1 = '{"kind":"exponential","params":{"lambda":1}}'
EXP_MEAN2 = '{"kind":"exponential","params":{"lambda":0.5}}'
WEIBULL = '{"kind":"weibull","params":{"k":2,"lambda":1}}'
G_LINEAR = '[{"coef":1,"exp":1}]'
G_SQUARE = '[{"coef":1,"exp":2}]'
# overflows E[g(X)], so the identity's sides are infinite
G_HUGE = '[{"coef":1e308,"exp":2}]'


def report_of(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestParse:
    def test_eqdist_config(self):
        cfg = parse_args(["eqdist", "--dist", EXP1, "--alpha", "0.5", "--n", "2"])
        assert cfg.command == "eqdist"
        assert cfg.dist == json.loads(EXP1)
        assert cfg.alphas == [0.5]
        assert cfg.ns == [2]

    def test_comma_lists(self):
        cfg = parse_args(["eqdist", "--dist", EXP1, "--alpha", "0.5,1", "--n", "1,2"])
        assert cfg.alphas == [0.5, 1.0]
        assert cfg.ns == [1, 2]

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_malformed_json_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["eqdist", "--dist", '{"kind": oops}'])
        assert exc.value.code == EXIT_USAGE

    def test_grid_minimum(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["order", "--dist-x", EXP1, "--dist-y", EXP_MEAN2,
                        "--grid", "4"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("command", [
        ["eqdist", "--dist", EXP1], ["order", "--dist-x", EXP1, "--dist-y", EXP_MEAN2]],
        ids=["eqdist", "order"])
    def test_grid_maximum(self, command):
        # parse only: a grid of 1e11 points was killed while it was built
        assert parse_args(command + ["--grid", "4096"]).grid == 4096
        for size in ("4097", "100000000000"):
            with pytest.raises(SystemExit) as exc:
                parse_args(command + ["--grid", size])
            assert exc.value.code == EXIT_USAGE

    def test_suite_config(self):
        assert parse_args(["suite"]).command == "suite"

    def test_repeated_g(self):
        cfg = parse_args(["mvt", "--dist-x", EXP1, "--dist-y", EXP_MEAN2,
                          "--g", G_LINEAR, "--g", G_SQUARE])
        assert [g.describe() for g in cfg.g] == ["1*x^1", "1*x^2"]
        assert parse_args(["actuarial", "--severity", EXP1, "--r", "0.5",
                           "--s", "1"]).g == []

    @pytest.mark.parametrize("flag,value", [("--alpha", ""), ("--alpha", ","),
                                            ("--alpha", "nan"), ("--alpha", "0.5,inf"),
                                            ("--n", ""), ("--tol", "nan"),
                                            ("--tol", "inf"), ("--alpha", "abc"),
                                            ("--n", "1.5"), ("--tol", "abc"),
                                            ("--grid", "abc")])
    def test_empty_or_nonfinite_numbers_exit_2(self, flag, value):
        # an empty list runs no check and --tol inf passes every check, so
        # both would exit 0; a NaN fails every check and would exit 1; text
        # that is no number of the option's type is refused as it is read
        with pytest.raises(SystemExit) as exc:
            parse_args(["eqdist", "--dist", EXP1, flag, value])
        assert exc.value.code == EXIT_USAGE

    def test_missing_json_file_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            parse_args(["eqdist", "--dist", f"@{tmp_path / 'missing.json'}"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--u", "--v"])
    def test_one_sided_ratio_pair_exits_2(self, flag):
        # with only one of the pair the ratio check cannot run
        with pytest.raises(SystemExit) as exc:
            parse_args(["actuarial", "--severity", EXP1, "--r", "0.5", "--s", "0.8",
                        flag, "0.1"])
        assert exc.value.code == EXIT_USAGE


    def test_repeated_calls_give_equal_configs(self):
        # the parser is built once and reused, so no call may leave state
        # behind: not one that exits 2, nor an appended --g
        assert cli._build_parser() is cli._build_parser()
        runs = [["actuarial", "--severity", EXP1, "--r", "0.5", "--s", "1"],
                ["actuarial", "--severity", EXP1, "--r", "0.5", "--s", "1",
                 "--g", G_LINEAR, "--g", G_SQUARE],
                ["eqdist", "--dist", EXP1, "--alpha", "0.5,1", "--n", "2"],
                ["order", "--dist-x", EXP1, "--dist-y", EXP_MEAN2]]
        first = [parse_args(argv) for argv in runs]
        with pytest.raises(SystemExit) as exc:
            parse_args(["eqdist", "--dist", EXP1, "--alpha", "nan"])
        assert exc.value.code == EXIT_USAGE
        assert [parse_args(argv) for argv in runs] == first
        assert [parse_args(argv) for argv in reversed(runs)] == first[::-1]
        assert first[0].g == [] and len(first[1].g) == 2
        # a caller's edit must not reach the parser's defaults
        first[3].alphas.append(9.0)
        first[0].g.append(first[1].g[0])
        assert parse_args(runs[3]).alphas == [1.0]
        assert parse_args(runs[0]).g == []

    @pytest.mark.parametrize("argv", [
        ["suite", "--tol", "1"],
        ["suite", "--grid", "8"],
        ["order", "--dist-x", EXP1, "--dist-y", EXP_MEAN2, "--tol", "1e-3"],
        ["characterize", "--dist", EXP1, "--grid", "32"],
        ["taylor", "--dist", EXP1, "--g", G_SQUARE, "--grid", "32"],
        ["mvt", "--dist-x", EXP1, "--dist-y", EXP_MEAN2, "--g", G_SQUARE,
         "--grid", "32"],
        ["actuarial", "--severity", EXP1, "--r", "0.5", "--s", "1", "--grid", "32"]],
        ids=["suite-tol", "suite-grid", "order-tol", "characterize-grid",
             "taylor-grid", "mvt-grid", "actuarial-grid"])
    def test_option_the_command_ignores_exits_2(self, argv):
        # a command takes only the options its runner reads, so a setting
        # that would change nothing is refused instead of recorded
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == EXIT_USAGE


class TestRun:
    def test_eqdist_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["eqdist", "--dist", EXP1, "--alpha", "0.5,1", "--n", "1",
                     "--grid", "8", "--out", str(out)])
        assert code == EXIT_OK
        doc = report_of(out)
        assert doc["header"]["config"]["command"] == "eqdist"
        assert {"check", "lhs", "rhs", "residual", "tolerance", "pass",
                "params"} <= set(doc["results"][0])
        assert all(row["pass"] for row in doc["results"])

    def test_eqdist_row_is_the_suite_check(self, tmp_path):
        out = tmp_path / "eq.json"
        code = main(["eqdist", "--dist", WEIBULL, "--alpha", "0.5", "--n", "1",
                     "--grid", "8", "--out", str(out)])
        assert code == EXIT_OK
        X = build(json.loads(WEIBULL))
        row, points = suite.direct_vs_recursive(
            X, 0.5, 1, linspace(0.0, quantile(X, 0.99), 8), 1e-5,
            {"distribution": X.label, "alpha": 0.5, "n": 1})
        assert report_of(out)["results"] == [row.to_json()]
        assert row.check == "equilibrium_direct_vs_recursive"
        assert len(points) == 8

    def test_characterize_exponential_has_no_witness(self, tmp_path):
        out = tmp_path / "char.json"
        code = main(["characterize", "--dist", EXP1, "--out", str(out)])
        assert code == EXIT_OK
        summary = report_of(out)["results"][-1]
        assert summary["check"] == "characterization_summary"
        assert summary["params"]["is_fixed_point"] is True
        assert summary["params"]["witness"] is None

    def test_characterize_weibull_negative_is_pass(self, tmp_path):
        out = tmp_path / "char.json"
        code = main(["characterize", "--dist", WEIBULL, "--alpha", "1",
                     "--n", "1", "--out", str(out)])
        assert code == EXIT_OK
        doc = report_of(out)
        summary = [r for r in doc["results"]
                   if r["check"] == "characterization_summary"][0]
        assert summary["params"]["is_fixed_point"] is False

    def test_order_informational(self, tmp_path):
        out = tmp_path / "order.json"
        code = main(["order", "--dist-x", EXP1, "--dist-y", EXP_MEAN2,
                     "--alpha", "0.5", "--out", str(out)])
        assert code == EXIT_OK
        row = report_of(out)["results"][0]
        assert row["params"]["holds"] is False
        assert row["params"]["worst_t"] == 0.0

    def test_taylor_command(self, tmp_path):
        out = tmp_path / "taylor.json"
        code = main(["taylor", "--dist", EXP1, "--g", G_SQUARE,
                     "--alpha", "0.5,1", "--n", "0,1", "--out", str(out)])
        assert code == EXIT_OK

    def test_taylor_inadmissible_rows(self, tmp_path):
        # x^-0.9 lies below alpha - 1 = -0.5, so the c_0 limit diverges: each
        # order gets a passing row that says why instead of a residual
        out = tmp_path / "taylor.json"
        code = main(["taylor", "--dist", EXP1, "--g", '[{"coef":1,"exp":-0.9}]',
                     "--alpha", "0.5", "--n", "0,1", "--out", str(out)])
        assert code == EXIT_OK
        rows = report_of(out)["results"]
        assert [row["params"]["n"] for row in rows] == [0, 1]
        for row in rows:
            assert row["check"] == "taylor_inadmissible"
            assert row["pass"] is True
            assert "diverges" in row["params"]["reason"]

    def test_caputo_singular_derivative_row(self, tmp_path):
        # D^0.5 x^0.3 is a multiple of x^-0.2: g(0) exists, but the order-1a
        # derivative has no value at 0, so n = 1 is inadmissible, not an error
        out = tmp_path / "taylor.json"
        code = main(["taylor", "--caputo", "--dist", EXP1, "--g", '[{"coef":1,"exp":0.3}]',
                     "--alpha", "0.5", "--n", "1", "--out", str(out)])
        assert code == EXIT_OK
        [row] = report_of(out)["results"]
        assert row["check"] == "taylor_inadmissible"
        assert "order 1a is singular at 0" in row["params"]["reason"]

    @pytest.mark.parametrize("exp", ["-0.5", "-1.5"])
    def test_caputo_negative_exponent_exits_2(self, tmp_path, exp):
        # the Caputo expansion needs g(0): every negative exponent is a usage
        # error, however far below -1 it lies
        code = main(["taylor", "--caputo", "--dist", EXP1,
                     "--g", '[{"coef":1,"exp":%s}]' % exp,
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["taylor", "--dist", EXP1, "--n", "1"],
        ["mvt", "--dist-x", EXP1, "--dist-y", EXP_MEAN2]], ids=["taylor", "mvt"])
    def test_one_row_per_g(self, tmp_path, argv):
        out = tmp_path / "rows.json"
        code = main(argv + ["--g", G_LINEAR, "--g", G_SQUARE, "--alpha", "1",
                            "--out", str(out)])
        assert code == EXIT_OK
        rows = report_of(out)["results"]
        assert [row["params"]["g"] for row in rows] == ["1*x^1", "1*x^2"]
        assert {row["check"] for row in rows} == {f"{argv[0]}_residual"}

    @pytest.mark.parametrize("argv,check", [
        (["mvt", "--dist-x", '{"kind":"exponential","params":{"lambda":2}}',
          "--dist-y", EXP1, "--g", G_HUGE], "mvt_residual"),
        (["actuarial", "--severity", EXP1, "--r", "0.5", "--s", "1",
          "--g", G_HUGE], "deductible_mvt")], ids=["mvt", "actuarial"])
    def test_nonfinite_row_exits_3_without_report(self, tmp_path, capsys,
                                                  argv, check):
        # a NaN or infinite residual is a numerical failure, not a report
        # holding tokens that are not JSON
        out = tmp_path / "x.json"
        assert main(argv + ["--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()
        assert check in capsys.readouterr().err

    def test_mvt_command(self, tmp_path):
        out = tmp_path / "mvt.json"
        code = main(["mvt", "--dist-x", EXP1, "--dist-y", EXP_MEAN2,
                     "--g", G_SQUARE, "--alpha", "1", "--out", str(out)])
        assert code == EXIT_OK
        row = report_of(out)["results"][0]
        assert abs(row["lhs"] - 6.0) < 1e-9

    def test_actuarial_command_with_ratio(self, tmp_path):
        out = tmp_path / "act.json"
        code = main(["actuarial", "--severity", EXP1, "--r", "0.5", "--s", "1",
                     "--u", "1", "--v", "2", "--g", G_LINEAR, "--g", G_SQUARE,
                     "--alpha", "1", "--out", str(out)])
        assert code == EXIT_OK
        checks = {r["check"] for r in report_of(out)["results"]}
        assert checks == {"deductible_mvt", "exponential_ratio_check"}

    @pytest.mark.parametrize("severity,r,s", [
        ('{"kind":"uniform","params":{"a":0,"b":3}}', "0.5", "1"),
        # e^(-1000 u) and e^(-1000 v) both underflow, so the closed-form
        # ratio's denominator is 0
        ('{"kind":"exponential","params":{"lambda":1000}}', "1e-4", "2e-4")],
        ids=["uniform", "underflow"])
    def test_actuarial_ratio_check_usage_error(self, tmp_path, capsys, severity, r, s):
        code = main(["actuarial", "--severity", severity, "--r", r, "--s", s,
                     "--u", "1", "--v", "2", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_actuarial_overflowing_ratio_exits_3(self, tmp_path, capsys):
        # the ratios are inf, which the JSON report cannot hold
        out = tmp_path / "x.json"
        code = main(["actuarial", "--severity", '{"kind":"exponential","params":{"lambda":1000}}',
                     "--r", "1e-4", "--s", "2e-4", "--u", "0.72", "--v", "0.73",
                     "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        assert "DivergenceError" in capsys.readouterr().err

    def test_actuarial_deep_deductible(self, tmp_path):
        # both deductibles keep over 99.9% of the mass at 0
        out = tmp_path / "deep.json"
        code = main(["actuarial", "--severity", EXP1, "--r", "8", "--s", "9",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = report_of(out)["results"]
        assert len(rows) == 2 and all(r["pass"] for r in rows)

    @pytest.mark.parametrize("r,s", [("32", "33"), ("300", "301")])
    def test_actuarial_very_deep_deductible(self, tmp_path, r, s):
        # 1 - P(X_r > 0) rounds to 1 here, so the order grid must bisect
        # for the survival level itself
        out = tmp_path / "deep.json"
        code = main(["actuarial", "--severity", EXP1, "--r", r, "--s", s,
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = report_of(out)["results"]
        assert len(rows) == 2 and all(r["pass"] for r in rows)

    @pytest.mark.parametrize("extra", [[], ["--u", "1", "--v", "2"]],
                             ids=["mvt", "ratio"])
    def test_actuarial_negative_exponent_exits_2(self, tmp_path, extra):
        # E[X_d^-0.4] diverges at the payment's atom at 0: a usage error
        code = main(["actuarial", "--severity", EXP1, "--r", "0.5", "--s", "1",
                     "--alpha", "0.5", "--g", '[{"coef":1,"exp":-0.4}]', *extra,
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE

    def test_mvt_g_below_admissible_range_exits_2(self, tmp_path):
        # x^-0.8 lies below alpha - 1 = -0.5: a hypothesis of the identity
        # fails, as for the same g under actuarial, not the numerics
        code = main(["mvt", "--dist-x", '{"kind":"exponential","params":{"lambda":2}}',
                     "--dist-y", EXP1, "--g", '[{"coef":1,"exp":-0.8}]',
                     "--alpha", "0.5", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE

    def test_check_failure_exits_1(self, tmp_path):
        # an impossible tolerance turns a healthy residual into a failure
        out = tmp_path / "fail.json"
        code = main(["mvt", "--dist-x", EXP1, "--dist-y", EXP_MEAN2,
                     "--g", G_SQUARE, "--alpha", "1", "--tol", "1e-30",
                     "--out", str(out)])
        assert code == EXIT_CHECK_FAILED
        assert report_of(out)["results"][0]["pass"] is False

    def test_divergence_exits_3(self, tmp_path):
        zi = '{"kind":"zero_inflated","params":{"p":0.3},"inner":' + EXP1 + '}'
        g = '[{"coef":1,"exp":-0.5}]'
        code = main(["mvt", "--dist-x", zi, "--dist-y", EXP1, "--g", g,
                     "--alpha", "0.5", "--allow-unordered",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_NUMERICAL

    @pytest.mark.parametrize("dist", [
        '{"kind":"exponential","params":{"lambda":"x"}}',
        '{"kind":"numeric","params":{"knots":[["a",1],[1,0.5]]}}',
        # JSON true is a Python int and would otherwise run as 1
        '{"kind":"exponential","params":{"lambda":true}}',
        '{"kind":"numeric","params":{"knots":[[0,1],[1,false]]}}',
        '{"kind":"deductible","params":{"d":0.5},"inner":'
        '{"kind":"exponential","params":{"lambda":true}}}'])
    def test_malformed_parameter_exits_2(self, tmp_path, dist):
        code = main(["eqdist", "--dist", dist, "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["eqdist", "--dist", '{"kind":"weibull","params":{"k":Infinity,"lambda":1}}'],
        ["eqdist", "--dist", '{"kind":"exponential","params":{"lambda":Infinity}}'],
        ["eqdist", "--dist", '{"kind":"uniform","params":{"a":0,"b":Infinity}}'],
        ["eqdist", "--dist", '{"kind":"numeric","params":{"knots":[[0,1],[NaN,0.5]]}}'],
        ["order", "--dist-x", EXP1, "--dist-y",
         '{"kind":"deductible","params":{"d":0.5},"inner":'
         '{"kind":"exponential","params":{"lambda":NaN}}}'],
        ["actuarial", "--severity", '{"kind":"exponential","params":{"lambda":-Infinity}}',
         "--r", "0.5", "--s", "1"]])
    def test_nonfinite_distribution_parameter_exits_2(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "x.json")]) == EXIT_USAGE
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("argv", [
        ["mvt", "--dist-x", EXP1, "--dist-y", EXP_MEAN2, "--g", '[{"coef":1,"exp":NaN}]'],
        ["actuarial", "--severity", EXP1, "--r", "0.5", "--s", "1",
         "--g", '[{"coef":1,"exp":NaN}]'],
        ["taylor", "--dist", EXP1, "--g", '[{"coef":NaN,"exp":1}]'],
        ["taylor", "--dist", EXP1, "--g", '[{"coef":1,"exp":Infinity}]']])
    def test_nonfinite_g_term_exits_2(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "x.json")])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("g", ['[{"coef":"2","exp":1}]', '[{"coef":2,"exp":true}]'],
                             ids=["string", "boolean"])
    def test_non_number_g_term_exits_2(self, tmp_path, g):
        # float() once read "2" as 2 and true as 1, and the case exited 0
        with pytest.raises(SystemExit) as exc:
            main(["taylor", "--dist", EXP1, "--g", g, "--alpha", "0.5", "--n", "1",
                  "--out", str(tmp_path / "x.json")])
        assert exc.value.code == EXIT_USAGE
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("g", ['""', "{}"])
    def test_non_list_g_exits_2(self, tmp_path, g):
        # a string or an object once ran as the zero function and exited 0
        with pytest.raises(SystemExit) as exc:
            main(["taylor", "--dist", EXP1, "--g", g, "--out", str(tmp_path / "x.json")])
        assert exc.value.code == EXIT_USAGE
        assert not (tmp_path / "x.json").exists()

    def test_nesting_past_the_cap_exits_2(self, tmp_path):
        # 400 levels once ended in RecursionError, an exit 1
        spec = EXP1
        for _ in range(400):
            spec = '{"kind":"zero_inflated","params":{"p":0.01},"inner":' + spec + "}"
        path = tmp_path / "deep.json"
        path.write_text(spec)
        code = main(["characterize", "--dist", "@" + str(path),
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE
        assert not (tmp_path / "x.json").exists()

    def test_json_too_deep_to_parse_exits_2(self, tmp_path):
        deep = '{"kind":"exponential","params":{"lambda":' + "[" * 100_000 + "1" \
            + "]" * 100_000 + "}}"
        with pytest.raises(SystemExit) as exc:
            main(["eqdist", "--dist", deep, "--out", str(tmp_path / "x.json")])
        assert exc.value.code == EXIT_USAGE

    def test_overflow_exits_3(self, tmp_path):
        huge = '{"kind":"uniform","params":{"a":0,"b":1e300}}'
        code = main(["eqdist", "--dist", huge, "--grid", "8",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_NUMERICAL

    @pytest.mark.parametrize("lam", [1e5] + [pytest.param(lam, marks=pytest.mark.xfail(
        strict=True, reason=(
            "the n = 1 oracle integrates the survival function from a unit first "
            "panel with no node where the law's mass is, and reads about 0 with "
            "converged=True, a residual of 1.0 (ROADMAP item 2, the unit first panel)")))
        for lam in (1e8, 1e300)],
        ids=["rate1e5", "rate1e8", "rate1e300"])
    def test_eqdist_at_a_small_scale(self, tmp_path, lam):
        dist = f'{{"kind":"exponential","params":{{"lambda":{lam:g}}}}}'
        assert main(["eqdist", "--dist", dist, "--alpha", "0.5", "--n", "1",
                     "--out", str(tmp_path / "x.json")]) == EXIT_OK

    def test_io_error_exits_4(self, tmp_path):
        code = main(["order", "--dist-x", EXP1, "--dist-y", EXP_MEAN2,
                     "--out", str(tmp_path / "no" / "such" / "dir.json")])
        assert code == EXIT_IO

    def test_reports_are_deterministic(self, tmp_path):
        args = ["eqdist", "--dist", EXP1, "--alpha", "0.5", "--n", "1",
                "--grid", "8"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_csv_grid_files(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["eqdist", "--dist", EXP1, "--alpha", "0.5", "--n", "1",
                     "--grid", "8", "--format", "csv", "--out", str(out)])
        assert code == EXIT_OK
        grid_file = tmp_path / "grid_alpha0.5_n1.csv"
        assert grid_file.exists()
        lines = grid_file.read_text().splitlines()
        assert lines[0] == "t,value,oracle_value,abs_diff"
        assert len(lines) == 9

    def test_order_csv_grid_files(self, tmp_path):
        out = tmp_path / "order.csv"
        code = main(["order", "--dist-x", EXP1, "--dist-y", EXP_MEAN2,
                     "--alpha", "0.5,1", "--grid", "8", "--format", "csv",
                     "--out", str(out)])
        assert code == EXIT_OK
        X, Y = build(json.loads(EXP1)), build(json.loads(EXP_MEAN2))
        for alpha in (0.5, 1.0):
            lines = (tmp_path / f"order_alpha{alpha:g}_n0.csv").read_text().splitlines()
            assert lines[0] == "t,transform_x,transform_y,abs_gap"
            assert len(lines) == 9
            for line in lines[1:]:
                t, fx, fy, diff = (float(v) for v in line.split(","))
                assert fx == alpha_survival_transform(X, alpha, t)
                assert fy == alpha_survival_transform(Y, alpha, t)
                assert diff == abs(fx - fy)

    def test_close_orders_get_separate_grid_files(self, tmp_path):
        # both orders print as 0.123457 with {:g}
        code = main(["order", "--dist-x", EXP1, "--dist-y", EXP_MEAN2,
                     "--alpha", "0.1234567,0.1234568", "--grid", "8",
                     "--format", "csv", "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "o.csv", "o_alpha0.1234567_n0.csv", "o_alpha0.1234568_n0.csv"]

    @pytest.mark.parametrize("argv,options", [
        (["eqdist", "--dist", EXP1, "--alpha", "0.5", "--n", "1", "--tol", "1e-5",
          "--grid", "8"], {"dist", "alphas", "ns", "tol", "grid"}),
        (["characterize", "--dist", EXP1, "--alpha", "1", "--n", "1", "--tol", "1e-6"],
         {"dist", "alphas", "ns", "tol"}),
        (["taylor", "--dist", EXP1, "--g", G_SQUARE, "--alpha", "1", "--n", "1",
          "--tol", "1e-5", "--caputo"], {"dist", "g", "alphas", "ns", "tol", "caputo"}),
        (["mvt", "--dist-x", EXP1, "--dist-y", EXP_MEAN2, "--g", G_SQUARE,
          "--alpha", "1", "--tol", "1e-5", "--allow-unordered"],
         {"dist_x", "dist_y", "g", "alphas", "tol", "allow_unordered"}),
        (["order", "--dist-x", EXP1, "--dist-y", EXP_MEAN2, "--alpha", "1",
          "--grid", "8"], {"dist_x", "dist_y", "alphas", "grid"}),
        (["actuarial", "--severity", EXP1, "--r", "0.5", "--s", "1", "--u", "1",
          "--v", "2", "--g", G_LINEAR, "--alpha", "1", "--tol", "1e-5"],
         {"severity", "r", "s", "u", "v", "g", "alphas", "tol"}),
        (["suite"], set())],
        ids=["eqdist", "characterize", "taylor", "mvt", "order", "actuarial", "suite"])
    def test_header_config_is_the_command_options(self, tmp_path, monkeypatch,
                                                  argv, options):
        # every option given, so each appears; the output path is left out
        monkeypatch.setattr(suite, "CRITERIA", {})
        out = tmp_path / "r.json"
        assert main(argv + ["--format", "json", "--out", str(out)]) == EXIT_OK
        config = report_of(out)["header"]["config"]
        assert set(config) == options | {"command", "format"}
        assert config["command"] == argv[0]
        for name in ("dist", "dist_x", "severity"):  # the JSON as given
            if name in config:
                assert config[name] == json.loads(EXP1)

    def test_order_heavy_tail(self, tmp_path):
        # the 0.999 quantile of Weibull(0.05) is about 6e16, far past 1e12
        out = tmp_path / "order.json"
        code = main(["order", "--dist-x", '{"kind":"weibull","params":{"k":0.05,"lambda":1}}',
                     "--dist-y", EXP1, "--out", str(out)])
        assert code == EXIT_OK
        assert report_of(out)["results"][0]["params"]["holds"] is False

    def test_order_heavy_tail_fractional(self, tmp_path):
        # E[(X-t)_+^-0.03] at t ~ 1e17 needs more than 64 tail doublings
        out = tmp_path / "order.json"
        code = main(["order", "--dist-x", '{"kind":"weibull","params":{"k":0.05,"lambda":1}}',
                     "--dist-y", EXP1, "--alpha", "0.97", "--out", str(out)])
        assert code == EXIT_OK
        assert report_of(out)["results"][0]["params"]["holds"] is False

    def test_order_divergent_alpha_transform(self, capsys):
        # the alpha = 0.5 transform needs E[X^-0.5], which diverges for k = 0.05
        code = main(["order", "--dist-x", '{"kind":"weibull","params":{"k":0.05,"lambda":1}}',
                     "--dist-y", EXP1, "--alpha", "0.5"])
        assert code == EXIT_NUMERICAL
        assert "diverges" in capsys.readouterr().err

    def test_stdout_when_no_out(self, capsys):
        code = main(["order", "--dist-x", EXP1, "--dist-y", EXP_MEAN2,
                     "--alpha", "1"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["header"]["version"]

    def test_suite_exits_zero(self, tmp_path, monkeypatch, criterion_rows):
        # the battery's rows are shared with the acceptance tests
        monkeypatch.setattr(suite, "CRITERIA", {
            number: (lambda number=number: criterion_rows(number))
            for number in suite.CRITERIA})
        out = tmp_path / "suite.json"
        code = main(["suite", "--out", str(out)])
        assert code == EXIT_OK
        doc = report_of(out)
        assert all(row["pass"] for row in doc["results"])
        criteria = {row["params"]["criterion"] for row in doc["results"]}
        assert criteria == set(range(1, 14))


def test_module_entry_point_runs_the_suite():
    # README's `python -m fraceq`: __main__.py hands sys.argv to cli.main
    src = os.path.dirname(os.path.dirname(os.path.abspath(fraceq.__file__)))
    out = subprocess.run([sys.executable, "-m", "fraceq", "suite", "--format", "csv"],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == EXIT_OK, out.stderr
    assert out.stdout.splitlines()[0] == "check,params,lhs,rhs,residual,tolerance,pass"

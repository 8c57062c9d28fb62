"""Command-line front end.

Commands dispatch verification campaigns over distributions given as
inline JSON (or @file), and write deterministic JSON or CSV reports.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage error,
3 numerical failure (non-convergence or overflow), 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

from . import __version__
from .actuarial import _deductible_reports, exponential_ratio_check
from .distributions import build, quantile
from .equilibrium import characterization_check
from .errors import DivergenceError, FraceqError, InvalidParameterError
from .fracops import PowerSum
from .numerics import linspace
from .order_mvt import _mvt_reports, check_survival_bounded_order, default_order_grid
from .suite import (CheckOutcome, direct_vs_recursive, identity_row, info_row,
                    outcome, run_all)
from .taylor import caputo_taylor_expectation, rl_taylor_expectation

__all__ = ["parse_args", "run", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_MAX_GRID = 4096  # --grid points; a grid of 1e11 would exhaust memory while it is built


def _json_argument(raw: str):
    """Inline JSON, or @path to a JSON file."""
    text = raw
    if raw.startswith("@"):
        try:
            with open(raw[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise argparse.ArgumentTypeError(f"cannot read {raw[1:]}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise argparse.ArgumentTypeError("JSON nested too deeply to parse") from exc


def _powersum_argument(raw: str) -> PowerSum:
    try:
        return PowerSum.from_json(_json_argument(raw))
    except InvalidParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _float_list(raw: str) -> list[float]:
    """A nonempty comma list of finite floats; an empty list would run no check."""
    try:
        values = [float(x) for x in raw.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list '{raw}'") from exc
    if not values or not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(
            f"need a nonempty list of finite numbers, got '{raw}'")
    return values


def _int_list(raw: str) -> list[int]:
    """A nonempty comma list of integers."""
    try:
        values = [int(x) for x in raw.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad int list '{raw}'") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"need a nonempty list of integers, got '{raw}'")
    return values


def _tolerance(raw: str) -> float:
    """A finite tolerance > 0: inf would pass every check, NaN fail every one."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"need a finite number > 0, got '{raw}'")
    return value


def _grid_size(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if not 8 <= value <= _MAX_GRID:
        raise argparse.ArgumentTypeError(f"need 8 to {_MAX_GRID} points, got '{raw}'")
    return value


@functools.cache  # one parser per process; parse_args only reads it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraceq",
        description="Fractional equilibrium distributions, stochastic orders, "
                    "and probabilistic Taylor/mean-value verification.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    # each command takes only the options its runner reads
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--out", help="report path (default: stdout)")
    report.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report format")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_tolerance, help="tolerance override")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid", type=_grid_size, default=16,
                      help=f"number of grid points (8 to {_MAX_GRID})")

    p = sub.add_parser("eqdist", parents=[report, tol, grid],
                       help="equilibrium survival vs recursive oracle")
    p.add_argument("--dist", type=_json_argument, required=True)
    p.add_argument("--alpha", dest="alphas", type=_float_list, default=[0.5])
    p.add_argument("--n", dest="ns", type=_int_list, default=[1])

    p = sub.add_parser("characterize", parents=[report, tol],
                       help="exponential fixed-point scan")
    p.add_argument("--dist", type=_json_argument, required=True)
    p.add_argument("--alpha", dest="alphas", type=_float_list, default=[0.3, 0.7, 1.0])
    p.add_argument("--n", dest="ns", type=_int_list, default=[1, 2])

    p = sub.add_parser("taylor", parents=[report, tol],
                       help="probabilistic Taylor residuals")
    p.add_argument("--dist", type=_json_argument, required=True)
    p.add_argument("--g", type=_powersum_argument, action="append",
                   required=True, help="test function; repeat for several")
    p.add_argument("--alpha", dest="alphas", type=_float_list, default=[0.5, 1.0])
    p.add_argument("--n", dest="ns", type=_int_list, default=[0, 1])
    p.add_argument("--caputo", action="store_true",
                   help="use the Caputo expansion instead of Riemann-Liouville")

    p = sub.add_parser("mvt", parents=[report, tol],
                       help="fractional mean value identity")
    p.add_argument("--dist-x", type=_json_argument, required=True)
    p.add_argument("--dist-y", type=_json_argument, required=True)
    p.add_argument("--g", type=_powersum_argument, action="append",
                   required=True, help="test function; repeat for several")
    p.add_argument("--alpha", dest="alphas", type=_float_list, default=[1.0])
    p.add_argument("--allow-unordered", action="store_true",
                   help="evaluate the identity even if the order check fails")

    p = sub.add_parser("order", parents=[report, grid],
                       help="survival bounded order check")
    p.add_argument("--dist-x", type=_json_argument, required=True)
    p.add_argument("--dist-y", type=_json_argument, required=True)
    p.add_argument("--alpha", dest="alphas", type=_float_list, default=[1.0])

    p = sub.add_parser("actuarial", parents=[report, tol],
                       help="deductible mean value identities")
    p.add_argument("--severity", type=_json_argument, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--u", type=float)
    p.add_argument("--v", type=float)
    p.add_argument("--g", type=_powersum_argument, action="append",
                   default=[], help="transform; repeat for several (default x and x^2)")
    p.add_argument("--alpha", dest="alphas", type=_float_list, default=[1.0])

    sub.add_parser("suite", parents=[report], help="full acceptance battery")
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse and validate argv (SystemExit(2) on usage errors)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    # list defaults belong to the shared parser, so each call gets its own copy
    for name, value in vars(args).items():
        if isinstance(value, list):
            setattr(args, name, list(value))
    if args.command == "actuarial" and (args.u is None) != (args.v is None):
        parser.error("--u and --v go together: the ratio check needs both")
    return args


# ---------------------------------------------------------------------------
# campaigns

def _run_eqdist(cfg: argparse.Namespace) -> tuple[list[CheckOutcome], dict]:
    X = build(cfg.dist)
    tol = cfg.tol or 1e-5
    hi = X.support_upper if math.isfinite(X.support_upper) else quantile(X, 0.99)
    ts = linspace(0.0, hi, cfg.grid)
    rows, grids = [], {}
    for alpha in cfg.alphas:
        for n in cfg.ns:
            row, grids[(alpha, n)] = direct_vs_recursive(
                X, alpha, n, ts, tol, {"distribution": X.label, "alpha": alpha, "n": n})
            rows.append(row)
    return rows, grids


def _run_characterize(cfg: argparse.Namespace) -> tuple[list[CheckOutcome], dict]:
    X = build(cfg.dist)
    tol = cfg.tol or 1e-6
    report = characterization_check(X, cfg.alphas, cfg.ns, tol=tol)
    fixed = report.is_fixed_point
    rows = [info_row("characterization", {"distribution": X.label, "alpha": alpha,
                                          "n": n, "is_fixed_point": fixed}, dev, tol)
            for (alpha, n), dev in sorted(report.deviations.items())]
    rows.append(info_row("characterization_summary",
                         {"distribution": X.label, "is_fixed_point": fixed,
                          "witness": report.witness},
                         report.max_deviation, tol))
    return rows, {}


def _run_taylor(cfg: argparse.Namespace) -> tuple[list[CheckOutcome], dict]:
    X = build(cfg.dist)
    tol = cfg.tol or 1e-5
    expand = caputo_taylor_expectation if cfg.caputo else rl_taylor_expectation
    rows = []
    for g in cfg.g:
        for alpha in cfg.alphas:
            for n in cfg.ns:
                params = {"distribution": X.label, "g": g.describe(),
                          "alpha": alpha, "n": n,
                          "flavor": "caputo" if cfg.caputo else "riemann-liouville"}
                try:
                    report = expand(g, X, alpha, n)
                except DivergenceError as exc:
                    rows.append(info_row("taylor_inadmissible",
                                         {**params, "reason": str(exc)}, 0.0, tol))
                    continue
                rows.append(identity_row("taylor_residual", params, report, tol))
    return rows, {}


def _g_major(gs: list[PowerSum], alphas: list[float], reports_at):
    """(g, alpha, report) for each g and, within it, each alpha.

    ``reports_at(alpha)`` yields the reports of every g at alpha lazily
    against one Z_alpha model, so each model is built once while the
    reports are drawn in this order: the first error raised is the one a
    loop over g and then alpha meets first.
    """
    streams = [reports_at(alpha) for alpha in alphas]
    for g in gs:
        for alpha, reports in zip(alphas, streams):
            yield g, alpha, next(reports)


def _run_mvt(cfg: argparse.Namespace) -> tuple[list[CheckOutcome], dict]:
    X, Y = build(cfg.dist_x), build(cfg.dist_y)
    tol = cfg.tol or 1e-5
    require_order = not cfg.allow_unordered
    cells = _g_major(cfg.g, cfg.alphas,
                     lambda alpha: _mvt_reports(cfg.g, X, Y, alpha, require_order))
    return [identity_row("mvt_residual",
                         {"x": X.label, "y": Y.label, "g": g.describe(), "alpha": alpha,
                          "order_verified": report.z.verified},
                         report, tol)
            for g, alpha, report in cells], {}


def _run_order(cfg: argparse.Namespace) -> tuple[list[CheckOutcome], dict]:
    X, Y = build(cfg.dist_x), build(cfg.dist_y)
    rows, grids = [], {}
    for alpha in cfg.alphas:
        grid = default_order_grid(X, Y, cfg.grid)
        res = check_survival_bounded_order(X, Y, alpha, grid)
        rows.append(info_row(  # informational command
            "order_check",
            {"x": X.label, "y": Y.label, "alpha": alpha, "holds": res.holds,
             "worst_t": res.worst_t},
            res.worst_gap, 1e-10))
        grids[(alpha, 0)] = res.points
    return rows, grids


def _run_actuarial(cfg: argparse.Namespace) -> tuple[list[CheckOutcome], dict]:
    severity = build(cfg.severity)
    kind = cfg.severity["kind"]
    tol = cfg.tol or 1e-5
    gs = cfg.g or [PowerSum.power(1.0), PowerSum.power(2.0)]
    cells = _g_major(gs, cfg.alphas, lambda alpha: _deductible_reports(
        gs, severity, cfg.r, cfg.s, alpha))
    rows = [identity_row("deductible_mvt",
                         {"severity": kind, "g": g.describe(),
                          "r": cfg.r, "s": cfg.s, "alpha": alpha},
                         report, tol)
            for g, alpha, report in cells]
    if cfg.u is not None and cfg.v is not None:
        if kind != "exponential":
            raise InvalidParameterError(
                "the ratio check is defined for exponential severities")
        lam = cfg.severity["params"]["lambda"]
        for alpha in cfg.alphas:
            check = exponential_ratio_check(lam, cfg.r, cfg.s, cfg.u, cfg.v, gs, alpha)
            rows.append(outcome(
                "exponential_ratio_check",
                {"lambda": lam, "r": cfg.r, "s": cfg.s, "u": cfg.u, "v": cfg.v,
                 "alpha": alpha, "reference_ratio": check.reference_ratio,
                 "ratios": list(check.ratios)},
                check.max_spread, tol, lhs=check.max_spread))
    return rows, {}


def _run_suite(cfg: argparse.Namespace) -> tuple[list[CheckOutcome], dict]:
    return run_all(), {}


_RUNNERS = {
    "eqdist": _run_eqdist,
    "characterize": _run_characterize,
    "taylor": _run_taylor,
    "mvt": _run_mvt,
    "order": _run_order,
    "actuarial": _run_actuarial,
    "suite": _run_suite,
}


# ---------------------------------------------------------------------------
# reports

def _config_json(cfg: argparse.Namespace) -> dict:
    """The header's record of the campaign: every option the command takes
    except the output path, which is run metadata; unset ones are left out.
    A distribution is recorded as the JSON the user gave."""
    def plain(value):
        if isinstance(value, list):
            return [plain(v) for v in value]
        return value.to_json() if isinstance(value, PowerSum) else value
    return {name: plain(value) for name, value in vars(cfg).items()
            if name != "out" and value is not None and value is not False
            and value != []}


_encode_str = json.encoder.encode_basestring_ascii


def _dump(value, pad: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2, allow_nan=False), byte for
    byte, for the values a report holds: dicts with str keys, lists, tuples,
    str, float, int, bool and None, of these exact types.  ``pad`` is the
    newline and indent of the value's line.  indent=2 makes json.dumps take
    its pure-Python encoder, which this type dispatch outruns."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is float:
        if value - value != 0.0:  # NaN or an infinity
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            [_encode_str(key) + ": " + _dump(item, inner)
             for key, item in sorted(value.items())]) + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_dump(item, inner) for item in value]) \
            + pad + "]"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_report(cfg: argparse.Namespace, rows: list[CheckOutcome]) -> str:
    report = {"header": {"version": __version__, "config": _config_json(cfg)},
              "results": [r.to_json() for r in rows]}
    return _dump(report, "\n") + "\n"


def _csv(header: list[str], records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(records)
    return buf.getvalue()


# columns of the per-(alpha, n) grid files of the commands that write them
_GRID_COLUMNS = {"eqdist": ["t", "value", "oracle_value", "abs_diff"],
                 "order": ["t", "transform_x", "transform_y", "abs_gap"]}


def _emit(cfg: argparse.Namespace, rows: list[CheckOutcome], grids: dict) -> None:
    if cfg.format == "json":
        text = _json_report(cfg, rows)
    else:
        text = _csv(["check", "params", "lhs", "rhs", "residual", "tolerance", "pass"],
                    ([r.check, json.dumps(r.params, sort_keys=True), repr(r.lhs),
                      repr(r.rhs), repr(r.residual), repr(r.tolerance), r.passed]
                     for r in rows))
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if cfg.format == "csv" and grids and cfg.out:
        stem = cfg.out[:-4] if cfg.out.endswith(".csv") else cfg.out
        for (alpha, n), points in grids.items():
            # {alpha:g} keeps six digits, so two close orders would share a file
            name = f"{alpha:g}" if float(f"{alpha:g}") == alpha else repr(alpha)
            path = f"{stem}_alpha{name}_n{n}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_csv(_GRID_COLUMNS[cfg.command],
                              ([repr(v) for v in point] for point in points)))


def run(cfg: argparse.Namespace) -> int:
    """Execute a campaign and write its report; returns the exit code."""
    if cfg.command not in _RUNNERS:
        return EXIT_USAGE
    try:
        rows, grids = _RUNNERS[cfg.command](cfg)
    # DivergenceError, an overflow on huge inputs, or a row with a nonfinite value
    except ArithmeticError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FraceqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _emit(cfg, rows, grids)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK if all(r.passed for r in rows) else EXIT_CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    cfg = parse_args(sys.argv[1:] if argv is None else argv)
    return run(cfg)

"""Command-line front end.

Commands dispatch verification campaigns over distributions given as
inline JSON (or @file), and write deterministic JSON or CSV reports.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage error,
3 numerical failure (non-convergence or overflow), 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

from . import __version__
from .actuarial import deductible_mvt, exponential_ratio_check
from .distributions import DistributionSpec, build, quantile
from .equilibrium import (characterization_check, eq_survival,
                          eq_survival_recursive, equilibrium_view)
from .errors import DivergenceError, FraceqError, InvalidParameterError
from .fracops import FracOrder, PowerSum
from .numerics import linspace
from .order_mvt import (alpha_survival_transform, check_survival_bounded_order,
                        default_order_grid, mvt_verify)
from .suite import CheckOutcome, run_all
from .taylor import caputo_taylor_expectation, rl_taylor_expectation

__all__ = ["RunConfig", "parse_args", "run", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_COMMANDS = ("eqdist", "characterize", "taylor", "mvt", "order", "actuarial", "suite")


@dataclass
class RunConfig:
    command: str
    dist: DistributionSpec | None = None
    dist_x: DistributionSpec | None = None
    dist_y: DistributionSpec | None = None
    severity: DistributionSpec | None = None
    gs: list[PowerSum] = field(default_factory=list)
    alphas: list[float] = field(default_factory=list)
    ns: list[int] = field(default_factory=list)
    grid: int = 16
    tol: float | None = None
    r: float | None = None
    s: float | None = None
    u: float | None = None
    v: float | None = None
    caputo: bool = False
    allow_unordered: bool = False
    out: str | None = None
    fmt: str = "json"

    def to_json(self) -> dict:
        obj: dict = {"command": self.command, "grid": self.grid, "format": self.fmt}
        for name in ("dist", "dist_x", "dist_y", "severity"):
            spec = getattr(self, name)
            if spec is not None:
                obj[name] = spec.to_json()
        if self.gs:
            obj["g"] = [g.to_json() for g in self.gs]
        # the output path is run metadata, not part of the campaign
        for name in ("alphas", "ns", "tol", "r", "s", "u", "v"):
            value = getattr(self, name)
            if value not in (None, []):
                obj[name] = value
        if self.caputo:
            obj["caputo"] = True
        if self.allow_unordered:
            obj["allow_unordered"] = True
        return obj


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


def _dist_argument(raw: str) -> DistributionSpec:
    try:
        return DistributionSpec.from_json(_json_argument(raw))
    except InvalidParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraceq",
        description="Fractional equilibrium distributions, stochastic orders, "
                    "and probabilistic Taylor/mean-value verification.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="report path (default: stdout)")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"),
                       default="json", help="report format")
        p.add_argument("--tol", type=float, help="tolerance override")
        p.add_argument("--grid", type=int, default=16,
                       help="grid size for sampled checks (>= 8)")

    p = sub.add_parser("eqdist", help="equilibrium survival vs recursive oracle")
    p.add_argument("--dist", type=_dist_argument, required=True)
    p.add_argument("--alpha", type=_float_list, default=[0.5])
    p.add_argument("--n", type=_int_list, default=[1])
    common(p)

    p = sub.add_parser("characterize", help="exponential fixed-point scan")
    p.add_argument("--dist", type=_dist_argument, required=True)
    p.add_argument("--alpha", type=_float_list, default=[0.3, 0.7, 1.0])
    p.add_argument("--n", type=_int_list, default=[1, 2])
    common(p)

    p = sub.add_parser("taylor", help="probabilistic Taylor residuals")
    p.add_argument("--dist", type=_dist_argument, required=True)
    p.add_argument("--g", type=_powersum_argument, required=True)
    p.add_argument("--alpha", type=_float_list, default=[0.5, 1.0])
    p.add_argument("--n", type=_int_list, default=[0, 1])
    p.add_argument("--caputo", action="store_true",
                   help="use the Caputo expansion instead of Riemann-Liouville")
    common(p)

    p = sub.add_parser("mvt", help="fractional mean value identity")
    p.add_argument("--dist-x", type=_dist_argument, required=True)
    p.add_argument("--dist-y", type=_dist_argument, required=True)
    p.add_argument("--g", type=_powersum_argument, required=True)
    p.add_argument("--alpha", type=_float_list, default=[1.0])
    p.add_argument("--allow-unordered", action="store_true",
                   help="evaluate the identity even if the order check fails")
    common(p)

    p = sub.add_parser("order", help="survival bounded order check")
    p.add_argument("--dist-x", type=_dist_argument, required=True)
    p.add_argument("--dist-y", type=_dist_argument, required=True)
    p.add_argument("--alpha", type=_float_list, default=[1.0])
    common(p)

    p = sub.add_parser("actuarial", help="deductible mean value identities")
    p.add_argument("--severity", type=_dist_argument, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--u", type=float)
    p.add_argument("--v", type=float)
    p.add_argument("--g", type=_powersum_argument, action="append",
                   help="transform(s); default x and x^2")
    p.add_argument("--alpha", type=_float_list, default=[1.0])
    common(p)

    p = sub.add_parser("suite", help="full acceptance battery")
    common(p)
    return parser


def parse_args(argv: list[str]) -> RunConfig:
    """Parse argv into a validated RunConfig (SystemExit(2) on usage errors)."""
    ns = _build_parser().parse_args(argv)
    g_arg = getattr(ns, "g", None)
    if g_arg is None:
        gs = []
    elif isinstance(g_arg, PowerSum):
        gs = [g_arg]
    else:
        gs = list(g_arg)
    cfg = RunConfig(
        command=ns.command,
        dist=getattr(ns, "dist", None),
        dist_x=getattr(ns, "dist_x", None),
        dist_y=getattr(ns, "dist_y", None),
        severity=getattr(ns, "severity", None),
        gs=gs,
        alphas=list(getattr(ns, "alpha", None) or []),
        ns=list(getattr(ns, "n", None) or []),
        grid=getattr(ns, "grid", 16),
        tol=getattr(ns, "tol", None),
        r=getattr(ns, "r", None),
        s=getattr(ns, "s", None),
        u=getattr(ns, "u", None),
        v=getattr(ns, "v", None),
        caputo=bool(getattr(ns, "caputo", False)),
        allow_unordered=bool(getattr(ns, "allow_unordered", False)),
        out=getattr(ns, "out", None),
        fmt=getattr(ns, "fmt", "json"),
    )
    if cfg.grid < 8:
        _build_parser().error(f"--grid must be >= 8, got {cfg.grid}")
    if cfg.tol is not None and not 0 < cfg.tol < math.inf:
        _build_parser().error(f"--tol must be finite and > 0, got {cfg.tol}")
    return cfg


# ---------------------------------------------------------------------------
# campaigns

def _run_eqdist(cfg: RunConfig) -> tuple[list[CheckOutcome], dict]:
    X = build(cfg.dist)
    tol = cfg.tol or 1e-5
    hi = _grid_upper(X)
    ts = linspace(0.0, hi, cfg.grid)
    rows, grids = [], {}
    for alpha in cfg.alphas:
        for n in cfg.ns:
            view = equilibrium_view(X, alpha, n)
            order = FracOrder(alpha, n)
            points = []
            worst = 0.0
            for t in ts:
                direct = eq_survival(view, t)
                oracle = eq_survival_recursive(X, order, t)
                diff = abs(direct - oracle)
                worst = max(worst, diff / max(abs(oracle), 1e-12))
                points.append((t, direct, oracle, diff))
            rows.append(CheckOutcome(
                "eqdist_direct_vs_recursive",
                {"distribution": X.label, "alpha": alpha, "n": n},
                lhs=worst, rhs=0.0, residual=worst, tolerance=tol,
                passed=worst <= tol))
            grids[(alpha, n)] = points
    return rows, grids


def _grid_upper(X) -> float:
    if math.isfinite(X.support_upper):
        return X.support_upper
    return quantile(X, 0.99)


def _run_characterize(cfg: RunConfig) -> tuple[list[CheckOutcome], dict]:
    X = build(cfg.dist)
    tol = cfg.tol or 1e-6
    report = characterization_check(X, cfg.alphas, cfg.ns, tol=tol)
    rows = [CheckOutcome(
        "characterization",
        {"distribution": X.label, "alpha": alpha, "n": n,
         "is_fixed_point": report.is_fixed_point},
        lhs=dev, rhs=0.0, residual=dev, tolerance=tol, passed=True)
        for (alpha, n), dev in sorted(report.deviations.items())]
    rows.append(CheckOutcome(
        "characterization_summary",
        {"distribution": X.label, "is_fixed_point": report.is_fixed_point,
         "witness": list(report.witness)},
        lhs=report.max_deviation, rhs=0.0, residual=report.max_deviation,
        tolerance=tol, passed=True))
    return rows, {}


def _run_taylor(cfg: RunConfig) -> tuple[list[CheckOutcome], dict]:
    X = build(cfg.dist)
    tol = cfg.tol or 1e-5
    expand = caputo_taylor_expectation if cfg.caputo else rl_taylor_expectation
    rows = []
    for g in cfg.gs:
        for alpha in cfg.alphas:
            for n in cfg.ns:
                params = {"distribution": X.label, "g": g.describe(),
                          "alpha": alpha, "n": n,
                          "flavor": "caputo" if cfg.caputo else "riemann-liouville"}
                try:
                    report = expand(g, X, alpha, n)
                except DivergenceError as exc:
                    rows.append(CheckOutcome(
                        "taylor_inadmissible", {**params, "reason": str(exc)},
                        lhs=0.0, rhs=0.0, residual=0.0, tolerance=tol, passed=True))
                    continue
                rows.append(CheckOutcome(
                    "taylor_residual", params, lhs=report.lhs, rhs=report.rhs,
                    residual=report.residual, tolerance=tol,
                    passed=abs(report.residual) <= tol))
    return rows, {}


def _run_mvt(cfg: RunConfig) -> tuple[list[CheckOutcome], dict]:
    X, Y = build(cfg.dist_x), build(cfg.dist_y)
    tol = cfg.tol or 1e-5
    rows = []
    for g in cfg.gs:
        for alpha in cfg.alphas:
            report = mvt_verify(g, X, Y, alpha,
                                require_order=not cfg.allow_unordered)
            rows.append(CheckOutcome(
                "mvt_residual",
                {"x": X.label, "y": Y.label, "g": g.describe(), "alpha": alpha,
                 "order_verified": report.z.verified},
                lhs=report.lhs, rhs=report.rhs, residual=report.residual,
                tolerance=tol, passed=abs(report.residual) <= tol))
    return rows, {}


def _run_order(cfg: RunConfig) -> tuple[list[CheckOutcome], dict]:
    X, Y = build(cfg.dist_x), build(cfg.dist_y)
    rows, grids = [], {}
    for alpha in cfg.alphas:
        grid = default_order_grid(X, Y, max(cfg.grid, 8))
        res = check_survival_bounded_order(X, Y, alpha, grid)
        rows.append(CheckOutcome(
            "order_check",
            {"x": X.label, "y": Y.label, "alpha": alpha, "holds": res.holds,
             "worst_t": res.worst_t},
            lhs=res.worst_gap, rhs=0.0, residual=res.worst_gap,
            tolerance=1e-10, passed=True))  # informational command
        points = []
        for t in grid:
            fx = alpha_survival_transform(X, alpha, t)
            fy = alpha_survival_transform(Y, alpha, t)
            points.append((t, fx, fy, abs(fx - fy)))
        grids[(alpha, 0)] = points
    return rows, grids


def _run_actuarial(cfg: RunConfig) -> tuple[list[CheckOutcome], dict]:
    tol = cfg.tol or 1e-5
    gs = cfg.gs or [PowerSum.power(1.0), PowerSum.power(2.0)]
    rows = []
    for g in gs:
        for alpha in cfg.alphas:
            report = deductible_mvt(g, cfg.severity, cfg.r, cfg.s, alpha)
            rows.append(CheckOutcome(
                "deductible_mvt",
                {"severity": cfg.severity.kind, "g": g.describe(),
                 "r": cfg.r, "s": cfg.s, "alpha": alpha},
                lhs=report.lhs, rhs=report.rhs, residual=report.residual,
                tolerance=tol, passed=abs(report.residual) <= tol))
    if cfg.u is not None and cfg.v is not None:
        if cfg.severity.kind != "exponential":
            raise InvalidParameterError(
                "the ratio check is defined for exponential severities")
        lam = cfg.severity.params["lambda"]
        for alpha in cfg.alphas:
            check = exponential_ratio_check(lam, cfg.r, cfg.s, cfg.u, cfg.v, gs, alpha)
            rows.append(CheckOutcome(
                "exponential_ratio_check",
                {"lambda": lam, "r": cfg.r, "s": cfg.s, "u": cfg.u, "v": cfg.v,
                 "alpha": alpha, "reference_ratio": check.reference_ratio,
                 "ratios": list(check.ratios)},
                lhs=check.max_spread, rhs=0.0, residual=check.max_spread,
                tolerance=tol, passed=check.max_spread <= tol))
    return rows, {}


def _run_suite(cfg: RunConfig) -> tuple[list[CheckOutcome], dict]:
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

def _json_report(cfg: RunConfig, rows: list[CheckOutcome]) -> str:
    report = {"header": {"version": __version__, "config": cfg.to_json()},
              "results": [r.to_json() for r in rows]}
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _flat_csv(rows: list[CheckOutcome]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "params", "lhs", "rhs", "residual", "tolerance", "pass"])
    for r in rows:
        writer.writerow([r.check, json.dumps(r.to_json()["params"], sort_keys=True),
                         repr(r.lhs), repr(r.rhs), repr(r.residual),
                         repr(r.tolerance), r.passed])
    return buf.getvalue()


def _grid_csv(points: list[tuple[float, float, float, float]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "value", "oracle_value", "abs_diff"])
    for t, value, oracle, diff in points:
        writer.writerow([repr(t), repr(value), repr(oracle), repr(diff)])
    return buf.getvalue()


def _emit(cfg: RunConfig, rows: list[CheckOutcome], grids: dict) -> None:
    if cfg.fmt == "json":
        text = _json_report(cfg, rows)
    else:
        text = _flat_csv(rows)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if cfg.fmt == "csv" and grids and cfg.out:
        stem = cfg.out[:-4] if cfg.out.endswith(".csv") else cfg.out
        for (alpha, n), points in grids.items():
            path = f"{stem}_alpha{alpha:g}_n{n}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_grid_csv(points))


def run(cfg: RunConfig) -> int:
    """Execute a campaign and write its report; returns the exit code."""
    if cfg.command not in _RUNNERS:
        return EXIT_USAGE
    try:
        rows, grids = _RUNNERS[cfg.command](cfg)
    except ArithmeticError as exc:  # DivergenceError, or an overflow on huge inputs
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


if __name__ == "__main__":
    sys.exit(main())

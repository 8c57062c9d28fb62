"""Per-layer tracing of fraceq from outside the package.

``install`` wraps every public function of each ``fraceq`` module and
rebinds the wrapper wherever the original is referenced: the defining
module, every ``fraceq`` module that imported it by name, and dict
values such as ``suite.CRITERIA``.  No file of the package changes, and
``uninstall`` puts every original back.

The ``Tracer`` keeps a stack of open frames, so each span's self time
(its duration minus the time covered by its child spans) is exact.  The
integrand passed to ``numerics.integrate_interval`` gets a frame of its
own, which splits the quadrature kernel's time from the caller's
integrand.  Integrand frames are counted but not stored as spans: there
are millions of them.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("numerics", "distributions", "fracops", "equilibrium", "order_mvt",
          "taylor", "actuarial", "suite", "cli")

INTEGRAND = "numerics.integrand"
GK15_POINTS = 15
UPM = "distributions.upper_partial_moment"
UPM_PATHS = ("closed", "quad_pos", "quad_neg")

SPAN_CAP = 100_000  # spans kept in memory per pass; later ones are only counted


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.case_id: int | None = None
        self.criterion: str | None = None  # the suite criterion running, if any
        # open frames: [name, start, child_time, span_id, parent span id];
        # the parent is the nearest enclosing frame that is not an integrand
        self._stack: list[list] = []
        self._active: Counter = Counter()
        self._next_id = 0
        self.spans: list[tuple] = []  # (id, name, start, end, parent_id, case_id)
        self.spans_total = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)  # outermost activations only
        self.case_s: list[float] = []  # duration of each cli.run call
        self.integrand_evals = 0
        self.panels_per_call: list[int] = []
        self.panels_by_criterion: Counter = Counter()
        self.truncation_max = 0.0
        self.nonconverged = 0
        self.upm_calls: Counter = Counter()
        self.upm_s: defaultdict = defaultdict(float)
        self.fm_keys: set = set()

    # -- frames -----------------------------------------------------------

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._active[name] += 1
        parent = None
        if self._stack:
            top = self._stack[-1]
            parent = top[4] if top[0] == INTEGRAND else top[3]
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id, parent])

    def exit(self) -> float:
        """Close the innermost frame and return its duration."""
        end = time.perf_counter()
        name, start, child, span_id, parent_id = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self._active[name] -= 1
        if not self._active[name]:
            self.incl_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if name != INTEGRAND:
            self.spans_total += 1
            if len(self.spans) < SPAN_CAP:
                self.spans.append((span_id, name, start, end, parent_id, self.case_id))
        return duration

    def outermost(self, name: str) -> bool:
        return self._active[name] == 1

    # -- derived metrics --------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        prefix = f"{layer}."
        return sum(v for k, v in self.self_s.items()
                   if k.startswith(prefix) and k != INTEGRAND)

    def counts(self) -> dict:
        """The exact, machine-independent counts of the pass."""
        return {"integrand_evals": self.integrand_evals,
                "panels_per_call": list(self.panels_per_call),
                "panels_by_criterion": dict(self.panels_by_criterion),
                "calls": dict(self.calls),
                "upm_calls": dict(self.upm_calls),
                "fm_distinct": len(self.fm_keys),
                "nonconverged": self.nonconverged,
                "truncation_max": self.truncation_max}


# ---------------------------------------------------------------------------
# wrappers

def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _generic(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.calls[name] += 1
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return traced


def _cli_run(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.calls[name] += 1
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.case_s.append(tracer.exit())
    return traced


def _integrate_interval(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(f, a, b, *args, **kwargs):
        if b < a:
            # the kernel swaps the limits and calls itself (and this
            # wrapper) again; count that call once
            return fn(f, a, b, *args, **kwargs)
        evals = [0]

        def integrand(x):
            evals[0] += 1
            tracer.enter(INTEGRAND)
            try:
                return f(x)
            finally:
                tracer.exit()

        tracer.calls[name] += 1
        tracer.enter(name)
        try:
            res = fn(integrand, a, b, *args, **kwargs)
        finally:
            tracer.exit()
            panels = evals[0] // GK15_POINTS
            tracer.integrand_evals += evals[0]
            tracer.panels_per_call.append(panels)
            if tracer.criterion is not None:
                tracer.panels_by_criterion[tracer.criterion] += panels
        if not res.converged:
            tracer.nonconverged += 1
        return res
    return traced


def _integrate_semi_infinite(tracer: Tracer, name: str, fn):
    inner = _generic(tracer, name, fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        res = inner(*args, **kwargs)
        if not res.converged:
            tracer.nonconverged += 1
        if res.truncation_point is not None:
            tracer.truncation_max = max(tracer.truncation_max, res.truncation_point)
        return res
    return traced


def _criterion(tracer: Tracer, name: str, fn):
    inner = _generic(tracer, name, fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.criterion = name
        try:
            return inner(*args, **kwargs)
        finally:
            tracer.criterion = None
    return traced


def _upm_path(X, s: float) -> str:
    """Which branch of upper_partial_moment a call takes."""
    if s == 0.0 or X.closed_form_partial is not None:
        return "closed"
    return "quad_pos" if s > 0.0 else "quad_neg"


def _upper_partial_moment(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        path = _upm_path(_arg(args, kwargs, 0, "X"), _arg(args, kwargs, 2, "s"))
        tracer.calls[name] += 1
        tracer.upm_calls[path] += 1
        tracer.enter(name)
        outermost = tracer.outermost(name)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = tracer.exit()
            if outermost:
                tracer.upm_s[path] += duration
    return traced


def _fractional_moment(tracer: Tracer, name: str, fn):
    inner = _generic(tracer, name, fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        # models compare by identity of their closures, so the key set
        # also keeps every model alive for the length of the pass
        tracer.fm_keys.add((_arg(args, kwargs, 0, "X"), _arg(args, kwargs, 1, "s")))
        return inner(*args, **kwargs)
    return traced


_SPECIAL = {
    "numerics.integrate_interval": _integrate_interval,
    "numerics.integrate_semi_infinite": _integrate_semi_infinite,
    UPM: _upper_partial_moment,
    "distributions.fractional_moment": _fractional_moment,
    "cli.run": _cli_run,
}


def public_functions(module) -> dict:
    """Module-level functions defined in ``module`` without a leading underscore."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


def _fraceq_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fraceq" or name.startswith("fraceq."))]


def install(tracer: Tracer) -> list:
    """Wrap and rebind; returns the undo list for ``uninstall``."""
    wrapped = {}  # id(original) -> wrapper
    for layer in LAYERS:
        module = sys.modules[f"fraceq.{layer}"]
        for fname, fn in public_functions(module).items():
            name = f"{layer}.{fname}"
            if getattr(fn, "__wrapped__", None) is not None:
                raise RuntimeError(f"{name} is already wrapped")
            if name.startswith("suite.criterion_"):
                make = _criterion
            else:
                make = _SPECIAL.get(name, _generic)
            wrapped[id(fn)] = (fn, make(tracer, name, fn))
    undo = []
    for module in _fraceq_modules():
        containers = [vars(module)]
        containers += [v for v in vars(module).values() if isinstance(v, dict)]
        for container in containers:
            for key, value in list(container.items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    container[key] = hit[1]
                    undo.append((container, key, value))
    return undo


def uninstall(undo: list) -> None:
    for container, key, original in reversed(undo):
        container[key] = original


# ---------------------------------------------------------------------------
# per-layer metrics

def _quantile(values: list, q: float):
    """Nearest-rank quantile (0 for an empty list)."""
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def criterion_numbers() -> dict:
    """Span name -> criterion number, from suite.CRITERIA."""
    from fraceq import suite
    out = {}
    for number, fn in suite.CRITERIA.items():
        base = getattr(fn, "__wrapped__", fn)
        out[f"suite.{base.__name__}"] = number
    return out


# (metric name, unit, better) in report order; the values come from
# layer_metrics below.
PER_LAYER = [
    ("numerics.integrate_interval.calls", "count", "lower"),
    ("numerics.panels", "count", "lower"),
    ("numerics.panels_per_call.p50", "count", "lower"),
    ("numerics.panels_per_call.max", "count", "lower"),
    ("numerics.integrate_semi_infinite.calls", "count", "lower"),
    ("numerics.truncation_max", "abscissa", "lower"),
    ("numerics.nonconverged", "count", "lower"),
    ("numerics.integrand.self_s", "s", "lower"),
    ("numerics.us_per_panel", "us", "lower"),
]
PER_LAYER += [(f"{UPM}.calls.{p}", "count", "lower") for p in UPM_PATHS]
PER_LAYER += [(f"{UPM}.s.{p}", "s", "lower") for p in UPM_PATHS]
PER_LAYER += [
    ("distributions.fractional_moment.calls", "count", "lower"),
    ("distributions.fractional_moment.distinct_ratio", "ratio", "higher"),
]
TIMED_FUNCTIONS = (
    "fracops.weyl_integral", "fracops.weyl_of_function", "fracops.power_expectation",
    "equilibrium.eq_density", "equilibrium.eq_survival_recursive",
    "order_mvt.mvt_verify", "order_mvt.check_survival_bounded_order",
    "order_mvt.z_density", "taylor.rl_taylor_expectation",
    "taylor.caputo_taylor_expectation", "actuarial.deductible_mvt",
)
for _fn in TIMED_FUNCTIONS:
    PER_LAYER += [(f"{_fn}.calls", "count", "lower"), (f"{_fn}.s", "s", "lower")]
PER_LAYER += [(f"suite.criterion_{k}.s", "s", "lower") for k in range(1, 14)]
PER_LAYER += [(f"suite.criterion_{k}.panels", "count", "lower") for k in range(1, 14)]
PER_LAYER += [
    ("cli.parse_args.s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("cli.case_ms.p50", "ms", "lower"),
    ("cli.case_ms.p90", "ms", "lower"),
    ("cli.case_ms.n", "count", "higher"),
]
PER_LAYER += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
PER_LAYER += [
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]


def layer_metrics(tracer: Tracer, report_bytes: int) -> dict:
    """Per-layer values of one traced pass, keyed by PER_LAYER names."""
    panels = sum(tracer.panels_per_call)
    kernel_s = tracer.self_s["numerics.integrate_interval"]
    out = {
        "numerics.integrate_interval.calls": tracer.calls["numerics.integrate_interval"],
        "numerics.panels": panels,
        "numerics.panels_per_call.p50": _quantile(tracer.panels_per_call, 0.5),
        "numerics.panels_per_call.max": max(tracer.panels_per_call, default=0),
        "numerics.integrate_semi_infinite.calls":
            tracer.calls["numerics.integrate_semi_infinite"],
        "numerics.truncation_max": tracer.truncation_max,
        "numerics.nonconverged": tracer.nonconverged,
        "numerics.integrand.self_s": tracer.self_s[INTEGRAND],
        "numerics.us_per_panel": 1e6 * kernel_s / panels if panels else 0.0,
    }
    for p in UPM_PATHS:
        out[f"{UPM}.calls.{p}"] = tracer.upm_calls[p]
        out[f"{UPM}.s.{p}"] = tracer.upm_s[p]
    fm_calls = tracer.calls["distributions.fractional_moment"]
    out["distributions.fractional_moment.calls"] = fm_calls
    out["distributions.fractional_moment.distinct_ratio"] = (
        len(tracer.fm_keys) / fm_calls if fm_calls else 0.0)
    for fn in TIMED_FUNCTIONS:
        out[f"{fn}.calls"] = tracer.calls[fn]
        out[f"{fn}.s"] = tracer.incl_s[fn]
    numbers = criterion_numbers()
    for k in range(1, 14):
        out[f"suite.criterion_{k}.s"] = 0.0
        out[f"suite.criterion_{k}.panels"] = 0
    for span_name, k in numbers.items():
        out[f"suite.criterion_{k}.s"] = tracer.incl_s[span_name]
        out[f"suite.criterion_{k}.panels"] = tracer.panels_by_criterion[span_name]
    case_ms = [1e3 * d for d in tracer.case_s]
    out["cli.parse_args.s"] = tracer.incl_s["cli.parse_args"]
    out["cli.run.self_s"] = tracer.self_s["cli.run"]
    out["cli.report_bytes"] = report_bytes
    out["cli.case_ms.p50"] = statistics.median(case_ms) if case_ms else 0.0
    out["cli.case_ms.p90"] = _quantile(case_ms, 0.9)
    out["cli.case_ms.n"] = len(case_ms)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.layer_self_s(layer)
    out["trace.spans"] = tracer.spans_total
    return out

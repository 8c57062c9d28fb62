"""Benchmark for fraceq: run one workload's case list and print its metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each case is one ``fraceq`` command, run in this process through
``cli.parse_args`` and ``cli.run`` with its report captured.  Load is a
closed loop: one client, one thread, and each case starts when the
previous one returns.  A pass runs the whole case list once; passes
repeat until ``--seconds`` is used up.

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics; its times are rescaled to a machine on which the reference loop
(reference.py) takes 1 ms, and the times as measured are printed too.  With ``--trace 1`` it alternates untraced and traced passes
(see tracing.py) and reports the per-layer metrics, the tracing overhead
among them.  Every pass is checked: each case exits 0, every report row
passes, and every pass produces the same report digest.  The last line
of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import cases as case_lists
import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 12  # timed probes, after one untimed probe that warms the file cache
SETUP_FASTEST = 3  # setup_s is the mean of this many fastest probes
MIN_PASSES = 3  # an untraced run times at least this many passes
TIME_UNITS = ("s", "ms", "us")
PROBE_TIMEOUT_S = 60.0

# (name, unit); the BENCHMARK.json end_to_end list, in order
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("margin_log10_median", "log10"),
    ("margin_log10_fixed_min", "log10"),
]

# reported by a traced run besides tracing.PER_LAYER: (name, unit, better)
TRACE_EXTRAS = [
    ("fail_frac", "ratio", "lower"),
    ("margin_log10_min", "log10", "higher"),
]

# Checks whose pass rule is |residual| <= tolerance; the margin metrics
# are taken over these rows only.  Informational rows (characterize,
# order) and rules of another form are left out.
MARGIN_CHECKS = frozenset({
    # cli commands
    "eqdist_direct_vs_recursive", "taylor_residual", "mvt_residual",
    "deductible_mvt", "exponential_ratio_check",
    # suite criteria
    "exponential_fixed_point", "weyl_semigroup",
    "equilibrium_direct_vs_recursive", "equilibrium_moment_vs_quadrature",
    "equilibrium_moment_exponential_gamma", "fractional_moment_identity",
    "gamma_cancellation_exact_one", "z_mean_closed_form", "z_mean_quadrature",
    "z_mixture_identity", "mean_location_identity", "ratio_independence_spread",
    "ratio_reference_value", "ratio_independence_fractional",
    "deductible_z_is_exponential", "caputo_residual", "alpha_one_agreement",
    "density_mass", "tail_lemma_truncation",
})
_TINY = 1e-300


@dataclass
class PassResult:
    seconds: float
    attempted: int
    failed: int
    digest: str
    report_bytes: int
    margins: list  # per case: its rows' margins, or None if the case failed
    loop_samples: list  # reference loop times taken during the pass


def _run_case(cli, argv: list) -> tuple[int | None, str]:
    """Exit code (None for an uncaught exception) and captured report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.run(cli.parse_args(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # counted as a failed case, never fatal
            rc = None
    return rc, out.getvalue()


def _case_margins(report: str) -> list | None:
    """Margins of the report's rows, or None if any row failed."""
    try:
        rows = json.loads(report)["results"]
    except (ValueError, KeyError, TypeError):
        return None
    if not all(row.get("pass") is True for row in rows):
        return None
    return [math.log10(row["tolerance"] / max(abs(row["residual"]), _TINY))
            for row in rows
            if row["check"] in MARGIN_CHECKS and row["tolerance"] > 0]


def run_pass(cli, cases: list, tracer=None, sampler=None) -> PassResult:
    """One timed pass over ``cases``; checking happens after the clock stops.

    With a reference.Sampler active, the time its loop took during the
    pass is subtracted and the loop times are kept with the result.
    """
    outputs = []
    first_sample = len(sampler.samples) if sampler else 0
    start = time.perf_counter()
    for case_id, argv in enumerate(cases):
        if tracer is not None:
            tracer.case_id = case_id
        outputs.append(_run_case(cli, argv))
    seconds = time.perf_counter() - start
    loop_samples = sampler.samples[first_sample:] if sampler else []
    seconds -= sum(loop_samples)
    digest = hashlib.sha256()
    margins = []
    for rc, report in outputs:
        digest.update(report.encode())
        digest.update(b"\0")
        margins.append(_case_margins(report) if rc == 0 else None)
    return PassResult(seconds, len(cases), margins.count(None), digest.hexdigest(),
                      sum(len(r) for _, r in outputs), margins, loop_samples)


def _pooled(case_margins: list) -> list:
    return [m for case in case_margins if case for m in case]


def setup_probe(workload: str, seed: int, sampler) -> tuple[float, float]:
    """Set-up time of one fresh interpreter: (as measured, rescaled).

    It is timed from process start to the probe's 'ready' line, less the
    time the probe spent timing the reference loop and the time the
    Sampler's loop took in this process meanwhile.  It is rescaled by the
    probe's own loop time.
    """
    first_sample = len(sampler.samples)
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"),
                           workload, str(seed)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=PROBE_TIMEOUT_S)
    elapsed -= sum(sampler.samples[first_sample:])
    words = line.split()
    if len(words) != 3 or words[0] != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    raw = elapsed - float(words[1])
    return raw, raw * reference.NOMINAL_S / float(words[2])


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(cli, workload: str, seed: int, cases: list, seconds: float) -> dict:
    """Time passes for ``seconds``, with the set-up probes spread between them."""
    n_fixed = len(case_lists.FIXED[workload])
    setup_raw, setup = [], []
    passes: list[PassResult] = []

    def probe():
        raw, rescaled = setup_probe(workload, seed, sampler)
        setup_raw.append(raw)
        setup.append(rescaled)

    with reference.Sampler() as sampler:
        setup_probe(workload, seed, sampler)  # warms the file cache; not counted
        start = time.perf_counter()
        while True:
            passes.append(run_pass(cli, cases, sampler=sampler))
            while len(setup) < SETUP_PROBES * min(1.0, (time.perf_counter() - start)
                                                  / seconds):
                probe()
            elapsed = time.perf_counter() - start
            if (len(passes) >= MIN_PASSES
                    and elapsed + statistics.median(p.seconds for p in passes) > seconds):
                break
        while len(setup) < SETUP_PROBES:
            probe()
    walls = [p.seconds for p in passes]
    # rescale each pass by the loop times taken during it
    rescaled = [p.seconds * reference.NOMINAL_S
                / statistics.median(p.loop_samples or sampler.samples) for p in passes]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    margins = _pooled(passes[0].margins)
    fixed_margins = _pooled(passes[0].margins[:n_fixed])
    values = {
        # start-up noise only adds time, so the fastest probes are the steadiest
        "setup_s": statistics.mean(sorted(setup)[:SETUP_FASTEST]),
        "wall_s": statistics.median(rescaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "margin_log10_median": statistics.median(margins) if margins else 0.0,
        "margin_log10_fixed_min": min(fixed_margins, default=0.0),
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    loop_ms = 1e3 * statistics.median(sampler.samples)
    print(f"reference loop {loop_ms:.4f} ms (median of {len(sampler.samples)}); "
          f"times below are rescaled to {1e3 * reference.NOMINAL_S:g} ms")
    print(f"setup_s {values['setup_s']:.4f} s (mean of the fastest {SETUP_FASTEST} of "
          f"{len(setup)} fresh interpreters; median {statistics.median(setup):.4f} s; "
          f"as measured min {min(setup_raw):.4f} s, median "
          f"{statistics.median(setup_raw):.4f} s)")
    print(f"wall_s {values['wall_s']:.4f} s (median of {len(walls)} passes; as measured "
          f"median {statistics.median(walls):.4f} s, min {min(walls):.4f} s, "
          f"max {max(walls):.4f} s)")
    print(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
    print(f"fail_frac {failed / attempted:.4f} ({failed} of {attempted} cases)")
    print(f"margin_log10_min {min(margins, default=0.0):.4f} log10 "
          f"(over {len(margins)} rows)")
    print(f"margin_log10_median {values['margin_log10_median']:.4f} log10")
    print(f"margin_log10_fixed_min {values['margin_log10_fixed_min']:.4f} log10 "
          f"(over {len(fixed_margins)} rows of the {n_fixed} fixed cases)")
    consistent = len({p.digest for p in passes}) == 1
    if not consistent:
        print("report digests differ between passes", file=sys.stderr)
    return {"correct": failed == 0 and consistent, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def traced_run(cli, cases: list, seconds: float) -> dict:
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    per_pass = []  # layer metrics of each traced pass
    counts = []  # exact counts of each traced pass
    start = time.perf_counter()
    while True:
        plain.append(run_pass(cli, cases))
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            traced.append(run_pass(cli, cases, tracer))
        finally:
            tracing.uninstall(undo)
        per_pass.append(tracing.layer_metrics(tracer, traced[-1].report_bytes))
        counts.append(tracer.counts())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(traced) > seconds:
            break
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    overhead = (statistics.median(p.seconds for p in traced)
                / statistics.median(p.seconds for p in plain) - 1.0)
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_frac":
            value = overhead
        elif unit in TIME_UNITS:
            value = statistics.median(m[name] for m in per_pass)
        else:  # a count, the same on every pass (checked below)
            value = per_pass[0][name]
        metrics[name] = _metric(value, unit)
    everything = plain + traced
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    extras = {"fail_frac": failed / attempted,
              "margin_log10_min": min(_pooled(plain[0].margins), default=0.0)}
    for name, unit, _ in TRACE_EXTRAS:
        metrics[name] = _metric(extras[name], unit)
    repeat = all(c == counts[0] for c in counts)
    same_reports = len({p.digest for p in everything}) == 1
    if not repeat:
        print("traced counts differ between passes", file=sys.stderr)
    if not same_reports:
        print("traced and untraced reports differ", file=sys.stderr)
    for name in ("numerics.panels", "numerics.integrate_interval.calls",
                 "numerics.panels_per_call.p50", "numerics.panels_per_call.max",
                 "cli.case_ms.p50", "cli.case_ms.p90", "cli.case_ms.n",
                 "trace.overhead_frac", "fail_frac", "margin_log10_min"):
        print(f"{name} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(f"{len(traced)} traced and {len(plain)} untraced passes")
    return {"correct": failed == 0 and repeat and same_reports,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=case_lists.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fraceq" / "__init__.py").is_file():
        print(f"fraceq sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from fraceq import cli

    if args.workload not in case_lists.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(case_lists.WORKLOADS)}")
    cases = case_lists.build_cases(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}: {len(cases)} cases, "
          f"closed loop, 1 client")
    if args.trace:
        result = traced_run(cli, cases, args.seconds)
    else:
        result = untraced_run(cli, args.workload, args.seed, cases, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

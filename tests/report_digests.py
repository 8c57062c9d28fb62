"""Fingerprints of every benchmark workload's reports, for checking that a
change leaves them byte-identical.

usage: python3 tests/report_digests.py [--seeds 0,1,2]

For each workload and seed it runs one pass of the benchmark's case list
(``perfbench/cases.py``) in this process, through ``perfbench/run.py``'s
``run_pass``, and prints:

- the failed cases, by index and argv;
- the pass's report digest (the first 16 hex digits of its sha256);
- for each ``eqdist`` case, the same digest of its grid points (t, direct,
  oracle), which moves whenever an oracle value moves, even where the
  report, which keeps only each row's worst gap, does not, and the case's
  Kronrod integrand evaluations split into the direct side and the
  oracle side (those made inside ``equilibrium.eq_survival_recursive``);
- the Kronrod integrand evaluations the pass made and its panels of
  either rule, counted by ``kronrod_panels.counting_panels``;
- the median accuracy margin over all cases and the smallest one over the
  fixed cases, in decades, as the benchmark computes them.

It then prints the sha256 of ``fraceq suite``'s standard output.  It
exits 1 if any case failed, 0 otherwise; it sets no threshold on any
figure.  ``tests/data/report_digests.txt`` holds its output at seeds 0-3
without the first (``python X.Y.Z``) line, and CI fails on any
difference from it: a change that moves values on purpose regenerates
that file with

    python3 tests/report_digests.py --seeds 0,1,2,3 | grep -v '^python ' \
        > tests/data/report_digests.txt

The file has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import statistics
import sys
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import cases  # noqa: E402  (perfbench's case lists)
import run  # noqa: E402  (perfbench's pass runner)
from fraceq import cli, equilibrium  # noqa: E402
from kronrod_panels import counting_panels, evaluations  # noqa: E402


def _counted_pass(cases_list: list) -> tuple[run.PassResult, Counter, dict, dict]:
    """One pass, with every Kronrod panel counted and every eqdist grid hashed.

    The panels come back as {points per panel: panels}, the grids as
    {case index: sha256 of its grid points}, and the eqdist integrand
    evaluations as {case index: [direct side, oracle side]}.
    """
    grids, sides = {}, {}
    side, in_oracle = None, False  # the running eqdist case's [direct, oracle]
    direct_vs_recursive = cli.direct_vs_recursive
    recursive = equilibrium.eq_survival_recursive
    case = types.SimpleNamespace(case_id=None)  # run_pass numbers the cases on it

    def on_panel(points):
        if side is not None:
            side[in_oracle] += points

    def oracle_side(*args):
        nonlocal in_oracle
        in_oracle = True
        try:
            return recursive(*args)
        finally:
            in_oracle = False

    def hashed(*args):
        nonlocal side
        side = sides.setdefault(case.case_id, [0, 0])
        try:
            row, points = direct_vs_recursive(*args)
        finally:
            side = None
        digest = grids.setdefault(case.case_id, hashlib.sha256())
        for t, direct, oracle, _ in points:
            digest.update(f"{t!r} {direct!r} {oracle!r}\n".encode())
        return row, points

    cli.direct_vs_recursive = hashed
    equilibrium.eq_survival_recursive = oracle_side
    try:
        with counting_panels(on_panel) as panels:
            result = run.run_pass(cli, cases_list, tracer=case)
    finally:
        cli.direct_vs_recursive = direct_vs_recursive
        equilibrium.eq_survival_recursive = recursive
    return result, panels, grids, sides


def _suite_stdout_sha256() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["suite"])
    if code != cli.EXIT_OK:
        raise SystemExit(f"fraceq suite exited {code}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0",
                        help="comma list of seeds (default 0)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    print(f"python {sys.version.split()[0]}")
    any_failed = False
    for workload in cases.WORKLOADS:
        n_fixed = len(cases.FIXED[workload])
        for seed in seeds:
            case_list = cases.build_cases(workload, seed)
            result, panels, grids, sides = _counted_pass(case_list)
            margins = run._pooled(result.margins)
            fixed = run._pooled(result.margins[:n_fixed])
            median = statistics.median(margins) if margins else 0.0
            print(f"{workload} seed {seed}: {result.attempted} cases, "
                  f"{result.failed} failed, digest {result.digest[:16]}, "
                  f"evaluations {evaluations(panels)} in {panels[15]} + {panels[21]} "
                  f"panels of 15 + 21 points, margin median {median:.4f}, "
                  f"fixed min {min(fixed, default=0.0):.4f}")
            for index, digest in grids.items():
                direct, oracle = sides[index]
                print(f"  eqdist case {index} grid digest {digest.hexdigest()[:16]}, "
                      f"evaluations {direct} direct + {oracle} oracle")
            for index, margin in enumerate(result.margins):
                if margin is None:
                    any_failed = True
                    print(f"  failed case {index}: {' '.join(case_list[index])}")
    print(f"fraceq suite stdout sha256 {_suite_stdout_sha256()}")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())

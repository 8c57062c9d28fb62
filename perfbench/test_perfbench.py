"""Tests of the benchmark itself: case lists, tracer and failure exit.

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

import contextlib
import io
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from fraceq import cli, numerics  # noqa: E402

# a few quick cases that reach every kind of traced call: nested
# semi-infinite quadrature, both quadrature paths of upper_partial_moment,
# closed forms and report building
SMALL = [
    ["eqdist", "--dist", '{"kind":"weibull","params":{"k":2,"lambda":1}}',
     "--alpha", "0.5", "--n", "1,2", "--grid", "8"],
    ["eqdist", "--dist", '{"kind":"numeric","params":{"knots":[[0,1],[1,0.37],[4,0.018]]}}',
     "--alpha", "0.5", "--n", "1", "--grid", "8"],
    ["characterize", "--dist", '{"kind":"weibull","params":{"k":2,"lambda":1}}',
     "--alpha", "0.5", "--n", "1"],
] + cases.build_cases("closed-form-mix", cases.DEFAULT_SEED)[:12]


def traced_pass(case_list):
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        result = run.run_pass(cli, case_list, tracer)
    finally:
        tracing.uninstall(undo)
    return tracer, result


class CaseListTest(unittest.TestCase):
    def test_same_seed_same_cases(self):
        for workload in cases.WORKLOADS:
            self.assertEqual(cases.build_cases(workload, 7), cases.build_cases(workload, 7))

    def test_seed_changes_generated_cases(self):
        for workload in ("eqdist-oracle", "closed-form-mix"):
            self.assertNotEqual(cases.build_cases(workload, 1),
                                cases.build_cases(workload, 2))

    def test_fixed_cases_open_every_list_whatever_the_seed(self):
        for workload in cases.WORKLOADS:
            fixed = cases.FIXED[workload]
            self.assertGreater(len(fixed), 0)
            for seed in (0, 1, 99):
                self.assertEqual(cases.build_cases(workload, seed)[:len(fixed)], fixed)

    def test_mix_size_and_commands(self):
        mix = cases.build_cases("closed-form-mix", cases.DEFAULT_SEED)
        self.assertGreaterEqual(len(mix), 100)
        self.assertEqual({argv[0] for argv in mix},
                         {"taylor", "mvt", "order", "actuarial", "characterize"})

    def test_g_exponents_exceed_alpha_minus_one(self):
        # mvt and actuarial reject g terms x^e with e <= alpha - 1 (for
        # example x^0.5 at alpha = 2), so the generator must never emit one
        for seed in range(50):
            for argv in cases.build_cases("closed-form-mix", seed):
                if argv[0] not in ("mvt", "actuarial"):
                    continue
                alpha = float(argv[argv.index("--alpha") + 1])
                for i, arg in enumerate(argv):
                    if arg == "--g":
                        for term in json.loads(argv[i + 1]):
                            self.assertGreater(term["exp"], alpha - 1.0, argv)

    def test_default_seed_never_fails(self):
        for workload in cases.WORKLOADS:
            with self.subTest(workload=workload):
                case_list = cases.build_cases(workload, cases.DEFAULT_SEED)
                result = run.run_pass(cli, case_list)
                self.assertEqual(result.failed, 0)
                self.assertEqual(result.attempted, len(case_list))
                # margin_log10_fixed_min needs margin rows among the fixed cases
                fixed = run._pooled(result.margins[:len(cases.FIXED[workload])])
                self.assertGreater(min(fixed), 0.0)


class TracerTest(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        first, _ = traced_pass(SMALL)
        second, _ = traced_pass(SMALL)
        self.assertEqual(first.counts(), second.counts())
        self.assertGreater(sum(first.panels_per_call), 0)

    def test_panels_match_integrand_evaluations_and_kernel_panels(self):
        kernel_panels = [0]
        gk15 = numerics._gk15

        def counting_gk15(*args):
            kernel_panels[0] += 1
            return gk15(*args)

        numerics._gk15 = counting_gk15
        try:
            tracer, _ = traced_pass(SMALL)
        finally:
            numerics._gk15 = gk15
        metrics = tracing.layer_metrics(tracer, 0)
        self.assertEqual(metrics["numerics.panels"] * tracing.GK15_POINTS,
                         tracer.integrand_evals)
        self.assertEqual(metrics["numerics.panels"], kernel_panels[0])

    def test_every_upper_partial_moment_path_is_seen(self):
        tracer, _ = traced_pass(SMALL)
        for path in tracing.UPM_PATHS:
            self.assertGreater(tracer.upm_calls[path], 0, path)

    def test_traced_report_matches_untraced(self):
        plain = run.run_pass(cli, SMALL)
        _, traced = traced_pass(SMALL)
        self.assertEqual(plain.failed, 0)
        self.assertEqual(plain.digest, traced.digest)

    def test_uninstall_restores_every_function(self):
        traced_pass(SMALL[:1])
        for layer in tracing.LAYERS:
            module = sys.modules[f"fraceq.{layer}"]
            for name, fn in tracing.public_functions(module).items():
                self.assertFalse(hasattr(fn, "__wrapped__"), f"{layer}.{name}")
        for fn in sys.modules["fraceq.suite"].CRITERIA.values():
            self.assertFalse(hasattr(fn, "__wrapped__"))

    def test_spans_link_to_their_parents(self):
        tracer, result = traced_pass(SMALL[:3])
        self.assertEqual(result.failed, 0)
        self.assertEqual(len(tracer.spans), tracer.spans_total)
        ids = {span[0] for span in tracer.spans}
        for span_id, _, start, end, parent, case_id in tracer.spans:
            self.assertTrue(parent is None or parent in ids)
            self.assertLessEqual(start, end)
            self.assertIn(case_id, range(3))
        roots = [span[1] for span in tracer.spans if span[4] is None]
        self.assertEqual(roots, ["cli.parse_args", "cli.run"] * 3)

    def test_traced_run_reports_every_per_layer_metric(self):
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.traced_run(cli, SMALL[:3], 0.0)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]),
                         {name for name, _, _ in tracing.PER_LAYER + run.TRACE_EXTRAS})

    def test_criteria_are_timed_separately(self):
        names = tracing.criterion_numbers()
        self.assertEqual(sorted(names.values()), list(range(1, 14)))


class ReferenceTest(unittest.TestCase):
    def test_sampler_times_the_loop_during_a_pass(self):
        before = signal.getsignal(signal.SIGALRM)
        with reference.Sampler() as sampler:
            result = run.run_pass(cli, SMALL[:1], sampler=sampler)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertGreater(len(result.loop_samples), 0)
        self.assertEqual(result.loop_samples, sampler.samples)
        self.assertGreater(result.seconds, 0.0)
        self.assertEqual(result.failed, 0)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_lists_match_the_code(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                         tracing.PER_LAYER + run.TRACE_EXTRAS)
        self.assertEqual([w["name"] for w in doc["workloads"]], list(cases.WORKLOADS))


class MissingSourceTest(unittest.TestCase):
    def test_exits_nonzero_without_printing_a_result(self):
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            # the benchmark's own files only: no fraceq sources
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("tmp*", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "suite",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

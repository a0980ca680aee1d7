#!/usr/bin/env python3
"""Tests of the benchmark itself, at the tiny size.

    python3 perfbench/test_perfbench.py

Builds mailbench once through run.py, then checks that every workload
prints exactly the metric names of BENCHMARK.json, that the
deterministic outcome repeats exactly (also with randomised hash
tables), that the traced run simulates the same thing as the untraced
one, that the fault schedule does not vary with the seed, that the
workloads isolate the layers they claim to, that each correctness check
can fail and makes the run exit non-zero, and that the benchmark fails
without the simulator's sources.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def mailbench(workload, mode="untraced", env=None, seed=3):
    out = subprocess.run(
        [run.EXE, "--workload", workload, "--seed", str(seed), "--mode", mode,
         "--size", "tiny"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=run.OUT_DIR, **(env or {})))
    return json.loads(out.stdout)


def run_py(*args, cwd=run.ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], capture_output=True,
                          text=True, cwd=cwd)


def deterministic(report):
    """Everything in a mailbench report that does not depend on the host."""
    counts = {k: v for k, v in report.get("layers", {}).items() if isinstance(v, int)}
    return (report["digest"], report["events"], report["submitted"], report["failed"],
            json.dumps(report["modelled"], sort_keys=True), counts)


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(run.OUT_DIR, exist_ok=True)
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.traced = {w: mailbench(w, "traced") for w in run.WORKLOADS}

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))

    def test_each_workload_prints_exactly_the_listed_metrics(self):
        for workload in run.WORKLOADS:
            for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_py("--workload", workload, "--seed", "3", "--seconds", "0",
                                  "--trace", trace, "--size", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in self.spec[section]}
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                     expected)

    def test_deterministic_counts_repeat_exactly(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = deterministic(mailbench(workload))
                self.assertEqual(first, deterministic(mailbench(workload)))
                self.assertEqual(first, deterministic(mailbench(workload, env={"OCAMLRUNPARAM": "R"})))

    def test_traced_counts_repeat_exactly(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                again = mailbench(workload, "traced", env={"OCAMLRUNPARAM": "R"})
                self.assertEqual(deterministic(self.traced[workload]), deterministic(again))

    def test_traced_run_simulates_the_untraced_outcome(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                untraced = mailbench(workload)
                traced = self.traced[workload]
                self.assertEqual(traced["digest"], untraced["digest"])
                self.assertEqual(traced["events"], untraced["events"])
                self.assertGreater(traced["probe_events"], 0)

    def test_seed_changes_the_inputs(self):
        self.assertNotEqual(mailbench("steady-syntax", seed=3)["digest"],
                            mailbench("steady-syntax", seed=4)["digest"])

    def test_fault_schedule_does_not_depend_on_the_seed(self):
        three = self.traced["campaign-syntax"]
        four = mailbench("campaign-syntax", "traced", seed=4)
        self.assertNotEqual(three["fault_schedule"], "none")
        self.assertEqual(three["fault_schedule"], four["fault_schedule"])
        self.assertEqual(three["layers"]["dsim.events.fault"],
                         four["layers"]["dsim.events.fault"])
        self.assertNotEqual(three["digest"], four["digest"])
        self.assertEqual(self.traced["steady-syntax"]["fault_schedule"], "none")

    def test_correctness_reports_each_bad_outcome(self):
        good = self.traced["campaign-syntax"]
        self.assertEqual(run.correctness([good], [copy.deepcopy(good)]), [])

        def problems(**changes):
            bad = copy.deepcopy(good)
            for key, value in changes.items():
                if key in bad["layers"]:
                    bad["layers"][key] = value
                else:
                    bad[key] = value
            return run.correctness([good], [good, bad])

        self.assertIn("delivery ledger violated", " ".join(problems(ledger_ok=False)))
        self.assertIn("1 messages failed", " ".join(problems(failed=1)))
        self.assertIn("unsettled", " ".join(problems(settled=good["submitted"] - 1)))
        self.assertIn("sim_digest differs", " ".join(problems(digest="0" * 32)))
        self.assertIn("modelled metrics differ", " ".join(problems(modelled={})))
        self.assertIn("count mail.replica.failovers differs", " ".join(
            problems(**{"mail.replica.failovers": good["layers"]["mail.replica.failovers"] + 1})))

    def test_incorrect_run_exits_non_zero(self):
        # run.py with one correctness problem injected.
        program = ("import sys, run; run.correctness = lambda untraced, traced: ['injected']; "
                   "sys.exit(run.main())")
        proc = subprocess.run(
            [sys.executable, "-c", program, "--workload", "steady-syntax", "--seed", "3",
             "--seconds", "0", "--trace", "0", "--size", "tiny"],
            capture_output=True, text=True, cwd=HERE)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("INCORRECT: injected", proc.stderr)
        self.assertFalse(json.loads(proc.stdout.strip().splitlines()[-1])["correct"])

    def test_workloads_isolate_their_layers(self):
        campaign, steady, roaming = (self.traced[w]["layers"] for w in run.WORKLOADS)
        for name in ("netsim.route_invalidations", "mail.replica.failovers"):
            self.assertGreater(campaign[name], 0, name)
            self.assertEqual(steady[name], 0, name)
        self.assertGreater(campaign["telemetry.windows"], 0)
        self.assertEqual(steady["telemetry.windows"], 0)
        self.assertEqual(roaming["telemetry.windows"], 0)
        self.assertGreater(roaming["mail.location.logins"], 0)
        self.assertGreater(roaming["gc.minor_words_per_event"],
                           5 * steady["gc.minor_words_per_event"])

    def test_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_py("--workload", "steady-syntax", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=tmp,
                          script=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

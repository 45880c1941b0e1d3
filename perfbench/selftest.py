#!/usr/bin/env python3
"""The benchmark's own tests, at a tiny instruction cap (about a minute).

    python3 perfbench/selftest.py

They check the promises README.md makes: every end-to-end metric prints
with its unit on every workload, the traced run prints every per-layer
metric and writes a Chrome trace, an injected wrong exit code counts as a
failed operation, the benchmark refuses to run without the repository's
sources, and the driver's sources use no entry point that the open
ROADMAP items retire.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CAP = ["--max-insts", "20000"]

# Metrics whose source a later ROADMAP item removes; run.py omits them
# rather than fail once that lands.
MAY_BE_GONE = {"runner.trace_cache.hits", "runner.trace_cache.misses"}

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(workload, trace, extra=(), cwd=ROOT):
    """Run run.py; returns (exit code, last-line JSON or None, output)."""
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace)] + CAP + list(extra)
    r = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=900)
    last = None
    lines = r.stdout.strip().splitlines()
    if lines:
        try:
            last = json.loads(lines[-1])
        except ValueError:
            pass
    return r.returncode, last, r.stdout + r.stderr


class StableEntryPoints(unittest.TestCase):
    FORBIDDEN = (
        r'#\s*include\s*"trace/trace_buffer\.h"',
        r'#\s*include\s*"runner/trace_cache\.h"',
        r'#\s*include\s*"service/json\.h"',
        r"\bsimulateReplay\b",
        r"\btraceCache\b",
    )

    def test_driver_sources_use_only_kept_entry_points(self):
        sources = [n for n in sorted(os.listdir(HERE))
                   if n.endswith((".cc", ".h"))]
        self.assertTrue(sources)
        for name in sources:
            with open(os.path.join(HERE, name)) as f:
                text = f.read()
            for pattern in self.FORBIDDEN:
                self.assertIsNone(re.search(pattern, text),
                                  "%s matches %s" % (name, pattern))


class Contract(unittest.TestCase):
    def test_one_command_prints_every_end_to_end_metric_with_its_unit(self):
        code, res, out = run_bench("all", 0)
        self.assertEqual(code, 0, out)
        self.assertTrue(res["correct"], out)
        self.assertEqual(res["failed"], 0)
        self.assertGreater(res["attempted"], 0)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        for w in SPEC["workloads"]:
            self.assertIn("== perfbench %s," % w["name"], out)
            for m in SPEC["end_to_end"]:
                got = res["metrics"].get(w["name"] + "/" + m["name"])
                self.assertIsNotNone(got, "%s: no %s" % (w["name"],
                                                          m["name"]))
                self.assertEqual(got["unit"], m["unit"])
                self.assertGreater(got["value"], 0, m["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(len(re.findall(r"\n  %s +\S+ %s\n" % (
                re.escape(m["name"]), re.escape(m["unit"])), out)),
                len(SPEC["workloads"]), m["name"])

    def test_traced_run_prints_layers_and_writes_a_chrome_trace(self):
        code, res, out = run_bench("fig13_sampled", 1)
        self.assertEqual(code, 0, out)
        self.assertTrue(res["correct"], out)
        for m in SPEC["per_layer"]:
            if m["name"] in MAY_BE_GONE and m["name"] not in res["metrics"]:
                continue
            got = res["metrics"].get(m["name"])
            self.assertIsNotNone(got, m["name"])
            self.assertEqual(got["unit"], m["unit"])
        self.assertIn("tracing overhead", out)
        path = os.path.join(ROOT, ".bench_build", "perfbench-traces",
                            "fig13_sampled-seed7.json")
        with open(path) as f:
            trace = json.load(f)
        layers = {e["cat"] for e in trace["traceEvents"]}
        for layer in ("frontc", "backend", "verify", "emu", "uarch",
                      "runner", "service"):
            self.assertIn(layer, layers)
        for e in trace["traceEvents"]:
            self.assertEqual(e["ph"], "X")
            self.assertGreaterEqual(e["dur"], 0)

    def test_wrong_exit_code_is_a_failed_operation(self):
        code, res, out = run_bench("fig13_detailed", 0,
                                   ["--expect-exit", "coremark=70"])
        self.assertNotEqual(code, 0)
        self.assertFalse(res["correct"])
        # coremark's 15 grid points (3 ISAs x 5 widths) in each of the
        # run's three passes, nothing else.
        self.assertEqual(res["failed"], 45, out)
        self.assertIn("coremark: exit code 71, recorded 70", out)

    def test_refuses_to_run_without_the_repository(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, res, out = run_bench("fig13_detailed", 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(res, out)


if __name__ == "__main__":
    unittest.main(verbosity=2)

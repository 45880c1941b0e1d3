#!/usr/bin/env python3
"""The repository benchmark: one command runs a workload and prints every
metric with its unit (README.md in this directory has the details).

    python3 perfbench/run.py --workload fig13_detailed --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The first run builds the driver (perfbench/CMakeLists.txt) into
.bench_build/perfbench. Each pass of a workload runs in a fresh driver
process, so the compile and trace caches start empty, as they do for
users. With --trace 0, at least three passes run, and more while the
next one would end less than half a pass past --seconds; the end-to-end
metrics are medians over them. With --trace 1, one untraced and one
traced pass run; the traced one writes a Chrome trace-event file (open it
at https://ui.perfetto.dev) and gives the per-layer metrics plus the
tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every
operation passed its check.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench-traces")
DRIVER = os.path.join(BUILD, "chperf")

WORKLOADS = ("fig13_detailed", "fig13_sampled")

# Passes per --trace 0 run at least. Host speed on a shared machine
# drifts and spikes by 10-30%; the median of three passes drops a spiked
# one, where the mean of two would carry half of it.
MIN_PASSES = 3

# Seconds a run may reach before it stops starting new passes; keeps
# every run inside its 180-second limit.
PASS_BUDGET_S = 150

# The paper's Fig 13 (Clockhands vs RISC-V, geomean %; speedup over
# STRAIGHT, %), printed beside the reproduction's fig13.* values.
PAPER_FIG13 = {
    "ch_vs_rv_pct": {"4f": 97.9, "6f": 97.3, "8f": 98.9, "12f": 100.0,
                     "16f": 101.6},
    "ch_vs_straight_pct": {"4f": 9.9, "6f": 7.6, "8f": 6.6, "12f": 6.5,
                           "16f": 7.2},
}

# The base of each ratio among the per-layer metrics.
BASES = {
    "backend.clockhands.inst_ratio": "base: backend.riscv.insts",
    "uarch.sampled.shard_speedup": "base: uarch.sampled.kn_s",
    "uarch.sampled.err_pct": "base: detailed IPC of the same 15 streams, "
                             "first 3M instructions",
    "service.farm.hit_ratio": "base: jobs_done",
    "trace.overhead_pct": "base: the untraced pass's wall_s",
}

STATEMENTS = (
    "the modelled caches and predictors start empty: every grid point "
    "runs from reset, with no warmed checkpoint",
    "the timing model is not validated against hardware, so no host "
    "error figure is given for cycles.*",
    "the paper's Fig 13 values sit beside fig13.* as the reproduction "
    "gap, not as an error figure",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def clean_env():
    """The environment minus every CH_* knob (engine, trace cache, store,
    farm, core model, shards, CH_BENCH_*), so nothing outside the
    benchmark changes what is simulated or how."""
    return {k: v for k, v in os.environ.items() if not k.startswith("CH_")}


def build(env):
    """Configure once, then bring the driver up to date (a no-op when it
    is). The compiler's temporary files stay inside the checkout too."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(env, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            die("cmake configure failed", 1)
    cmd = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      env=env).returncode != 0:
        die("build failed", 1)


def source_id():
    """The git sha, or outside a git checkout a sha1 of the sources."""
    if shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha1()
    paths = []
    for top in ("src", "perfbench"):
        for d, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(d, f) for f in files
                      if "__pycache__" not in d]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return "none (not a git checkout); sources sha1 " + h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_pass(args, workload, env, index, trace_file=None):
    work = os.path.join(WORK, "%s-%d-%d" % (workload, os.getpid(), index))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [DRIVER, "--workload", workload, "--seed", str(args.seed),
           "--work-dir", work]
    if trace_file:
        cmd += ["--trace", trace_file]
    if args.max_insts:
        cmd += ["--max-insts", str(args.max_insts)]
    for kv in args.expect_exit or []:
        cmd += ["--expect-exit", kv]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, env=env, cwd=ROOT,
                           timeout=PASS_BUDGET_S + 20)
    except subprocess.TimeoutExpired:
        die("%s pass %d timed out" % (workload, index), 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        die("driver exited with %d" % r.returncode, 1)
    return json.loads(lines[-1])


def median(values):
    v = sorted(values)
    n = len(v)
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def end_to_end(passes):
    walls = [p["wall_s"] for p in passes]
    jobs = [ms for p in passes for ms in p["op_ms"]]
    note = ("%d grid regeneration(s) of %d jobs, wall %s s; job latency "
            "p50 %.1f ms, max %.1f ms"
            % (len(walls), len(jobs) // len(walls),
               ", ".join("%.3f" % w for w in walls), median(jobs),
               max(jobs)))
    m = {
        "wall_s": (median(walls), "s"),
        "setup_s": (median([s for p in passes for s in p["setup_s"]]), "s"),
        "peak_rss_mib": (median([p["peak_rss_mib"] for p in passes]),
                         "MiB"),
    }
    for isa, v in passes[0]["cycles"].items():
        m["cycles." + isa] = (median([p["cycles"][isa] for p in passes]),
                              "Mcycles")
    return m, note


def run_workload(args, workload, spec, env):
    """Run, check and print one workload; returns its result object."""
    start = time.monotonic()
    passes = []
    traced = None
    if args.trace == 0:
        while True:
            t0 = time.monotonic()
            passes.append(run_pass(args, workload, env, len(passes)))
            took = time.monotonic() - t0
            spent = time.monotonic() - start
            if spent + took > PASS_BUDGET_S:
                break
            if len(passes) >= MIN_PASSES and spent + took / 2 >= args.seconds:
                break
    else:
        os.makedirs(TRACES, exist_ok=True)
        trace_file = os.path.join(TRACES, "%s-seed%d.json"
                                  % (workload, args.seed))
        passes.append(run_pass(args, workload, env, 0))
        traced = run_pass(args, workload, env, 1, trace_file)

    runs = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    digests = sorted({p["digest"] for p in runs})
    if len(digests) > 1:
        # The same seed must simulate the same thing in every pass.
        failed += 1

    print("== perfbench %s, seed %d, %d pass(es)%s ==" % (
        workload, args.seed, len(runs), ", traced" if traced else ""))
    print("host: cpu %s; nproc %s; %s sweep threads; %s; "
          "%s build; git %s" % (cpu_model(), os.cpu_count(), runs[0]["jobs"],
                                runs[0]["compiler"], runs[0]["build_type"],
                                source_id()))
    for s in STATEMENTS:
        print("note: " + s)
    print("simulated-output digest (cycles, instructions, counters in "
          "job order): %s" % ", ".join(digests))
    for f in (f for p in runs for f in p["failures"]):
        print("FAILED: " + f)
    if len(digests) > 1:
        print("FAILED: passes of one seed disagree on simulated output")

    if args.trace == 0:
        measured, note = end_to_end(passes)
        print("timed: " + note)
        wanted = spec["end_to_end"]
    else:
        layers = dict(traced["layers"])
        base, over = passes[0]["wall_s"], traced["wall_s"]
        layers["trace.overhead_pct"] = {
            "value": 100.0 * (over - base) / base, "unit": "%"}
        print("tracing overhead: traced wall %.3f s vs untraced %.3f s "
              "(%+.2f%%); trace written in %.3f s to %s"
              % (over, base, layers["trace.overhead_pct"]["value"],
                 traced["trace_write_s"], trace_file))
        measured = {k: (v["value"], v["unit"]) for k, v in layers.items()}
        wanted = spec["per_layer"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in measured:
            # The layer that fed it is gone (e.g. the trace cache).
            log("perfbench: %s not measured on this build; omitted" % name)
            continue
        value, unit = measured[name]
        if unit != m["unit"]:
            die("%s measured in %s, BENCHMARK.json says %s"
                % (name, unit, m["unit"]), 1)
        metrics[name] = {"value": value, "unit": unit}
        line = "  %-40s %16.6g %s" % (name, value, unit)
        kind, _, width = name.partition(".")[2].rpartition(".")
        if name.startswith("fig13.") and width in PAPER_FIG13.get(kind, {}):
            line += "   (paper %.1f)" % PAPER_FIG13[kind][width]
        elif name in BASES:
            line += "   (%s)" % BASES[name]
        print(line)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--max-insts", type=int,
                    help="cap every simulated run (self-test only; "
                         "programs then stop early)")
    ap.add_argument("--expect-exit", action="append", metavar="PROG=CODE",
                    help="override a recorded exit code (self-test)")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no repository sources next to %s; run from a full checkout"
            % HERE)
    if not os.path.exists(spec_path):
        die("no BENCHMARK.json at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)

    env = clean_env()
    build(env)
    os.makedirs(WORK, exist_ok=True)

    if args.workload != "all":
        result = run_workload(args, args.workload, spec, env)
    else:
        # Every workload in turn; metric names get a workload/ prefix.
        result = {"correct": True, "attempted": 0, "failed": 0,
                  "metrics": {}}
        for w in WORKLOADS:
            r = run_workload(args, w, spec, env)
            result["correct"] = result["correct"] and r["correct"]
            result["attempted"] += r["attempted"]
            result["failed"] += r["failed"]
            for k, v in r["metrics"].items():
                result["metrics"][w + "/" + k] = v
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["failed"] == 0 else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The repo benchmark: host time of the paper's sweeps, end to end and
layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig1_accuracy --seed 42 \
        --seconds 20 --trace 0

builds the simulator from ../src (perfbench/CMakeLists.txt, into
.bench_build/perfbench), runs untraced passes of the workload for
--seconds, checks every cell of every pass against the golden rows and
prints each end-to-end metric by name and unit. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 it also makes one traced pass and prints the per-layer
metrics instead. `--workload all` runs the three workloads in turn.
Other entry points (see README.md):

    --check-artifacts       fig1/fig8 rows vs the artifacts' own reports
    --make-goldens          regenerate perfbench/goldens/ (serial path)
    --write-benchmark-json  regenerate BENCHMARK.json from the tables

Exit codes: 0 all cells match; 1 a cell differs from its golden or a
traced-pass check fails; 2 usage, build or run error (no result line).
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# Seconds allowed for the build (the first one in a checkout compiles
# the simulator) and for everything one workload's run does after it.
BUILD_SECONDS = 850
RUN_BUDGET = 170
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
GOLDEN_DIR = os.path.join(HERE, "goldens")

# The artifacts' trace seed, and one seed held out of every golden the
# benchmark was tuned on.
ARTIFACT_SEED = 42
HELD_OUT_SEED = 1009
GOLDEN_SEEDS = (ARTIFACT_SEED, HELD_OUT_SEED)

# Ops per trace. fig1 and fig8 run shorter traces than their artifacts
# (1.2 M and 800 K ops) so that a run holds enough passes for a steady
# figure; --check-artifacts proves the grids at the artifacts' lengths.
WORKLOADS = {
    "fig1_accuracy": {
        "ops": 125000,
        "warm": True,
        "estimate": "fastest",
        "artifact": ("fig1_accuracy_budget", 1200000),
        "why": "Figure 1's 432 accuracy cells, warm, one worker: "
               "predictors and the batched core/ensemble kernels do the "
               "work, sim and pipeline none",
    },
    "fig8_timing": {
        "ops": 200000,
        "warm": True,
        "estimate": "median",
        "artifact": ("fig8_per_benchmark_ipc", 800000),
        "why": "Figure 8's 48 overriding timing cells, warm, one worker: "
               "the OooCore timing model carries the host time, "
               "predictors a small share",
    },
    "shootout_cold": {
        "ops": 1200000,
        "warm": False,
        "estimate": "median",
        "artifact": None,
        "why": "all nine kinds at 64 KB from an empty trace cache on "
               "nproc workers: generates and stores traces, and "
               "replays serial per-kind loops",
    },
}

END_TO_END = [
    # name, unit, better, bound (share of the parent's median)
    ("setup_s", "s", "lower", 0.25),
    ("sweep_s", "s", "lower", 0.24),
    ("wall_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

ALL_KINDS = ["bimodal", "gshare", "bimode", "yags", "2bc-gskew",
             "ev6-tournament", "perceptron", "multicomponent",
             "gshare.fast"]
FIG1_KINDS = ["gshare", "bimode", "multicomponent", "perceptron"]
FIG8_KINDS = ["multicomponent", "2bc-gskew", "perceptron", "gshare.fast"]
FETCH_MODE = "overriding"

# The reference kernel's time on a quiet host (bpbench.cc,
# referenceKernelSeconds). The kernel runs on the workload's width just
# before and just after every timed pass; the pass's times are scaled
# by REF_NOMINAL_S over the mean of the two. The scaled times are
# seconds at the host speed where the kernel takes REF_NOMINAL_S, which
# takes out most of a shared host's slow and fast spells.
REF_NOMINAL_S = 0.08

# How a run turns its host-corrected pass samples into one figure, per
# workload ("estimate" above). A fig1_accuracy pass is one thread of
# memory-bound computation over memory-mapped traces: a shared host's
# slow spells only ever slow it down, they slow it more than they slow
# the reference kernel, and a spell can outlast a whole run, so its
# fastest pass (of about forty) is the steadiest estimate of the
# program's own time. fig8_timing holds too few passes (about six) for
# its fastest to be steady, and shootout_cold's passes also time its
# own worker scheduling and file writes, which vary both ways; both
# take the median.
ESTIMATORS = {
    "fastest": min,
    "median": statistics.median,
}

SWEEP_SHOOT = "sweep_s on shootout_cold"
SWEEP_FIG1 = "sweep_s on fig1_accuracy"
SWEEP_FIG8 = "sweep_s on fig8_timing"


def _per_layer():
    """(name, unit, better, the end-to-end metric it should move)."""
    m = [
        ("workloads.generate_s", "s", "lower", "setup_s on shootout_cold"),
        ("workloads.mops_per_s", "Mops/s", "higher",
         "setup_s on shootout_cold"),
        ("trace.load_s", "s", "lower", "setup_s on fig1/fig8"),
        ("trace.store_s", "s", "lower", "setup_s on shootout_cold"),
        ("trace.decode_s", "s", "lower", SWEEP_FIG8),
        ("trace.cache_hits", "count", "higher", "setup_s on fig1/fig8"),
        ("trace.cache_misses", "count", "lower",
         "setup_s on shootout_cold"),
        ("trace.resident_mb", "MB", "lower", "peak_rss_mb on all"),
    ]
    m += [("predictors.%s.ns_per_branch" % k, "ns", "lower", SWEEP_SHOOT)
          for k in ALL_KINDS]
    m += [
        ("predictors.branches", "count", "higher", SWEEP_SHOOT),
        ("predictors.mispredictions", "count", "lower", SWEEP_SHOOT),
    ]
    for k in FIG1_KINDS:
        m += [
            ("core.ensemble.%s.ns_per_member_branch" % k, "ns", "lower",
             SWEEP_FIG1),
            ("core.ensemble.%s.speedup" % k, "x", "higher", SWEEP_FIG1),
        ]
    m += [
        ("core.batched_cells", "count", "higher", SWEEP_FIG1),
        ("core.serial_cells", "count", "lower", SWEEP_FIG1),
        ("core.groups", "count", "higher", SWEEP_FIG1),
        ("core.timing_batched_cells", "count", "higher", SWEEP_FIG8),
    ]
    m += [("pipeline.%s.%s.ns_per_branch" % (FETCH_MODE, k), "ns", "lower",
           SWEEP_FIG8) for k in FIG8_KINDS]
    m += [("pipeline.disagree_rate", "ratio", "lower", SWEEP_FIG8)]
    m += [("sim.%s.ns_per_inst" % k, "ns", "lower", SWEEP_FIG8)
          for k in FIG8_KINDS]
    m += [
        ("sim.self_s", "s", "lower", SWEEP_FIG8),
        ("sim.host_ns_per_sim_cycle", "ns", "lower", SWEEP_FIG8),
        ("sim.cycles", "count", "lower", SWEEP_FIG8),
        ("sim.instructions", "count", "higher", SWEEP_FIG8),
        ("sim.flush_cycles", "count", "lower", SWEEP_FIG8),
        ("sim.rob_stall_cycles", "count", "lower", SWEEP_FIG8),
        ("sim.squashed_uops", "count", "lower", SWEEP_FIG8),
        ("parallel.wall_s", "s", "lower", SWEEP_SHOOT),
        ("parallel.busy_s", "s", "lower", SWEEP_SHOOT),
        ("parallel.idle_s", "s", "lower", SWEEP_SHOOT),
        ("parallel.utilization", "ratio", "higher", SWEEP_SHOOT),
        ("parallel.cells_completed", "count", "higher", SWEEP_SHOOT),
        ("parallel.max_queue_depth", "count", "lower", SWEEP_SHOOT),
        ("obs.report_s", "s", "lower", "wall_s on all"),
        ("obs.report_bytes", "bytes", "lower", "wall_s on all"),
        ("bench.trace_overhead_ratio", "x", "lower",
         "none: traced mirror wall / untraced wall"),
        ("bench.layer_coverage", "ratio", "higher",
         "none: share of the mirror wall inside layer spans"),
    ]
    return m


PER_LAYER = _per_layer()

# Span categories of the traced pass, by layer. The pool's own "cell"
# spans are the parallel layer; "commit_wait" is the caller waiting on
# it, so it is idle time rather than a layer's work.
LAYERS = ("workloads", "trace", "predictors", "core", "pipeline", "sim",
          "parallel", "obs")
CATEGORY_LAYER = dict({c: c for c in LAYERS}, cell="parallel")
COVERAGE_MIN = 0.90
LARGEST_LAYER = {"fig1_accuracy": ("predictors", "core"),
                 "fig8_timing": ("sim",)}


class BenchError(Exception):
    """A usage, build or run failure: exit 2 without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Runner:
    """Runs child processes under one deadline and never leaves one
    behind: on timeout the child is killed and waited for."""

    def __init__(self, seconds):
        self.deadline = time.monotonic() + seconds

    def run(self, cmd, env=None, capture=True):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time budget exhausted before: %s" % cmd[0])
        proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE if capture else sys.stderr,
            stderr=None, text=True)
        try:
            out, _ = proc.communicate(timeout=left)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise BenchError("%s exited with %d" %
                             (" ".join(cmd), proc.returncode))
        return out or ""


def check_checkout():
    for path in ("src/core/runner.hh", "tools/bpstat.cc",
                 "perfbench/CMakeLists.txt"):
        if not os.path.isfile(path):
            raise BenchError("run from the root of a bpsim checkout: "
                             "%s is missing" % path)


def build(runner, targets):
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        runner.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], capture=False)
    runner.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"]
               + list(targets), capture=False)


def binary(name):
    return os.path.join(BUILD_DIR, name)


def json_lines(text):
    return [json.loads(line) for line in text.splitlines()
            if line.startswith("{")]


def bpbench(runner, workload, mode, seed, ops, *extra, env=None):
    cmd = [binary("bpbench"), "--workload", workload, "--mode", mode,
           "--seed", str(seed), "--ops", str(ops),
           "--cache", os.path.join(BUILD_DIR, "traces"),
           "--work", os.path.join(BUILD_DIR, "work", workload)]
    return json_lines(runner.run(cmd + [str(x) for x in extra], env=env))


def golden_name(workload, ops, seed):
    return "%s.ops%d.seed%d.tsv" % (workload, ops, seed)


def golden_rows(runner, workload, ops, seed):
    """The stored golden for (workload, ops, seed), else the serial
    reference path's rows, computed once per checkout."""
    stored = os.path.join(GOLDEN_DIR, golden_name(workload, ops, seed))
    if os.path.isfile(stored):
        return stored, "stored golden"
    ref = os.path.join(BUILD_DIR, "ref", golden_name(workload, ops, seed))
    if not os.path.isfile(ref):
        os.makedirs(os.path.dirname(ref), exist_ok=True)
        bpbench(runner, workload, "rows", seed, ops, "--out", ref + ".tmp")
        os.replace(ref + ".tmp", ref)
    return ref, "serial reference rows"


def host_corrected(passes):
    """Each end-to-end time of @p passes as samples in seconds at the
    nominal host speed, plus the raw samples."""
    raw = {"setup_s": [], "sweep_s": [], "wall_s": []}
    corrected = {k: [] for k in raw}
    for p in passes:
        scale = REF_NOMINAL_S / statistics.mean(p["ref_s"])
        for name, vals in (("setup_s", p["setups_s"]),
                           ("sweep_s", [p["sweep_s"]]),
                           ("wall_s", [p["wall_s"]])):
            raw[name] += vals
            corrected[name] += [v * scale for v in vals]
    return corrected, raw


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


# --- traced-pass analysis ------------------------------------------------

def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = []
    for e in events:
        if e.get("ph") != "X":
            continue
        args = e.get("args") or {}
        arg_name, arg = next(iter(args.items()), (None, 0))
        spans.append({"cat": e["cat"], "name": e["name"], "tid": e["tid"],
                      "start": e["ts"] * 1e-6, "dur": e["dur"] * 1e-6,
                      "arg_name": arg_name, "arg": arg})
    return spans


def self_times(spans):
    """Self time per layer: a span's duration minus the part of it its
    child spans on the same thread cover."""
    by_layer = {}

    def close(entry):
        span, child = entry
        layer = CATEGORY_LAYER[span["cat"]]
        by_layer[layer] = by_layer.get(layer, 0.0) + max(
            0.0, span["dur"] - child)

    threads = {}
    for s in spans:
        threads.setdefault(s["tid"], []).append(s)
    for tspans in threads.values():
        tspans.sort(key=lambda s: (s["start"], -s["dur"]))
        stack = []  # [span, seconds covered by its children]
        for s in tspans:
            while stack and s["start"] >= stack[-1][0]["start"] + \
                    stack[-1][0]["dur"]:
                close(stack.pop())
            if stack:
                stack[-1][1] += s["dur"]
            stack.append([s, 0.0])
        while stack:
            close(stack.pop())
    return by_layer


def coverage(spans, start, dur):
    """Share of [start, start + dur] inside at least one span."""
    ivs = sorted((max(s["start"], start),
                  min(s["start"] + s["dur"], start + dur)) for s in spans)
    covered, cur_a, cur_b = 0.0, None, None
    for a, b in ivs:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return covered / dur if dur > 0 else 0.0


def analyse_mirror(spans):
    """Layer self times and coverage of the traced pass's mirror
    section, the part that redoes the workload's own work."""
    mirror = next(s for s in spans
                  if s["cat"] == "bench" and s["name"] == "mirror")
    end = mirror["start"] + mirror["dur"]
    inside = [s for s in spans if s["cat"] in CATEGORY_LAYER and
              s["start"] >= mirror["start"] and s["start"] < end]
    return self_times(inside), coverage(inside, mirror["start"],
                                        mirror["dur"]), mirror["dur"]


def layer_metrics(workload, spans, c, untraced):
    """Every per-layer metric from the traced pass's spans, its counters
    @p c and the untraced passes' EnsembleStats."""
    def total(cat, name=None, arg_name=None):
        dur = work = 0.0
        for s in spans:
            if s["cat"] == cat and (name is None or s["name"] == name) \
                    and (arg_name is None or s["arg_name"] == arg_name):
                dur += s["dur"]
                work += s["arg"]
        return dur, work

    def ns_per(cat, name, arg_name=None):
        dur, work = total(cat, name, arg_name)
        return dur * 1e9 / work if work else 0.0

    selfs, cov, mirror_s = analyse_mirror(spans)
    gen_s, gen_ops = total("workloads", "generate")
    sim_s = total("sim")[0]
    jobs = c["pool_jobs"]
    busy, wall = c["pool_busy_s"], c["pool_wall_s"]
    stats = untraced[0]
    timing = workload == "fig8_timing"
    m = {
        "workloads.generate_s": gen_s,
        "workloads.mops_per_s": gen_ops / 1e6 / gen_s if gen_s else 0.0,
        "trace.load_s": total("trace", "load")[0],
        "trace.store_s": total("trace", "store")[0],
        "trace.decode_s": total("trace", "decode")[0],
        "trace.cache_hits": c["cache_hits"],
        "trace.cache_misses": c["cache_misses"],
        "trace.resident_mb": c["resident_mb"],
        "predictors.branches": c["branches"],
        "predictors.mispredictions": c["mispredictions"],
        "core.batched_cells": stats["batched_cells"],
        "core.serial_cells": stats["serial_cells"],
        "core.groups": stats["groups"],
        "core.timing_batched_cells":
            stats["batched_cells"] if timing else 0,
        "pipeline.disagree_rate":
            c["disagreements"] / c["fetch_branches"]
            if c["fetch_branches"] else 0.0,
        "sim.self_s": sim_s - total("pipeline")[0],
        "sim.host_ns_per_sim_cycle":
            sim_s * 1e9 / c["cycles"] if c["cycles"] else 0.0,
        "sim.cycles": c["cycles"],
        "sim.instructions": c["instructions"],
        "sim.flush_cycles": c["flush_cycles"],
        "sim.rob_stall_cycles": c["rob_stall_cycles"],
        "sim.squashed_uops": c["squashed_uops"],
        "parallel.wall_s": wall,
        "parallel.busy_s": busy,
        "parallel.idle_s": jobs * wall - busy,
        "parallel.utilization": busy / (jobs * wall) if wall else 0.0,
        "parallel.cells_completed": c["pool_cells"],
        "parallel.max_queue_depth": c["pool_max_queue"],
        "obs.report_s": total("obs", "report")[0],
        "obs.report_bytes": c["report_bytes"],
        "bench.trace_overhead_ratio":
            mirror_s / statistics.median(p["wall_s"] for p in untraced),
        "bench.layer_coverage": cov,
    }
    for k in ALL_KINDS:
        m["predictors.%s.ns_per_branch" % k] = ns_per("predictors", k)
    for k in FIG1_KINDS:
        batched = ns_per("core", "ensemble." + k)
        serial = ns_per("predictors", k, "member_branches")
        m["core.ensemble.%s.ns_per_member_branch" % k] = batched
        m["core.ensemble.%s.speedup" % k] = serial / batched \
            if batched else 0.0
    for k in FIG8_KINDS:
        m["pipeline.%s.%s.ns_per_branch" % (FETCH_MODE, k)] = \
            ns_per("pipeline", "%s.%s" % (FETCH_MODE, k))
        m["sim.%s.ns_per_inst" % k] = ns_per("sim", k)
    return m, selfs, cov, mirror_s


def coverage_failures(workload, selfs, cov):
    failures = []
    if cov < COVERAGE_MIN:
        failures.append("layer spans cover %.1f%% of the mirror wall, "
                        "below %.0f%%" % (100 * cov, 100 * COVERAGE_MIN))
    if workload in LARGEST_LAYER and selfs:
        top = max(selfs, key=selfs.get)
        if top not in LARGEST_LAYER[workload]:
            failures.append("largest layer is %s, expected %s" %
                            (top, " or ".join(LARGEST_LAYER[workload])))
    return failures


# --- host facts ------------------------------------------------------------

def host_facts(runner):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    # A checkout that is not a git repository must not report the
    # commit of a repository around it.
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            env=env, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for root, dirs, files in os.walk(base):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    facts = {"nproc": os.cpu_count(), "cpu": cpu,
             "git_commit": commit,
             "source_sha256": digest.hexdigest()[:16]}
    facts.update(json_lines(runner.run([binary("bpbench"), "--mode",
                                        "host"]))[0])
    return facts


# --- one workload ----------------------------------------------------------

def measure(runner, workload, seed, seconds, trace, ops):
    """Run one workload; returns the result line's dict, the
    human-readable lines and the raw passes."""
    spec = WORKLOADS[workload]
    ops = ops or spec["ops"]
    lines = []
    if spec["warm"]:
        bpbench(runner, workload, "prime", seed, ops)
    golden, source = golden_rows(runner, workload, ops, seed)
    # Trace files just written by the prime would otherwise be written
    # back to disk during the timed passes.
    os.sync()
    out = bpbench(runner, workload, "timed", seed, ops, "--seconds",
                  seconds, "--golden", golden)
    passes = [r for r in out if "pass" in r]
    peak = next(r["peak_rss_mb"] for r in out if "peak_rss_mb" in r)
    attempted = sum(p["cells"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # Every pass is checked; the first is a warm-up and is not timed.
    timed = passes[1:] if len(passes) > 2 else passes
    lines.append("%s: seed %d, %d ops/trace, %d untraced passes "
                 "(%d timed), %s" % (workload, seed, ops, len(passes),
                                     len(timed), source))
    e2e = {"peak_rss_mb": peak}
    estimate = ESTIMATORS[spec["estimate"]]
    samples, raw = host_corrected(timed)
    ref = statistics.median(r for p in timed for r in p["ref_s"])
    lines.append("  host speed: reference kernel %.6f s (median; nominal "
                 "%.2f s; quartile spread %.1f%%)" %
                 (ref, REF_NOMINAL_S, 100 * quartile_spread(
                     [r for p in timed for r in p["ref_s"]])))
    for name, vals in samples.items():
        e2e[name] = estimate(vals)
        lines.append("  %-12s %12.6f s   (host-corrected %s of %d; "
                     "median %.6f s, quartile spread %.1f%%; raw %s "
                     "%.6f s)" %
                     (name, e2e[name], spec["estimate"], len(vals),
                      statistics.median(vals),
                      100 * quartile_spread(vals), spec["estimate"],
                      estimate(raw[name])))
    lines.append("  %-12s %12.3f MB" % ("peak_rss_mb", peak))
    ratio = failed / attempted if attempted else 1.0
    lines.append("  %-12s %12.6f      (%d of %d cells differ from the "
                 "golden)" % ("failed_cell_ratio", ratio, failed,
                              attempted))
    correct = failed == 0 and attempted > 0
    metrics = {n: {"value": e2e[n], "unit": u}
               for n, u, _, _ in END_TO_END}
    if trace:
        spans_path = os.path.join(BUILD_DIR, "spans",
                                  "%s.seed%d.json" % (workload, seed))
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        counters = bpbench(runner, workload, "traced", seed, ops,
                           "--out", spans_path, "--golden", golden)[0]
        attempted += counters["cells"]
        failed += counters["failed"]
        timeline = runner.run([binary("bpstat"), "timeline", spans_path])
        spans = load_spans(spans_path)
        values, selfs, cov, mirror_s = layer_metrics(workload, spans,
                                                     counters, timed)
        problems = coverage_failures(workload, selfs, cov)
        correct = correct and counters["failed"] == 0 and not problems
        lines.append("traced pass: %s (bpstat timeline reads it: %s)" %
                     (spans_path, timeline.splitlines()[0]))
        untraced_wall = statistics.median(p["wall_s"] for p in timed)
        lines.append("  mirror wall %.4f s, untraced raw median wall %.4f "
                     "s, overhead %+.4f s, layer coverage %.1f%%" %
                     (mirror_s, untraced_wall, mirror_s - untraced_wall,
                      100 * cov))
        busy = sum(selfs.values())
        lines.append("  %-10s %12s %8s" % ("layer", "self s", "share"))
        for layer in sorted(selfs, key=selfs.get, reverse=True):
            lines.append("  %-10s %12.6f %7.1f%%" %
                         (layer, selfs[layer], 100 * selfs[layer] / busy))
        for p in problems:
            lines.append("  coverage check FAILED: " + p)
        lines.append("  %-44s %16s %-7s %s" % ("per-layer metric", "value",
                                               "unit", "moves"))
        metrics = {}
        for name, unit, _, moves in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
            lines.append("  %-44s %16.6f %-7s %s" %
                         (name, values[name], unit, moves))
    result = {"correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines, passes


def run_workloads(args):
    check_checkout()
    # The first build in a checkout compiles the simulator from scratch.
    build(Runner(BUILD_SECONDS), ["bpbench", "bpstat"])
    facts = host_facts(Runner(RUN_BUDGET))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        runner = Runner(RUN_BUDGET)
        result, lines, passes = measure(runner, name, args.seed,
                                        args.seconds, args.trace, args.ops)
        print("host: " + json.dumps(facts, sort_keys=True))
        for line in lines:
            print(line)
        record = os.path.join(BUILD_DIR, "results", "%s.seed%d.trace%d.json"
                              % (name, args.seed, args.trace))
        os.makedirs(os.path.dirname(record), exist_ok=True)
        with open(record, "w") as f:
            json.dump({"workload": name, "seed": args.seed, "host": facts,
                       "passes": passes, "result": result}, f, indent=1)
        results.append(result)
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {"%s.%s" % (n, k): v for n, r in
                             zip(names, results)
                             for k, v in r["metrics"].items()}}
    sys.stdout.flush()
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


# --- maintenance entry points ----------------------------------------------

def make_goldens(args):
    runner = Runner(3600)
    check_checkout()
    build(runner, ["bpbench"])
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, spec in WORKLOADS.items():
        for seed in GOLDEN_SEEDS:
            if spec["warm"]:
                bpbench(runner, name, "prime", seed, spec["ops"])
            path = os.path.join(GOLDEN_DIR,
                                golden_name(name, spec["ops"], seed))
            bpbench(runner, name, "rows", seed, spec["ops"], "--out", path)
            print("wrote " + path)
    return 0


def check_artifacts(args):
    """fig1/fig8 at the artifacts' own trace length and seed: the
    benchmark's serial-reference rows vs the artifact's --report rows,
    by `bpstat diff` and by exact row equality."""
    runner = Runner(3600)
    check_checkout()
    arts = [spec["artifact"][0] for spec in WORKLOADS.values()
            if spec["artifact"]]
    build(runner, ["bpbench", "bpstat"] + arts)
    work = os.path.join(BUILD_DIR, "artifacts")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, BPSIM_TRACE_CACHE=os.path.join(work, "cache"))
    env.pop("BPSIM_OPS_PER_WORKLOAD", None)
    status = 0
    for name, spec in WORKLOADS.items():
        if not spec["artifact"]:
            continue
        artifact, ops = spec["artifact"]
        theirs = os.path.join(work, artifact + ".json")
        ours = os.path.join(work, name + ".json")
        runner.run([binary(artifact), "--jobs", "1", "--report", theirs],
                   env=env)
        bpbench(runner, name, "prime", ARTIFACT_SEED, ops)
        bpbench(runner, name, "rows", ARTIFACT_SEED, ops, "--out",
                ours + ".tsv", "--report", ours)
        diff = runner.run([binary("bpstat"), "diff", theirs, ours])
        with open(theirs) as f:
            a = json.load(f)["rows"]
        with open(ours) as f:
            b = json.load(f)["rows"]
        differing = sum(1 for x, y in zip(a, b) if x != y) + \
            abs(len(a) - len(b))
        print("%s vs %s (%d ops, seed %d): %s; %d of %d rows differ" %
              (name, artifact, ops, ARTIFACT_SEED,
               diff.strip().splitlines()[-1], differing, len(a)))
        if differing:
            status = 1
    return status


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": s["why"]}
                      for n, s in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


RUN_SECONDS = 30


def write_benchmark_json(args):
    with open("BENCHMARK.json", "w") as f:
        json.dump(benchmark_json(), f, indent=2)
        f.write("\n")
    print("wrote BENCHMARK.json")
    return 0


def parse(argv):
    p = argparse.ArgumentParser(
        description="bpsim host-time benchmark (see perfbench/README.md)")
    p.add_argument("--workload", choices=list(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=ARTIFACT_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=0,
                   help="override ops/trace (smoke runs; goldens then "
                        "come from the serial reference path)")
    p.add_argument("--check-artifacts", action="store_true")
    p.add_argument("--make-goldens", action="store_true")
    p.add_argument("--write-benchmark-json", action="store_true")
    args = p.parse_args(argv)
    if not (args.workload or args.check_artifacts or args.make_goldens
            or args.write_benchmark_json):
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv):
    args = parse(argv)
    try:
        if args.write_benchmark_json:
            return write_benchmark_json(args)
        if args.make_goldens:
            return make_goldens(args)
        if args.check_artifacts:
            return check_artifacts(args)
        return run_workloads(args)
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError, StopIteration) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

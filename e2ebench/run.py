#!/usr/bin/env python3
"""End-to-end serving benchmark for weaver_serve.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
    python3 e2ebench/run.py --workload NAME --seed N --determinism

Run from the root of a source tree. The first run builds weaver_serve and
the benchmark client under .bench_build/e2ebench (see CMakeLists.txt here);
later runs only re-check the build. One workload run prints progress on
stderr and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json with --trace 0, and every
per_layer metric with --trace 1. The exit code is 0 only when every
correctness gate passed. `--workload all` runs each workload and prints a
table instead; `--determinism` runs one workload twice on one seed and
requires the deterministic metrics to repeat exactly.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
SERVE_BIN = os.path.join(BUILD, "weaver", "weaver_serve")
CLIENT_BIN = os.path.join(BUILD, "e2e_client")
GOLDEN_DIR = os.path.join(ROOT, "tests", "data")
# The tree under test: what the build and the golden check need.
REQUIRED = ["CMakeLists.txt", "src", os.path.join("tools", "weaver_serve.cpp")]
REQUIRED += [os.path.join("tests", "data", f"golden_seed{s}.wqasm")
             for s in (7, 21, 42)]

# A run must end within 180 s, or 900 s when it also builds.
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 700

# Metrics that must repeat exactly across two runs on one seed.
DETERMINISTIC = ["wqasm_bytes", "pulses", "exec_ms", "eps_log10",
                 "coloring.colors", "cache.program_hit_ratio",
                 "cache.front_hit_ratio"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_group(cmd, timeout):
    """Runs cmd in its own process group with stdout sent to stderr. On a
    timeout the whole group dies, the server the client spawned included,
    and this waits until every member is gone."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        for _ in range(500):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        raise
    if rc != 0:
        raise subprocess.CalledProcessError(rc, cmd)


def build():
    """Configures once, then brings weaver_serve and the client up to date.
    Build output goes to stderr so stdout keeps only the result line."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_group(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_BUDGET_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_group(["cmake", "--build", BUILD, "--target", "weaver_serve",
               "e2e_client", "-j", jobs], BUILD_BUDGET_S)


def run_client(workload, seed, seconds, trace, deadline):
    """Runs one measurement; returns (raw, spans or None)."""
    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, f"{workload}-seed{seed}-trace{trace}")
    cmd = [CLIENT_BIN, "--serve-bin", SERVE_BIN, "--golden-dir", GOLDEN_DIR,
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", stem + ".json"]
    if trace:
        cmd += ["--spans", stem + ".spans.json"]
    run_group(cmd, max(1.0, deadline - time.monotonic()))
    with open(stem + ".json", encoding="utf-8") as f:
        raw = json.load(f)
    spans = None
    if trace:
        with open(stem + ".spans.json", encoding="utf-8") as f:
            spans = json.load(f)
    return raw, spans


def evaluate(spec, raw, spans, trace):
    """The result object for one run, plus the problems that make it
    incorrect."""
    if not raw["samples"]:
        raise RuntimeError("the timed run completed no request")
    attempted, failed, problems = metrics.count_failures(raw)
    values = {}
    try:
        # The end-to-end metrics also check the quality prefix, so they
        # are computed on traced runs too.
        values = metrics.end_to_end(raw)
        if trace:
            values = metrics.per_layer(raw, spans)
            problems += metrics.trace_problems(raw, spans)
    except (ValueError, ZeroDivisionError) as e:
        problems.append(f"cannot compute metrics: {e}")
    steps = len(raw["step_ms"])
    p = metrics.supported_percentile(steps)
    if p is None or p < 0.9:
        log(f"warning: {steps} latency samples leave fewer than "
            f"{metrics.MIN_SAMPLES_BEYOND} beyond p90")
    if attempted < raw["rss_requests"]:
        log(f"warning: server_peak_rss_mb read after {attempted} results, "
            f"not {raw['rss_requests']}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in declared:
        if m["name"] not in values:
            problems.append(f"metric {m['name']} was not measured")
            continue
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": out}
    return result, problems


def run_one(spec, workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_BUDGET_S
    raw, spans = run_client(workload, seed, seconds, trace, deadline)
    result, problems = evaluate(spec, raw, spans, trace)
    for p in problems[:20]:
        log(f"{workload}: {p}")
    return result


def print_table(spec, results, trace):
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    names = list(results)
    width = max(len(m["name"]) for m in declared) + 2
    print(f"{'metric':<{width}}{'unit':<8}" +
          "".join(f"{n:>16}" for n in names))
    for m in declared:
        row = f"{m['name']:<{width}}{m['unit']:<8}"
        for n in names:
            v = results[n]["metrics"].get(m["name"], {}).get("value")
            row += f"{v:>16.6g}" if v is not None else f"{'-':>16}"
        print(row)
    print(f"{'samples':<{width}}{'count':<8}" +
          "".join(f"{results[n]['attempted']:>16}" for n in names))
    print(f"{'failed':<{width}}{'count':<8}" +
          "".join(f"{results[n]['failed']:>16}" for n in names))
    print(f"{'correct':<{width}}{'':<8}" +
          "".join(f"{str(results[n]['correct']):>16}" for n in names))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--determinism", action="store_true")
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        log(f"error: not a weaver source tree; missing {', '.join(missing)}")
        return 2
    try:
        spec = metrics.read_benchmark(os.path.join(ROOT, "BENCHMARK.json"))
    except (OSError, metrics.SpecError) as e:
        log(f"error: BENCHMARK.json: {e}")
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    chosen = workloads if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(workloads):
        log(f"error: unknown workload {args.workload}; have {workloads}")
        return 2
    seconds = args.seconds or spec["run_seconds"]
    if args.seed < 0:
        log("error: --seed must be non-negative")
        return 2

    try:
        build()
        if args.determinism:
            return check_determinism(chosen, args.seed, seconds)
        results = {w: run_one(spec, w, args.seed, seconds, args.trace)
                   for w in chosen}
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError) as e:
        log(f"error: {e}")
        return 1

    if args.workload == "all":
        print_table(spec, results, args.trace)
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


def check_determinism(workloads, seed, seconds):
    """Runs each workload twice (traced, so the per-layer counts exist) and
    compares the deterministic metrics bit for bit."""
    ok = True
    for w in workloads:
        runs = []
        for _ in range(2):
            raw, spans = run_client(w, seed, seconds, 1,
                                    time.monotonic() + RUN_BUDGET_S)
            values = metrics.per_layer(raw, spans)
            values.update(metrics.quality(raw))
            runs.append(values)
        for name in DETERMINISTIC:
            a, b = runs[0][name], runs[1][name]
            same = a == b
            ok &= same
            print(f"{w:<14}{name:<26}{a!r:>24}{b!r:>24}  "
                  f"{'same' if same else 'DIFFERS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

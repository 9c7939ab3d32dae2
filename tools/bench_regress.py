#!/usr/bin/env python3
"""Diff the deterministic counters of two directories of google-benchmark
JSON.

Compares every benchmark (matched by file name + benchmark name) between a
current bench-smoke directory and a baseline (the previous CI run's
artifact, or the committed bench/baselines seed) and emits a GitHub
warning annotation for every deterministic user counter (pulse counts,
emitted-annotation counts, wQASM bytes, ...) that grew beyond the
threshold. Those counters are exact outputs of the compiler, so a counter
regression is a real output-size regression. Timings (real_time, cpu_time
and timing-derived counters such as p99_ms) are not compared: one-iteration
smoke runs under a parallel ctest flag about a fifth of them on an
unchanged tree. e2ebench/ is the performance harness.

Exit code is always 0: regressions warn-annotate rather than fail the build.

Usage:
  tools/bench_regress.py --current build/bench-smoke \
      --baseline prev-bench [--threshold 0.20]
"""

import argparse
import json
import os
import sys

# Keys of a google-benchmark JSON entry that are not user counters.
STANDARD_KEYS = {
    "name", "run_name", "run_type", "family_index", "per_family_instance_index",
    "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "aggregate_name", "aggregate_unit",
    "big_o", "rms", "label", "error_occurred", "error_message",
}

# Counters derived from wall-clock measurements or scheduling order
# (bench_service latency percentiles and throughput, coalescing ratios):
# run-over-run comparison of these is timing noise, so the growth check
# skips them. Deterministic byte/count counters (snapshot_bytes and
# materialized from bench_persist, pulse counts, wQASM bytes) stay
# checked: growth there is a real output regression.
NOISY_COUNTER_SUFFIXES = ("_ms", "_us", "_ns", "_sec")
NOISY_COUNTERS = {"coalesced", "items_per_second"}


def is_noisy_counter(name):
    return name in NOISY_COUNTERS or name.endswith(NOISY_COUNTER_SUFFIXES)


def load_benchmarks(path):
    """Returns {benchmark name: {counter: value}} for one JSON file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"bench-regress: skipping unreadable {path}: {err}")
        return {}
    out = {}
    for bench in doc.get("benchmarks", []):
        # Skip aggregate/BigO rows; compare raw iterations only.
        if bench.get("run_type") and bench["run_type"] != "iteration":
            continue
        name = bench.get("name")
        if name is None:
            continue
        metrics = {}
        for key, value in bench.items():
            if (key not in STANDARD_KEYS and not is_noisy_counter(key)
                    and isinstance(value, (int, float))):
                metrics[key] = float(value)
        if metrics:
            out[name] = metrics
    return out


def collect(directory):
    """Returns {file name: {benchmark name: {metric: value}}}.

    Walks recursively: each bench-smoke test writes into its own
    subdirectory (so parallel ctest runs cannot collide on files), and
    downloaded artifacts may preserve that layout. File names stay unique
    across subdirectories (BENCH_<binary>.json), so the flat map is safe.
    """
    result = {}
    if not os.path.isdir(directory):
        return result
    for root, _dirs, files in os.walk(directory):
        for entry in sorted(files):
            if entry.startswith("BENCH_") and entry.endswith(".json"):
                result[entry] = load_benchmarks(os.path.join(root, entry))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True,
                        help="directory with this run's BENCH_*.json")
    parser.add_argument("--baseline", required=True,
                        help="directory with the reference BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="relative counter growth that triggers a "
                             "warning (default 0.20 = 20%%)")
    args = parser.parse_args()

    current = collect(args.current)
    baseline = collect(args.baseline)
    if not current:
        print(f"bench-regress: no BENCH_*.json under {args.current}; "
              "nothing to compare")
        return 0
    if not baseline:
        print(f"bench-regress: no baseline under {args.baseline}; "
              "skipping comparison")
        return 0

    # Benchmarks match primarily within the same-named file; a merged
    # name->metrics map covers baselines stored under a different file name
    # (e.g. the committed seeds under bench/baselines/).
    merged = {}
    for benches in baseline.values():
        merged.update(benches)

    compared = 0
    regressions = []
    for fname, benches in sorted(current.items()):
        base = baseline.get(fname, {})
        for name, metrics in sorted(benches.items()):
            ref_metrics = base.get(name)
            if ref_metrics is None:  # e.g. a benchmark added since the baseline
                ref_metrics = merged.get(name)
            if ref_metrics is None:
                print(f"bench-regress: no baseline for {name}; skipping")
                continue
            for metric, value in sorted(metrics.items()):
                ref = ref_metrics.get(metric)
                if ref is None or ref <= 0:
                    continue
                compared += 1
                ratio = value / ref
                if ratio > 1.0 + args.threshold:
                    regressions.append((fname, name, metric, ref, value,
                                        ratio))

    for fname, name, metric, ref, value, ratio in regressions:
        # GitHub Actions warning annotation; plain text elsewhere.
        print(f"::warning file={fname}::{name} counter '{metric}' grew "
              f"{ratio:.2f}x ({ref:.0f} -> {value:.0f})")
    print(f"bench-regress: compared {compared} counters, "
          f"{len(regressions)} beyond the {args.threshold:.0%} threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

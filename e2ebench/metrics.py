"""Metric layer of the end-to-end benchmark.

Pure functions over the raw JSON that e2e_client writes: percentiles,
error accounting, the deterministic program metrics, the per-layer
medians of the traced run, and the reader that validates BENCHMARK.json.
run.py wires them to the command line; test_metrics.py covers them.
"""

import json
import math
import re
import statistics

# Response codes of net::ResponseCode.
CODE_OK = 0
# core::CacheTier values carried in ResultFrame.CacheTier.
TIER_FRONT = 1
TIER_PROGRAM = 2

# trace.coverage must land within this share of 1.0: the spans on a
# request's blocking path add up to its wall time.
COVERAGE_TOLERANCE = 0.10

# Percentiles the latency report may use, lowest first.
PERCENTILES = (0.5, 0.9, 0.99, 0.999)
# A percentile is supported when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10

# Spans on the request's blocking path hang under this root; layers timed
# off the path on the same request hang under "offpath".
REQUEST_ROOT = "request"

# --- BENCHMARK.json -------------------------------------------------------

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
_TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"}


class SpecError(ValueError):
    """BENCHMARK.json breaks the benchmark contract."""


def _require(cond, message):
    if not cond:
        raise SpecError(message)


def _check_metrics(metrics, keys, lo, hi, what):
    _require(isinstance(metrics, list) and lo <= len(metrics) <= hi,
             f"{what}: {lo} to {hi} metrics required")
    for m in metrics:
        _require(isinstance(m, dict) and set(m) == keys,
                 f"{what}: each metric needs exactly {sorted(keys)}")
        _require(isinstance(m["name"], str) and _NAME.match(m["name"]),
                 f"{what}: bad metric name {m['name']!r}")
        _require(isinstance(m["unit"], str) and _UNIT.match(m["unit"]),
                 f"{what}: bad unit {m['unit']!r}")
        _require(m["better"] in ("lower", "higher"),
                 f"{what}: better must be lower or higher")
        if "bound" in keys:
            b = m["bound"]
            _require(isinstance(b, (int, float)) and not isinstance(b, bool)
                     and 0 < b <= 0.25, f"{what}: bound must be in (0, 0.25]")


def parse_benchmark(text):
    """Parses and validates BENCHMARK.json text; raises SpecError."""
    _require(len(text.encode()) <= 64 * 1024, "file exceeds 64 KiB")
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"not JSON: {e}") from e
    _require(isinstance(spec, dict) and set(spec) == _TOP_KEYS,
             f"top-level keys must be exactly {sorted(_TOP_KEYS)}")

    cmd = spec["command"]
    _require(isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
             all(isinstance(c, str) and len(c) <= 200 for c in cmd),
             "command: 1 to 32 strings of at most 200 characters")
    _require(not any(c.startswith("/") or ".." in c.split("/") for c in cmd),
             "command: no absolute paths and no '..'")

    paths = spec["paths"]
    _require(isinstance(paths, list) and 1 <= len(paths) <= 16,
             "paths: 1 to 16 directories")
    for p in paths:
        _require(isinstance(p, str) and _PATH.match(p) and
                 not p.startswith("/") and ".." not in p.split("/"),
                 f"paths: bad directory {p!r}")

    rs = spec["run_seconds"]
    _require(isinstance(rs, int) and not isinstance(rs, bool) and
             1 <= rs <= 60, "run_seconds: whole number from 1 to 60")

    wl = spec["workloads"]
    _require(isinstance(wl, list) and 2 <= len(wl) <= 8,
             "workloads: 2 to 8 required")
    for w in wl:
        _require(isinstance(w, dict) and set(w) == {"name", "why"},
                 "workloads: each needs exactly name and why")
        _require(isinstance(w["name"], str) and _NAME.match(w["name"]),
                 f"workloads: bad name {w['name']!r}")
        _require(isinstance(w["why"], str) and 0 < len(w["why"]) <= 200 and
                 "\n" not in w["why"], "workloads: why is one line <= 200")

    _check_metrics(spec["end_to_end"], {"name", "unit", "better", "bound"},
                   1, 16, "end_to_end")
    _check_metrics(spec["per_layer"], {"name", "unit", "better"}, 1, 128,
                   "per_layer")
    _require(any(m["name"] == "setup_s" and m["unit"] == "s" and
                 m["better"] == "lower" for m in spec["end_to_end"]),
             "end_to_end: setup_s (s, lower) is required")

    names = [w["name"] for w in wl] + [m["name"] for m in spec["end_to_end"]]
    names += [m["name"] for m in spec["per_layer"]]
    _require(len(names) == len(set(names)), "names must be unique")
    return spec


def read_benchmark(path):
    with open(path, encoding="utf-8") as f:
        return parse_benchmark(f.read())


# --- Percentiles ------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least a share p
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """Samples strictly beyond the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p * n))


def supported_percentile(n):
    """The highest percentile in PERCENTILES with MIN_SAMPLES_BEYOND
    samples beyond it, or None when even the median has too few."""
    best = None
    for p in PERCENTILES:
        if samples_beyond(n, p) >= MIN_SAMPLES_BEYOND:
            best = p
    return best


# --- Error accounting -------------------------------------------------------

def failure_reason(sample, programs):
    """Why one completed request counts as an error, or None when it is a
    correct OK result. Shed-and-retried requests never reach here as
    errors: the client resubmits them and counts the retries."""
    if sample["code"] != CODE_OK:
        return f"response code {sample['code']}"
    if not sample["client_ok"]:
        return "client-side wChecker rejected the program"
    if sample["repeat_mismatch"]:
        return "repeated request returned different bytes"
    program = programs.get(sample["key"])
    if program is None:
        return "program was not stored"
    if not program["ok"]:
        return program["diagnostic"] or "program failed verification"
    return None


def count_failures(raw):
    """(attempted, failed, reasons) over the timed requests; golden
    mismatches at set-up count as failures too."""
    programs = {p["key"]: p for p in raw["programs"]}
    reasons = [f"request {s['seq']}: {r}" for s in raw["samples"]
               if (r := failure_reason(s, programs)) is not None]
    failed = len(reasons) + raw["golden_mismatches"]
    if raw["golden_mismatches"]:
        reasons.append(f"{raw['golden_mismatches']} golden output mismatches")
    return len(raw["samples"]), failed, reasons


# --- End-to-end metrics -----------------------------------------------------

def quality(raw):
    """Means of the deterministic program metrics over the first
    quality_requests requests of the sequence; raises ValueError when one
    of them is missing or unverified."""
    programs = {p["key"]: p for p in raw["programs"]}
    by_seq = {s["seq"]: s for s in raw["samples"]}
    rows = []
    for seq in range(raw["quality_requests"]):
        s = by_seq.get(seq)
        if s is None or s["key"] not in programs:
            raise ValueError(f"request {seq} of the quality prefix is missing")
        p = programs[s["key"]]
        if not p["ok"]:
            raise ValueError(f"request {seq} of the quality prefix failed")
        rows.append(p)
    mean = lambda k: statistics.fmean(r[k] for r in rows)
    return {"wqasm_bytes": mean("bytes"), "pulses": mean("pulses"),
            "exec_ms": mean("exec_ms"), "eps_log10": mean("eps_log10")}


def end_to_end(raw):
    latencies = raw["step_ms"]
    attempted, failed, _ = count_failures(raw)
    ok = attempted - failed
    out = {
        "latency_p50_ms": percentile(latencies, 0.5),
        "latency_p90_ms": percentile(latencies, 0.9),
        "throughput_rps": ok / raw["window_seconds"],
        "success_ratio": ok / attempted,
        "setup_s": statistics.median(raw["setup_seconds"]),
        "server_peak_rss_mb": raw["peak_rss_mb"],
    }
    out.update(quality(raw))
    return out


# --- Per-layer metrics ------------------------------------------------------

def span_layers(spans):
    """Per-request span durations (ms) grouped by name, split into the
    children of the request root (on the blocking path) and the rest."""
    by_id = {s["id"]: s for s in spans}
    ms = lambda s: (s["end_us"] - s["start_us"]) / 1e3
    roots, on_path, all_layers = {}, set(), {}
    for s in spans:
        if s["parent"] == 0:
            if s["name"] == REQUEST_ROOT:
                roots[s["request"]] = ms(s)
            continue
        per_request = all_layers.setdefault(s["name"], {})
        per_request[s["request"]] = per_request.get(s["request"], 0.0) + ms(s)
        if by_id[s["parent"]]["name"] == REQUEST_ROOT:
            on_path.add(s["name"])
    return roots, on_path, all_layers


def coverage(spans):
    """Median over requests of the on-path layer times summed and divided
    by the same request's wall. Paired per request, because the host's
    speed drifts between requests and would otherwise open a gap between
    a sum of medians and a median of sums."""
    roots, on_path, layers = span_layers(spans)
    return statistics.median(
        sum(layers[n].get(r, 0.0) for n in on_path) / wall
        for r, wall in roots.items())


def per_layer(raw, spans):
    trace = raw["trace"]
    roots, _, layers = span_layers(spans)
    med = lambda name: statistics.median(layers[name].values())
    ok = [s for s in raw["samples"] if s["code"] == CODE_OK]
    attempted, failed, _ = count_failures(raw)
    miss, nocache = layers["cache.compile_miss"], layers["cache.compile_nocache"]
    traced = [roots[r] for r in sorted(roots)]
    return {
        "latency.samples": attempted,
        "error_rate": failed / attempted,
        "sat.dimacs_parse_ms": med("sat.dimacs_parse"),
        "pass.coloring_ms": med("pass.coloring"),
        "pass.zone_ms": med("pass.zone"),
        "pass.shuttle_ms": med("pass.shuttle"),
        "pass.lowering_ms": med("pass.lowering"),
        "pass.replay_ms": med("pass.replay"),
        "coloring.colors": statistics.fmean(trace["colors"]),
        "cache.miss_overhead_ms": statistics.median(
            miss[r] - nocache[r] for r in miss),
        "cache.hit_compile_ms": med("cache.hit_compile"),
        "cache.program_hit_ratio":
            sum(s["tier"] == TIER_PROGRAM for s in ok) / len(ok),
        "cache.front_hit_ratio":
            sum(s["tier"] == TIER_FRONT for s in ok) / len(ok),
        "qasm.print_ms": med("qasm.print"),
        "qasm.print_bytes": statistics.median(trace["print_bytes"]),
        "net.encode_result_ms": med("net.encode_result"),
        "net.decode_result_ms": med("net.decode_result"),
        "service.queue_wait_ms": statistics.median(s["queue_ms"] for s in ok),
        "service.compile_ms": statistics.median(s["compile_ms"] for s in ok),
        "net.transport_ms": statistics.median(
            s["received_ms"] - s["queue_ms"] - s["compile_ms"] for s in ok),
        "net.shed_retries": raw["shed_retries"],
        "qasm.parse_ms": med("qasm.parse"),
        "wchecker.check_ms": med("wchecker.check"),
        "trace.coverage": coverage(spans),
        "trace.overhead": statistics.median(
            t - u for t, u in zip(traced, trace["untraced_ms"])),
    }


def trace_problems(raw, spans):
    """Correctness gates that exist only in a traced run."""
    problems = []
    if raw["trace"]["server_mismatches"]:
        problems.append("traced direct output differs from the served program")
    c = coverage(spans)
    if abs(c - 1.0) > COVERAGE_TOLERANCE:
        problems.append(f"trace.coverage {c:.3f} is not within "
                        f"{COVERAGE_TOLERANCE:.0%} of 1.0")
    return problems

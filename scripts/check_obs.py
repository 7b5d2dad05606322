#!/usr/bin/env python3
"""Validates the bayonet observability exporter outputs.

Usage: check_obs.py TRACE_JSON METRICS_PROM [DIAG_JSON]
       check_obs.py --profile PROFILE_JSON [--canon | --canon-work]

Checks that the Chrome-trace file is valid JSON with a well-nested span
tree covering every pipeline phase, and that the metrics file is parseable
Prometheus text exposition in the bayonet_ namespace with sane counter
values and histograms whose +Inf bucket equals their _count. When
DIAG_JSON is given, also validates the --diag-out inference-diagnostics
report schema and its internal invariants. Exits non-zero with a
diagnostic on the first violation.

--profile validates a --profile-out JSON cost profile: schema, per-frame
count invariants, and (when the engine stamped totals) that the frames'
states column sums exactly to the engine total. With --canon it prints
the canonical count lines (stack|states|execs|samples|merge_attempts|
merge_hits|tx_hits|tx_misses|intern_hits|intern_misses, sorted by stack
key, deterministic columns
only) on stdout — byte-identical across thread counts and crash/resume
for a fixed TxCache/intern setting, so callers diff two --canon outputs
to assert count determinism. --canon-work prints only the work columns
(states|execs|samples|merge_attempts|merge_hits), which are additionally
byte-identical across TxCache and intern on/off (cache hits replay the
recorded per-statement counts; the tx/intern columns themselves are only
populated when the cache/arena exists). Time and allocation columns are explicitly excluded
from both.
"""
import json
import sys

REQUIRED_SPANS = [
    "lex",
    "parse",
    "check",
    "inference",
    "exact.run",
    "exact.step",
    "exact.expand",
    "exact.merge",
    "query-eval",
]

REQUIRED_METRICS = [
    "bayonet_states_expanded_total",
    "bayonet_merge_attempts_total",
    "bayonet_merge_hits_total",
    "bayonet_sched_steps_total",
    "bayonet_peak_frontier_states",
    "bayonet_frontier_size",
    "bayonet_step_duration_ms",
]


def fail(msg):
    print(f"check_obs: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents array")

    spans = {}
    for ev in events:
        for key in ("name", "ph", "pid", "tid", "ts", "args"):
            if key not in ev:
                fail(f"{path}: event missing '{key}': {ev}")
        args = ev["args"]
        if "span_id" not in args or "parent_id" not in args:
            fail(f"{path}: event missing span_id/parent_id args: {ev}")
        if ev["ph"] == "X":
            if "dur" not in ev:
                fail(f"{path}: span without dur: {ev}")
            sid = args["span_id"]
            if sid in spans:
                fail(f"{path}: duplicate span id {sid}")
            spans[sid] = ev
        elif ev["ph"] != "i":
            fail(f"{path}: unexpected phase {ev['ph']!r}")

    # Nesting: every parent id refers to a span in the file (0 = root),
    # and a child's parent chain terminates at the root without cycles.
    for ev in events:
        pid = ev["args"]["parent_id"]
        if pid != 0 and pid not in spans:
            fail(f"{path}: dangling parent_id {pid} on {ev['name']}")
        seen = set()
        while pid != 0:
            if pid in seen:
                fail(f"{path}: parent cycle at span {pid}")
            seen.add(pid)
            pid = spans[pid]["args"]["parent_id"]

    names = {ev["name"] for ev in events}
    for want in REQUIRED_SPANS:
        if want not in names:
            fail(f"{path}: required span '{want}' missing "
                 f"(have: {sorted(names)})")

    # Per-round expansion: each exact.step encloses an expand and a merge.
    steps = [s for s in spans.values() if s["name"] == "exact.step"]
    by_parent = {}
    for s in spans.values():
        by_parent.setdefault(s["args"]["parent_id"], []).append(s["name"])
    for s in steps:
        kids = by_parent.get(s["args"]["span_id"], [])
        if "exact.expand" not in kids or "exact.merge" not in kids:
            fail(f"{path}: exact.step span {s['args']['span_id']} lacks "
                 f"expand/merge children (has {kids})")

    print(f"check_obs: trace OK ({len(events)} events, {len(spans)} spans, "
          f"{len(steps)} scheduler rounds)")


def parse_prom(text, label):
    """Parses Prometheus 0.0.4 text exposition into {sample_name: value}."""
    values = {}
    for ln, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            if line.startswith("#") and not (
                    line.startswith("# HELP ") or
                    line.startswith("# TYPE ")):
                fail(f"{label}:{ln}: bad comment line: {line}")
            continue
        parts = line.split()
        if len(parts) != 2:
            fail(f"{label}:{ln}: expected 'name value': {line}")
        try:
            values[parts[0]] = float(parts[1])
        except ValueError:
            fail(f"{label}:{ln}: unparseable value: {line}")
    return values


def check_metrics(path):
    with open(path) as f:
        values = parse_prom(f.read(), path)
    for name in values:
        if not name.startswith("bayonet_"):
            fail(f"{path}: unexpected metric namespace: {name}")
    for want in REQUIRED_METRICS:
        hits = [k for k in values if k == want or k.startswith(want + "_")]
        if not hits:
            fail(f"{path}: required metric '{want}' missing")
    if values.get("bayonet_states_expanded_total", 0) <= 0:
        fail(f"{path}: bayonet_states_expanded_total should be positive")
    if (values.get("bayonet_merge_hits_total", 0) >
            values.get("bayonet_merge_attempts_total", 0)):
        fail(f"{path}: merge hits exceed merge attempts")
    # Histogram sample triplets agree: +Inf bucket == _count.
    for name, val in values.items():
        if name.endswith("_count"):
            inf = values.get(name[:-len("_count")] + '_bucket{le="+Inf"}')
            if inf is not None and inf != val:
                fail(f"{path}: {name} {val} != +Inf bucket {inf}")
    print(f"check_obs: metrics OK ({len(values)} samples)")


DIAG_SUMMARY_KEYS = [
    "schema",
    "engine",
    "particles",
    "resamples",
    "final_ess",
    "min_ess",
    "min_ess_fraction",
    "min_ess_step",
    "support_size",
    "peak_frontier",
    "warnings",
    "smc_steps",
    "exact_rounds",
]

DIAG_SMC_KEYS = [
    "step",
    "active",
    "alive",
    "ess",
    "ess_fraction",
    "weight_cv",
    "min_log_weight",
    "max_log_weight",
    "dead_mass_fraction",
    "resampled",
]

DIAG_EXACT_KEYS = [
    "step",
    "frontier_in",
    "frontier_out",
    "expanded",
    "merge_attempts",
    "merge_hits",
    "merge_hit_rate",
]


def check_diag(path):
    with open(path) as f:
        doc = json.load(f)
    for key in DIAG_SUMMARY_KEYS:
        if key not in doc:
            fail(f"{path}: diag report missing '{key}'")
    if doc["schema"] != 1:
        fail(f"{path}: unsupported diag schema {doc['schema']!r}")
    if not doc["engine"]:
        fail(f"{path}: empty engine name")
    particles = doc["particles"]
    if not (0 <= doc["min_ess"] <= max(particles, doc["min_ess"])):
        fail(f"{path}: min_ess {doc['min_ess']} out of range")
    if not 0 <= doc["min_ess_fraction"] <= 1:
        fail(f"{path}: min_ess_fraction out of [0,1]")
    if "residual_mass" in doc and not 0 <= doc["residual_mass"] <= 1 + 1e-9:
        fail(f"{path}: residual_mass out of [0,1]")
    if "tv_divergence" in doc and not 0 <= doc["tv_divergence"] <= 1 + 1e-9:
        fail(f"{path}: tv_divergence out of [0,1]")
    if not isinstance(doc["warnings"], list):
        fail(f"{path}: warnings is not a list")

    resampled_steps = 0
    for i, s in enumerate(doc["smc_steps"]):
        for key in DIAG_SMC_KEYS:
            if key not in s:
                fail(f"{path}: smc_steps[{i}] missing '{key}'")
        # "active" counts still-running particles before the step; "alive"
        # counts non-dead survivors after it (terminal particles included),
        # so both are bounded by the population but not by each other.
        for pop in ("alive", "active"):
            if particles and not 0 <= s[pop] <= particles:
                fail(f"{path}: smc_steps[{i}]: {pop} out of [0,particles]")
        if particles and not 0 <= s["ess"] <= particles + 1e-9:
            fail(f"{path}: smc_steps[{i}]: ess out of [0,particles]")
        for frac in ("ess_fraction", "dead_mass_fraction"):
            if not 0 <= s[frac] <= 1 + 1e-9:
                fail(f"{path}: smc_steps[{i}]: {frac} out of [0,1]")
        if s["resampled"]:
            resampled_steps += 1
    if doc["resamples"] != resampled_steps:
        fail(f"{path}: resamples {doc['resamples']} != "
             f"{resampled_steps} resampled steps")

    peak = 0
    for i, r in enumerate(doc["exact_rounds"]):
        for key in DIAG_EXACT_KEYS:
            if key not in r:
                fail(f"{path}: exact_rounds[{i}] missing '{key}'")
        if r["merge_hits"] > r["merge_attempts"]:
            fail(f"{path}: exact_rounds[{i}]: merge hits > attempts")
        if not 0 <= r["merge_hit_rate"] <= 1 + 1e-9:
            fail(f"{path}: exact_rounds[{i}]: merge_hit_rate out of [0,1]")
        peak = max(peak, r["frontier_in"], r["frontier_out"])
    if doc["exact_rounds"] and doc["peak_frontier"] < peak:
        fail(f"{path}: peak_frontier {doc['peak_frontier']} below "
             f"observed round peak {peak}")

    print(f"check_obs: diag OK (engine {doc['engine']}, "
          f"{len(doc['smc_steps'])} smc steps, "
          f"{len(doc['exact_rounds'])} exact rounds, "
          f"{len(doc['warnings'])} warnings)")


PROFILE_COUNT_KEYS = [
    "states",
    "execs",
    "samples",
    "merge_attempts",
    "merge_hits",
    "tx_hits",
    "tx_misses",
    "intern_hits",
    "intern_misses",
]


def check_profile(path, canon=False):
    with open(path) as f:
        doc = json.load(f)
    for key in ("schema", "deterministic_columns", "nondeterministic_columns",
                "totals", "frames"):
        if key not in doc:
            fail(f"{path}: profile missing '{key}'")
    if doc["schema"] != 1:
        fail(f"{path}: unsupported profile schema {doc['schema']!r}")
    if doc["deterministic_columns"] != PROFILE_COUNT_KEYS:
        fail(f"{path}: deterministic_columns "
             f"{doc['deterministic_columns']} != {PROFILE_COUNT_KEYS}")
    if doc["nondeterministic_columns"] != ["wall_ns", "allocs"]:
        fail(f"{path}: nondeterministic_columns should be "
             f"['wall_ns', 'allocs']")
    if not isinstance(doc["frames"], list) or not doc["frames"]:
        fail(f"{path}: no frames (profiling enabled but nothing charged?)")

    totals = doc["totals"]
    if totals is not None:
        for key in PROFILE_COUNT_KEYS:
            if key not in totals:
                fail(f"{path}: totals missing '{key}'")

    states_sum = 0
    stacks = set()
    for i, fr in enumerate(doc["frames"]):
        for key in ["stack", "loc", "wall_ns", "allocs"] + PROFILE_COUNT_KEYS:
            if key not in fr:
                fail(f"{path}: frames[{i}] missing '{key}'")
        if not fr["stack"] or not isinstance(fr["stack"], str):
            fail(f"{path}: frames[{i}] has an empty stack key")
        if fr["stack"] in stacks:
            fail(f"{path}: duplicate stack key {fr['stack']!r}")
        stacks.add(fr["stack"])
        for key in PROFILE_COUNT_KEYS + ["wall_ns", "allocs"]:
            v = fr[key]
            if not isinstance(v, int) or v < 0:
                fail(f"{path}: frames[{i}].{key} = {v!r} is not a "
                     f"non-negative integer")
        if fr["merge_hits"] > fr["merge_attempts"]:
            fail(f"{path}: frames[{i}]: merge hits exceed attempts")
        states_sum += fr["states"]
    # The frames' sorted order is part of the deterministic contract.
    keys = [fr["stack"] for fr in doc["frames"]]
    if keys != sorted(keys):
        fail(f"{path}: frames not sorted by stack key")
    # The states column partitions the engine's work total exactly: every
    # unit is charged to exactly one frame (samplers leave totals null).
    if totals is not None and states_sum != totals["states"]:
        fail(f"{path}: frame states sum {states_sum} != engine total "
             f"{totals['states']}")

    if canon:
        keys = PROFILE_COUNT_KEYS[:5] if canon == "work" else PROFILE_COUNT_KEYS
        for fr in doc["frames"]:
            if not any(fr[k] for k in keys):
                continue
            cols = "|".join(str(fr[k]) for k in keys)
            print(f"{fr['stack']}|{cols}")
    else:
        print(f"check_obs: profile OK ({len(doc['frames'])} frames, "
              f"states sum {states_sum}"
              + (f" == total {totals['states']}" if totals is not None
                 else ", no engine totals") + ")")


def main():
    if len(sys.argv) in (3, 4) and sys.argv[1] == "--profile":
        canon = False
        if len(sys.argv) == 4:
            if sys.argv[3] == "--canon":
                canon = "full"
            elif sys.argv[3] == "--canon-work":
                canon = "work"
            else:
                print(__doc__, file=sys.stderr)
                sys.exit(2)
        check_profile(sys.argv[2], canon)
        return
    if len(sys.argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    check_trace(sys.argv[1])
    check_metrics(sys.argv[2])
    if len(sys.argv) == 4:
        check_diag(sys.argv[3])
    print("check_obs: all checks passed")


if __name__ == "__main__":
    main()

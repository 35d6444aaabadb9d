#!/usr/bin/env python3
"""Perf-trend gate for the engine headline benchmark and run summaries.

Compares a freshly produced metrics file against a committed baseline and
exits non-zero when any gated metric regressed by more than the tolerance
(default 25%). Two input formats are accepted, detected per file:

  * benchmark JSON (``BENCH_*.json``, written by bench_perf_engine's
    headline comparison): a ``metrics`` array of ``{name, value}``;
  * run summaries (``--stats=json`` output of jsmm-run/jsmm-batch): the
    ``{"record":"run-summary", ...}`` object, either bare or as a line in
    a JSONL stream. Its ``counters`` and ``stats`` sections flatten to
    ``name: value``; ``latency`` histograms flatten to ``name.p50_us``,
    ``name.p90_us``, ``name.p99_us``, ``name.mean_us``, ``name.max_us``
    and ``name.count``.

Every metric present in both files is printed with its delta (±%) so CI
logs show the full per-metric trend, not just the gated verdicts.

Gated metrics are the ``speedup_*`` ratios, the ``*_drop_*`` /
``*_dropped_*`` effectiveness ratios (``candidate_drop_por_x``: explored
candidates without the equivalence-aware enumeration over explored
candidates with it; ``rf_candidates_dropped_x``: completed rf
candidates without the value-aware static pruning over those completed
with it — deterministic counters that catch reduction/pruning
regressions wall clock can hide), plus the batch service's
``*_jobs_per_sec`` floors (``service_jobs_per_sec`` for the ≤64-event
differential corpus, ``large_program_jobs_per_sec`` for the 65+-event
corpus served by the dynamic relation tier), plus the ``*_events_max``
capacity floors (``dyn_events_max``: the size of the largest program
the capacity headline served through the default door — a capacity
regression, e.g. an accidental relation-cap change, shows up as this
number dropping), plus the ``*_hits`` coverage floors
(``drf_fastpath_hits``: how many jobs of the statically-DRF headline
family the DRF-SC fast path actually served — a deterministic counter
that trips if the static certificate stops covering the family and jobs
silently fall back to the full walk). Every gated-class metric the benchmark emits must
have a committed floor: a ``speedup_*``/``*_events_max`` present in the
current results but missing from the baseline fails the gate rather
than silently riding along un-gated. The raw
``candidates_explored_*`` counters behind the drop ratio are printed
alongside the verdicts so CI logs show the actual candidate counts, not
just the ratio. Speedups — engine time
relative to a reference algorithm on the same machine and run, e.g. the
seed generate-then-filter loop — are
machine-relative, so they are comparable across CI runners in a way
absolute milliseconds are not; the jobs/sec floors are deliberately set
far below any plausible machine so they catch only order-of-magnitude
service regressions. The committed baseline stores those floors, not
timings.

Latency metrics (names ending ``_us``) gate as *ceilings* instead of
floors — lower is better — and only when the baseline commits a value
for them; they are never required, since absolute microseconds are
machine-relative.

Usage:
  perf_trend.py <current.json> <baseline.json> [--tolerance=0.25]

A missing current file is reported and skipped with exit 0 (the benchmark
binary is gated on google-benchmark being installed); a missing or
malformed baseline is an error, so the gate cannot rot silently.
"""

import json
import sys


def flatten_summary(doc):
    """Flatten a run-summary object into a flat name -> value map."""
    out = {}
    for section in ("counters", "stats"):
        for name, value in doc.get(section, {}).items():
            if isinstance(value, (int, float)):
                out[name] = float(value)
    for name, hist in doc.get("latency", {}).items():
        if isinstance(hist, dict):
            for field, value in hist.items():
                if isinstance(value, (int, float)):
                    out[f"{name}.{field}"] = float(value)
    for name, value in doc.get("jobs", {}).items():
        if isinstance(value, (int, float)):
            out[f"jobs.{name}"] = float(value)
    if isinstance(doc.get("cache"), dict):
        for name, value in doc["cache"].items():
            if isinstance(value, (int, float)):
                out[f"cache.{name}"] = float(value)
    for name in ("jobs_per_sec", "wall_s", "workers"):
        if isinstance(doc.get(name), (int, float)):
            out[name] = float(doc[name])
    return out


def metrics_of(path):
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        # JSONL stream: find the run-summary record among the lines.
        doc = None
        for line in text.splitlines():
            line = line.strip()
            if not line or '"record":"run-summary"' not in line:
                continue
            doc = json.loads(line)
        if doc is None:
            raise ValueError(f"{path}: no run-summary record in JSONL stream")
    if isinstance(doc, dict) and doc.get("record") == "run-summary":
        return flatten_summary(doc)
    if isinstance(doc, dict) and "metrics" in doc:
        return {m["name"]: float(m["value"]) for m in doc["metrics"]}
    raise ValueError(f"{path}: neither a benchmark metrics file nor a "
                     "run-summary")


def main(argv):
    tolerance = 0.25
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--tolerance="):
            tolerance = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__)
        return 2
    current_path, baseline_path = paths

    try:
        current = metrics_of(current_path)
    except FileNotFoundError:
        print(f"perf-trend: '{current_path}' not found; benchmark was not "
              "built (google-benchmark missing?) - skipping the gate")
        return 0

    baseline = metrics_of(baseline_path)

    def is_floor_gated(name):
        return (name.startswith("speedup_") or "_drop_" in name
                or "_dropped_" in name
                or name.endswith("_jobs_per_sec")
                or name.endswith("_events_max")
                or name.endswith("_hits"))

    def is_ceiling_gated(name):
        # Latency: lower is better, gated only when the baseline commits
        # a ceiling for it.
        return name.endswith("_us")

    gated = sorted(n for n in baseline
                   if is_floor_gated(n) or is_ceiling_gated(n))
    if not gated:
        print(f"perf-trend: baseline '{baseline_path}' has no gated "
              "(speedup_* / *_drop_* / *_dropped_* / *_jobs_per_sec / "
              "*_events_max / *_hits / *_us) metrics")
        return 2

    # A gated-class metric the benchmark emits but the baseline has no
    # floor for is an un-gated regression channel: the gate used to
    # iterate over the baseline only, so adding a new speedup_* to the
    # benchmark without a committed floor silently exempted it. Fail
    # loudly instead so every new headline metric lands with its floor.
    # (Latency ceilings are opt-in and exempt from this rule.)
    unfloored = sorted(n for n in current
                       if is_floor_gated(n) and n not in baseline)
    failures = 0
    for name in unfloored:
        print(f"[FAIL] {name}: emitted by the benchmark but has no floor "
              f"in {baseline_path}")
        failures += 1

    # Explored-candidate counts, printed next to the gated ratios so a
    # reduction-effectiveness regression is visible as raw numbers too.
    explored = sorted(n for n in current if n.startswith("candidates_explored"))
    for name in explored:
        print(f"[info] {name}: {current[name]:.0f}")

    # Per-metric deltas for every shared non-gated metric, so the trend
    # of counters and latencies is visible in the log even when un-gated.
    shared = sorted(n for n in current if n in baseline and n not in gated)
    for name in shared:
        base, cur = baseline[name], current[name]
        if base != 0:
            delta = (cur - base) / base
            print(f"[info] {name}: {cur:g} vs baseline {base:g} "
                  f"({delta:+.1%})")
        else:
            print(f"[info] {name}: {cur:g} vs baseline 0")

    for name in gated:
        base = baseline[name]
        cur = current.get(name)
        if cur is None:
            print(f"[FAIL] {name}: missing from {current_path}")
            failures += 1
            continue
        delta = (cur - base) / base if base else 0.0
        if is_floor_gated(name):
            bound = base * (1.0 - tolerance)
            ok = cur >= bound
            kind = "floor"
        else:
            bound = base * (1.0 + tolerance)
            ok = cur <= bound
            kind = "ceiling"
        verdict = "[ok]  " if ok else "[FAIL]"
        print(f"{verdict} {name}: current {cur:.2f} vs baseline "
              f"{base:.2f} ({delta:+.1%}; {kind} {bound:.2f} at "
              f"{tolerance:.0%} tolerance)")
        failures += 0 if ok else 1

    if failures:
        print(f"perf-trend: {failures} metric(s) regressed by more than "
              f"{tolerance:.0%} against {baseline_path}")
        return 1
    print("perf-trend: no regression beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

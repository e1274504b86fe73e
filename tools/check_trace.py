#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON file written by RR_TRACE / --trace.

Dependency-free (stdlib json only). Checks the subset of the format that
Perfetto and chrome://tracing rely on, plus this repo's conventions:

* top level: object with "displayTimeUnit" and a "traceEvents" array;
* every event: "ph" in {X, M, C}, pid == 1, numeric tid;
* "X" complete events: numeric ts/dur >= 0, string name, cat in
  {phase, stage, task};
* "M" metadata events: name == "thread_name" with args.name a string;
* "C" counter events: numeric args.value;
* task events: args.id and args.worker present, tid == 1000 + worker
  (the synthetic worker-track convention), and the track is named;
* at least one span for each pipeline stage of a traced solve.

With --report=<path>, additionally validates a solve-report JSON
(rr_bench::report_to_json): its "counters" object must summarize every
recorder counter series as {samples, max, min, last} with numeric
values and samples >= 1, a report that carries pool statistics must
include the "queue-depth" series the scheduler emits, and a report with
no pool tasks (one thread) must have its phase self times add up to at
most its wall time.

Usage: tools/check_trace.py <trace.json> [--min-phases N] [--report=<report.json>]
Exit status 0 iff the file (and the report, if given) passes.
"""

import json
import sys

WORKER_TRACK_BASE = 1000
REQUIRED_STAGES = {"solve", "remainder-stage", "tree-stage"}


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_report(path):
    """Validate the counter summaries of a report_to_json document."""
    with open(path, "rb") as f:
        report = json.load(f)
    if not isinstance(report, dict):
        fail(f"{path}: report is not an object")
    counters = report.get("counters")
    if not isinstance(counters, dict):
        fail(f"{path}: report has no 'counters' object")
    for name, summary in counters.items():
        if not isinstance(summary, dict):
            fail(f"{path}: counter {name!r} summary is not an object")
        for key in ("samples", "max", "min", "last"):
            v = summary.get(key)
            if not isinstance(v, (int, float)):
                fail(f"{path}: counter {name!r}.{key} is {v!r}, want a number")
        if summary["samples"] < 1:
            fail(f"{path}: counter {name!r} has no samples")
        if summary["min"] > summary["max"]:
            fail(f"{path}: counter {name!r} min {summary['min']} > max {summary['max']}")
    if isinstance(report.get("pool"), dict) and "queue-depth" not in counters:
        fail(f"{path}: pool-backed report is missing the 'queue-depth' counter")
    if report.get("total_tasks") == 0:
        # One thread: phase regions are disjoint or nested, and a region's
        # self time excludes its nested regions, so the layer times must
        # fit inside the solve's wall time.
        self_secs = sum(p["self_secs"] for p in report.get("phases", []))
        if self_secs > report["wall_secs"]:
            fail(f"{path}: phase self times sum to {self_secs}s > wall {report['wall_secs']}s")
    print(f"check_trace: report OK: {len(counters)} counter series "
          f"({', '.join(sorted(counters))})")


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    if len(args) != 1:
        fail(f"usage: {sys.argv[0]} <trace.json> [--min-phases N] [--report=<report.json>]")
    min_phases = 1
    report_path = None
    for a in sys.argv[1:]:
        if a.startswith("--min-phases="):
            min_phases = int(a.split("=", 1)[1])
        elif a.startswith("--report="):
            report_path = a.split("=", 1)[1]

    with open(args[0], "rb") as f:
        doc = json.load(f)

    if not isinstance(doc, dict):
        fail("top level is not an object")
    if doc.get("displayTimeUnit") not in ("ms", "ns"):
        fail(f"bad displayTimeUnit {doc.get('displayTimeUnit')!r}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")

    named_tracks = set()
    counts = {"X": 0, "M": 0, "C": 0}
    cats = {}
    stage_names = set()
    phase_names = set()
    for i, ev in enumerate(events):
        where = f"event {i}"
        if not isinstance(ev, dict):
            fail(f"{where}: not an object")
        ph = ev.get("ph")
        if ph not in counts:
            fail(f"{where}: unexpected ph {ph!r}")
        counts[ph] += 1
        if ev.get("pid") != 1:
            fail(f"{where}: pid {ev.get('pid')!r} != 1")
        if not isinstance(ev.get("tid"), int):
            fail(f"{where}: non-integer tid {ev.get('tid')!r}")
        if ph == "M":
            if ev.get("name") != "thread_name":
                fail(f"{where}: M event named {ev.get('name')!r}")
            if not isinstance(ev.get("args", {}).get("name"), str):
                fail(f"{where}: thread_name without args.name")
            named_tracks.add(ev["tid"])
        elif ph == "C":
            v = ev.get("args", {}).get("value")
            if not isinstance(v, (int, float)):
                fail(f"{where}: counter without numeric args.value")
        else:  # X
            for k in ("ts", "dur"):
                v = ev.get(k)
                if not isinstance(v, (int, float)) or v < 0:
                    fail(f"{where}: bad {k} {v!r}")
            if not isinstance(ev.get("name"), str):
                fail(f"{where}: X event without name")
            cat = ev.get("cat")
            if cat not in ("phase", "stage", "task"):
                fail(f"{where}: unexpected cat {cat!r}")
            cats[cat] = cats.get(cat, 0) + 1
            if cat == "stage":
                stage_names.add(ev["name"])
            if cat == "phase":
                phase_names.add(ev["name"])
            if cat == "task":
                a = ev.get("args", {})
                if not isinstance(a.get("id"), int):
                    fail(f"{where}: task without integer args.id")
                w = a.get("worker")
                if not isinstance(w, int):
                    fail(f"{where}: task without integer args.worker")
                if ev["tid"] != WORKER_TRACK_BASE + w:
                    fail(f"{where}: task tid {ev['tid']} != {WORKER_TRACK_BASE}+{w}")
                if ev["tid"] not in named_tracks:
                    fail(f"{where}: task on unnamed track {ev['tid']}")

    if counts["X"] == 0:
        fail("no X (duration) events")
    if counts["M"] == 0:
        fail("no M (thread_name) events")
    missing = REQUIRED_STAGES - stage_names
    if missing:
        fail(f"missing stage spans: {sorted(missing)}")
    if len(phase_names) < min_phases:
        fail(f"only {len(phase_names)} phase names, need {min_phases}: {sorted(phase_names)}")

    print(
        f"check_trace: OK: {len(events)} events "
        f"({counts['X']} spans: {cats}, {counts['M']} track names, "
        f"{counts['C']} counter samples), phases {sorted(phase_names)}"
    )
    if report_path is not None:
        check_report(report_path)


if __name__ == "__main__":
    main()

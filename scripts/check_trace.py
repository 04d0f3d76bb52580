#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file exported by `dftimc --trace`.

Checks, in order:
  1. The file is valid JSON of the expected shape: an object with a
     `traceEvents` list and an `otherData.droppedEvents` counter.
  2. Every event carries the required fields for its phase ('B'/'E'
     duration pair, 'i' instant, 'M' metadata) with numeric pid/tid/ts.
  3. Begin/end events balance per (pid, tid) track and close in LIFO
     order with matching names (proper nesting).
  4. Timestamps are monotonically non-decreasing per tid in file order
     (the exporter orders each thread's events by sequence number).
  5. Optionally (--min-coverage), the union of all span intervals covers
     at least the given fraction of the global event extent — the
     "spans cover >= 95% of measured wall time" acceptance bar.
  6. Optionally (--expect-span / --forbid-span), named spans or instants
     must appear at least once / must never appear.
  7. Optionally (--expect-arg SPAN:KEY), some SPAN event must carry the
     arg KEY (e.g. classic.aggregate:encoded).

With --self-times it then prints, per span name, the summed self and
inclusive seconds.  The rule is the one obs::selfTimes applies (the
numbers `dftimc --stats` prints): a span's inclusive time is its
duration, its self time that duration minus its direct children on the
same thread.

Exit status 0 when every check passes, 1 with a diagnostic otherwise.
Stdlib only; usage:

    check_trace.py TRACE.json [--min-coverage 0.95] [--expect-span NAME]...
                   [--forbid-span NAME]... [--expect-arg SPAN:KEY]...
                   [--self-times]
"""

import argparse
import json
import sys
from collections import defaultdict


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("trace")
    parser.add_argument("--min-coverage", type=float, default=0.0,
                        help="minimum fraction of the global event extent "
                             "the union of spans must cover")
    parser.add_argument("--expect-span", action="append", default=[],
                        help="span name that must appear at least once "
                             "(repeatable)")
    parser.add_argument("--forbid-span", action="append", default=[],
                        help="span name that must never appear "
                             "(repeatable)")
    parser.add_argument("--expect-arg", action="append", default=[],
                        metavar="SPAN:KEY",
                        help="some SPAN event must carry the arg KEY "
                             "(repeatable)")
    parser.add_argument("--self-times", action="store_true",
                        help="print self and inclusive seconds per span "
                             "name")
    args = parser.parse_args()

    try:
        with open(args.trace) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load '{args.trace}': {e}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("top level is not an object with 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail("'traceEvents' is empty or not a list")
    dropped = doc.get("otherData", {}).get("droppedEvents")
    if not isinstance(dropped, int) or dropped < 0:
        fail("'otherData.droppedEvents' missing or invalid")

    # Schema + balance + monotonicity in one pass over file order.
    stacks = defaultdict(list)   # (pid, tid) -> [name, ...]
    last_ts = defaultdict(lambda: float("-inf"))  # tid -> last ts
    spans = []                   # (begin_ts, end_ts)
    begin_ts = defaultdict(list)
    names = set()
    arg_keys = defaultdict(set)  # span name -> arg keys seen on its events
    # Self times nest per thread: tid -> [[begin_ts, child_us], ...].
    open_by_tid = defaultdict(list)
    self_us = defaultdict(float)
    inclusive_us = defaultdict(float)
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph not in ("B", "E", "i", "M"):
            fail(f"event {i}: unexpected phase {ph!r}")
        if ph == "M":
            if ev.get("name") != "process_name":
                fail(f"event {i}: unexpected metadata {ev.get('name')!r}")
            continue
        for field in ("name", "pid", "tid", "ts"):
            if field not in ev:
                fail(f"event {i}: missing {field!r}")
        if not isinstance(ev["ts"], (int, float)):
            fail(f"event {i}: non-numeric ts")
        if ev["ts"] < last_ts[ev["tid"]]:
            fail(f"event {i}: ts went backwards on tid {ev['tid']} "
                 f"({ev['ts']} < {last_ts[ev['tid']]})")
        last_ts[ev["tid"]] = ev["ts"]
        if isinstance(ev.get("args"), dict):
            arg_keys[ev["name"]].update(ev["args"])
        track = (ev["pid"], ev["tid"])
        if ph == "B":
            stacks[track].append(ev["name"])
            begin_ts[track].append(ev["ts"])
            open_by_tid[ev["tid"]].append([ev["ts"], 0.0])
            names.add(ev["name"])
        elif ph == "E":
            if not stacks[track]:
                fail(f"event {i}: 'E' with empty stack on track {track}")
            opened = stacks[track].pop()
            if opened != ev["name"]:
                fail(f"event {i}: 'E' for {ev['name']!r} closes "
                     f"{opened!r} on track {track}")
            spans.append((begin_ts[track].pop(), ev["ts"]))
            opened_at, child_us = open_by_tid[ev["tid"]].pop()
            dur = ev["ts"] - opened_at
            self_us[opened] += dur - min(child_us, dur)
            inclusive_us[opened] += dur
            if open_by_tid[ev["tid"]]:
                open_by_tid[ev["tid"]][-1][1] += dur
        else:  # instant
            names.add(ev["name"])
    for track, stack in stacks.items():
        if stack:
            fail(f"unclosed span(s) {stack!r} on track {track}")
    if not spans:
        fail("no duration spans in the trace")

    for name in args.expect_span:
        if name not in names:
            fail(f"expected span {name!r} never appears "
                 f"(saw: {', '.join(sorted(names))})")
    for name in args.forbid_span:
        if name in names:
            fail(f"forbidden span {name!r} appears")
    for spec in args.expect_arg:
        span, sep, key = spec.partition(":")
        if not sep or not span or not key:
            fail(f"--expect-arg {spec!r} is not SPAN:KEY")
        if key not in arg_keys[span]:
            seen = ", ".join(sorted(arg_keys[span])) or "none"
            fail(f"no {span!r} event carries arg {key!r} (its args: {seen})")

    # Coverage: union of span intervals over the global event extent.
    all_ts = [ts for per_tid in (last_ts,) for ts in per_tid.values()]
    lo = min(b for b, _ in spans)
    hi = max(max(e for _, e in spans), max(all_ts))
    extent = hi - lo
    union = 0.0
    end = float("-inf")
    for b, e in sorted(spans):
        if b > end:
            union += e - b
            end = e
        elif e > end:
            union += e - end
            end = e
    coverage = union / extent if extent > 0 else 1.0
    if coverage < args.min_coverage:
        fail(f"span coverage {coverage:.3f} below required "
             f"{args.min_coverage:.3f}")

    n_spans = sum(1 for ev in events if ev.get("ph") == "B")
    n_instants = sum(1 for ev in events if ev.get("ph") == "i")
    print(f"check_trace: OK: {len(events)} events ({n_spans} spans, "
          f"{n_instants} instants, {dropped} dropped), "
          f"coverage {coverage:.3f}")
    if args.self_times:
        print(f"{'span':<24} {'self [s]':>14} {'inclusive [s]':>14}")
        for name in sorted(inclusive_us):
            print(f"{name:<24} {self_us[name] * 1e-6:>14.9f} "
                  f"{inclusive_us[name] * 1e-6:>14.9f}")


if __name__ == "__main__":
    main()

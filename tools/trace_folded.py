#!/usr/bin/env python3
"""Derives folded stacks from a flight-recorder Chrome trace.

Reads the trace TraceLog writes (VDRIFT_TRACE_JSON) and prints one line
per unique span/kernel stack, sorted:

  vdrift.pipeline.run_seconds;vdrift.pipeline.detect_seconds;tensor.matmul 4213

which is flamegraph.pl and speedscope input. Each count is the stack's
exclusive wall time in integer nanoseconds, summed over threads: time a
thread spent blocked shows under the stack that blocked, and only what
the trace ring still held is seen (the recorder keeps each thread's most
recent events). The derivation, per tid:

  * B/E span events pair into intervals (an E closes the innermost open B
    of its name); X op events are intervals [ts, ts + dur];
  * endpoints round to integer nanoseconds, intervals sort by (start
    ascending, end descending) and one stack sweep nests them, so an op
    in an op, an op in a span and a span opened inside an op (a waiting
    caller running a queued chunk) all nest;
  * a child is clamped to its parent's end, and self time is duration
    minus children, so the counts add up exactly to the root intervals.

An E with no open B (ring wrap, or a TraceSpan stopped from a foreign
thread) and a B never closed are skipped and counted, never attributed.
The summary line on stderr gives the root-interval total the counts sum
to, and `dropped N`: the events the recorder's rings overwrote before
the trace was written (the trace's otherData.dropped_events; "unknown"
when the trace does not say), so a wrapped trace is never mistaken for a
whole run.

Usage:
  tools/trace_folded.py trace.json > out.folded
  tools/trace_folded.py --self-test
"""

import argparse
import json
import sys


def intervals_by_tid(events):
    """Returns ({tid: [(start_ns, end_ns, order, name)]}, orphan_ends,
    unclosed_begins)."""
    by_tid = {}
    open_spans = {}
    orphans = 0
    for order, event in enumerate(events):
        phase = event.get("ph")
        tid = event.get("tid", 0)
        name = event["name"]
        ts = round(event["ts"] * 1000)
        spans = by_tid.setdefault(tid, [])
        stack = open_spans.setdefault(tid, [])
        if phase == "X":
            end = round((event["ts"] + event.get("dur", 0.0)) * 1000)
            spans.append((ts, end, order, name))
        elif phase == "B":
            stack.append((ts, order, name))
        elif phase == "E":
            match = next((i for i in range(len(stack) - 1, -1, -1)
                          if stack[i][2] == name), None)
            if match is None:
                orphans += 1
                continue
            start, begin_order, _ = stack[match]
            # Spans opened above the match stay on the stack: their own E
            # may still come; if not, they count as unclosed.
            del stack[match]
            spans.append((start, ts, begin_order, name))
    unclosed = sum(len(stack) for stack in open_spans.values())
    return by_tid, orphans, unclosed


def fold(events):
    """Returns ({stack: self_ns}, root_total_ns, orphan_ends,
    unclosed_begins)."""
    by_tid, orphans, unclosed = intervals_by_tid(events)
    folded = {}
    root_total = 0

    def close(frame):
        path, start, end, children = frame
        self_ns = end - start - children
        folded[path] = folded.get(path, 0) + self_ns

    for spans in by_tid.values():
        spans.sort(key=lambda s: (s[0], -s[1], s[2]))
        # Frames: [path, start, end, children_ns].
        stack = []
        for start, end, _, name in spans:
            while stack and stack[-1][2] <= start:
                close(stack.pop())
            if stack:
                parent = stack[-1]
                end = min(end, parent[2])
                parent[3] += end - start
                path = parent[0] + ";" + name
            else:
                root_total += end - start
                path = name
            stack.append([path, start, end, 0])
        while stack:
            close(stack.pop())
    return folded, root_total, orphans, unclosed


def folded_text(folded):
    return "".join(f"{stack} {count}\n"
                   for stack, count in sorted(folded.items()) if count > 0)


def self_test():
    failures = []

    def span(tid, name, begin, end):
        return [{"name": name, "ph": "B", "ts": begin, "tid": tid},
                {"name": name, "ph": "E", "ts": end, "tid": tid}]

    def op(tid, name, ts, dur):
        return {"name": name, "ph": "X", "ts": ts, "dur": dur, "tid": tid}

    def check(label, events, want_text, want_total, want_orphans=0,
              want_unclosed=0):
        # The trace's own order is (tid, ts); feed the same.
        events = sorted(events, key=lambda e: (e["tid"], e["ts"]))
        folded, total, orphans, unclosed = fold(events)
        text = folded_text(folded)
        problems = []
        if text != want_text:
            problems.append(f"folded {text!r} != {want_text!r}")
        if total != want_total:
            problems.append(f"root total {total} != {want_total}")
        if sum(folded.values()) != total:
            problems.append(f"counts sum {sum(folded.values())} != root "
                            f"total {total}")
        if (orphans, unclosed) != (want_orphans, want_unclosed):
            problems.append(f"skipped (orphan E, unclosed B) = "
                            f"{(orphans, unclosed)} != "
                            f"{(want_orphans, want_unclosed)}")
        status = "FAIL" if problems else "ok"
        print(f"  [{status}] {label}"
              f"{(' — ' + '; '.join(problems)) if problems else ''}")
        if problems:
            failures.append(label)

    # Times in microseconds, as TraceLog writes them; counts are ns.
    check("X inside X",
          [op(1, "nn.conv2d_forward", 0.0, 10.0),
           op(1, "tensor.matmul", 2.0, 5.0)],
          "nn.conv2d_forward 5000\n"
          "nn.conv2d_forward;tensor.matmul 5000\n", 10000)
    check("X inside a B/E span",
          span(1, "run", 0.0, 10.0) + [op(1, "tensor.matmul", 1.5, 2.0)],
          "run 8000\nrun;tensor.matmul 2000\n", 10000)
    check("span opened inside an X on the same tid",
          [op(1, "tensor.matmul", 0.0, 10.0)] + span(1, "chunk", 3.0, 7.0),
          "tensor.matmul 6000\ntensor.matmul;chunk 4000\n", 10000)
    check("equal stacks on two tids sum",
          span(1, "run", 0.0, 4.0) + [op(1, "tensor.im2col", 1.0, 1.0)]
          + span(2, "run", 0.5, 2.5) + [op(2, "tensor.im2col", 1.0, 0.5)],
          "run 4500\nrun;tensor.im2col 1500\n", 6000)
    check("equal-start tie nests the longer interval outside",
          span(1, "run", 0.0, 10.0) + [op(1, "tensor.matmul", 0.0, 4.0),
                                       op(1, "nn.linear_forward", 0.0, 6.0)],
          "run 4000\nrun;nn.linear_forward 2000\n"
          "run;nn.linear_forward;tensor.matmul 4000\n", 10000)
    check("back-to-back ops stay siblings; a covered parent prints no line",
          span(1, "run", 0.0, 4.0) + [op(1, "tensor.im2col", 0.0, 2.0),
                                      op(1, "tensor.matmul", 2.0, 2.0)],
          "run;tensor.im2col 2000\nrun;tensor.matmul 2000\n", 4000)
    check("child overrunning its parent is clamped to the parent's end",
          span(1, "run", 0.0, 10.0) + [op(1, "tensor.matmul", 8.0, 4.0)],
          "run 8000\nrun;tensor.matmul 2000\n", 10000)
    check("orphan E and unclosed B are skipped and counted",
          [{"name": "lost_begin", "ph": "E", "ts": 1.0, "tid": 1},
           {"name": "never_ended", "ph": "B", "ts": 2.0, "tid": 1}]
          + span(1, "run", 3.0, 5.0),
          "run 2000\n", 2000, want_orphans=1, want_unclosed=1)

    if failures:
        print(f"self-test: {len(failures)} FAILURE(S): {failures}",
              file=sys.stderr)
        return 1
    print("self-test: all checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trace", nargs="?",
                        help="Chrome trace JSON written by TraceLog")
    parser.add_argument("--self-test", action="store_true",
                        help="run the synthetic-trace self-test and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.trace:
        parser.error("a trace path is required (or use --self-test)")
    try:
        with open(args.trace) as f:
            doc = json.load(f)
        events = doc["traceEvents"]
        dropped = doc.get("otherData", {}).get("dropped_events", "unknown")
        folded, total, orphans, unclosed = fold(events)
    except (OSError, ValueError, KeyError, TypeError) as err:
        print(f"FAIL: {args.trace}: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(folded_text(folded))
    threads = len({event.get("tid", 0) for event in events})
    print(f"trace_folded: {sum(1 for c in folded.values() if c > 0)} "
          f"stacks, root_total_ns={total} over {threads} thread(s); "
          f"skipped {orphans} orphan E, {unclosed} unclosed B; "
          f"dropped {dropped} event(s)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

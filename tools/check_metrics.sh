#!/usr/bin/env bash
# Runs one bench harness with the full observability surface armed and
# validates everything it emits:
#   - the metrics JSON report (counters, DI latency histogram, episodes,
#     SLO alerts array — empty on this clean run),
#   - the flight-recorder Chrome trace (well-formed event array, ph in
#     {B,E,X}, monotonic timestamps per tid, nested pipeline stage spans,
#     tensor-op events carrying FLOP args),
#   - the OpenMetrics text exposition (family grammar, counter _total
#     suffix, cumulative histogram buckets ending in +Inf == _count,
#     terminating # EOF),
#   - the sampler's JSONL time series (per-window counter deltas sum
#     exactly to the final cumulative totals; render_timeline.py parses it),
#   - the sampling profiler's folded-stack output (flamegraph.pl grammar:
#     "frame(;frame)* count" per line, samples attributed to spans/kernels),
#   - the harness's run-ledger JSONL record (schema, machine fingerprint,
#     env knobs, every stage populated with quantiles in order, raw
#     samples on at least one stage, positive headline throughput,
#     per-kernel op-probe table; parses back through compare_bench.py's
#     loader).
# A second, smoke-sized run with VDRIFT_FAULT_SPEC set then asserts the
# SLO watchdog actually fires: injected faults must surface as alerts
# attributable to the fault kind, and the clean run above must have none.
#
# Usage: tools/check_metrics.sh [build_dir]
# Env:   VDRIFT_BENCH_DATASET (default Tokyo — the cheapest workbench).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
BENCH="$BUILD_DIR/bench/bench_table6_detection_time"
if [[ ! -x "$BENCH" ]]; then
  echo "FAIL: $BENCH not built (cmake --build $BUILD_DIR first)" >&2
  exit 1
fi

# Static checks first: cheap, and a lint-dirty tree fails fast before the
# bench run (see DESIGN.md 5e).
echo "running vdrift-lint over src/..."
python3 tools/vdrift_lint.py

export VDRIFT_BENCH_DATASET="${VDRIFT_BENCH_DATASET:-Tokyo}"
# Every pass writes into one scratch dir. The fault and fleet passes also
# append their harness records to $LEDGER, after it has been checked.
OUT="$(mktemp -d /tmp/vdrift_check.XXXXXX)"
trap 'rm -rf "$OUT"' EXIT
REPORT="$OUT/metrics.json"
TRACE="$OUT/trace.json"
OPENMETRICS="$OUT/metrics.openmetrics"
JSONL="$OUT/windows.jsonl"
FOLDED="$OUT/profile.folded"
LEDGER="$OUT/ledger.jsonl"
FAULT_REPORT="$OUT/metrics_fault.json"
FLEET_REPORT="$OUT/metrics_fleet.json"
export VDRIFT_METRICS_JSON="$REPORT"
export VDRIFT_TRACE_JSON="$TRACE"
export VDRIFT_METRICS_OPENMETRICS="$OPENMETRICS"
export VDRIFT_METRICS_JSONL="$JSONL"
export VDRIFT_PROFILE_FOLDED="$FOLDED"
export VDRIFT_BENCH_LEDGER="$LEDGER"
export VDRIFT_SAMPLE_INTERVAL="${VDRIFT_SAMPLE_INTERVAL:-32}"
export VDRIFT_SLO_SPEC="${VDRIFT_SLO_SPEC:-default}"

echo "running $BENCH (dataset=$VDRIFT_BENCH_DATASET, trace+sampler+slo+profiler+ledger armed)..."
"$BENCH"

for f in "$REPORT" "$TRACE" "$OPENMETRICS" "$JSONL" "$FOLDED" "$LEDGER"; do
  if [[ ! -s "$f" ]]; then
    echo "FAIL: bench did not write $f" >&2
    exit 1
  fi
done

python3 - "$REPORT" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)

def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)

if not report.get("counters"):
    fail("no counters in report")
if not any(name.startswith('vdrift.di.detections{')
           for name in report["counters"]):
    fail("no labeled vdrift.di.detections{dataset=...} counter")
hist = report.get("histograms", {}).get("vdrift.di.observe_seconds")
if hist is None:
    fail("missing vdrift.di.observe_seconds histogram")
if hist.get("count", 0) <= 0:
    fail("DI latency histogram is empty")
for q in ("p50", "p99"):
    if q not in hist:
        fail(f"DI latency histogram missing {q}")
    if not (0 <= hist[q] <= hist.get("max", float("inf")) + 1e-12):
        fail(f"DI latency {q}={hist[q]} outside [0, max]")
for name, h in report.get("histograms", {}).items():
    if h.get("count", 0) == 0 and "p50" in h:
        fail(f"empty histogram {name} still exports quantile keys")
episodes = report.get("episodes")
if not episodes:
    fail("no drift episodes captured")
for episode in episodes:
    if not episode.get("frames"):
        fail("episode with empty frame trace")
    if not episode["frames"][-1].get("drift"):
        fail("episode trace does not end on the drift frame")
alerts = report.get("alerts")
if alerts is None:
    fail("report has no alerts key")
if alerts:
    fail(f"clean run raised SLO alerts: {alerts}")

print(f"OK: {len(report['counters'])} counters, "
      f"{len(report.get('histograms', {}))} histograms, "
      f"DI p50={hist['p50']:.6f}s p99={hist['p99']:.6f}s, "
      f"{len(episodes)} drift episode(s), 0 alerts (clean)")
EOF

python3 - "$TRACE" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    trace = json.load(f)

def fail(msg):
    print(f"FAIL: trace: {msg}", file=sys.stderr)
    sys.exit(1)

events = trace.get("traceEvents")
if not isinstance(events, list) or not events:
    fail("traceEvents missing or empty")
last_ts = {}
names = set()
op_events = 0
flop_events = 0
for e in events:
    ph = e.get("ph")
    if ph not in ("B", "E", "X"):
        fail(f"bad phase {ph!r} in event {e}")
    for key in ("name", "ts", "pid", "tid"):
        if key not in e:
            fail(f"event missing {key}: {e}")
    tid = e["tid"]
    if e["ts"] < last_ts.get(tid, float("-inf")):
        fail(f"timestamps not monotonic on tid {tid} at {e['name']}")
    last_ts[tid] = e["ts"]
    names.add(e["name"])
    if e.get("cat") == "op":
        op_events += 1
        if ph != "X":
            fail("op event without complete (X) phase")
        if "dur" not in e:
            fail("op event missing dur")
        if e.get("args", {}).get("flops", 0) > 0:
            flop_events += 1
for stage in ("vdrift.pipeline.run_seconds",
              "vdrift.pipeline.detect_seconds",
              "vdrift.pipeline.select_seconds",
              "vdrift.pipeline.query_seconds"):
    if stage not in names:
        fail(f"missing pipeline stage span {stage}")
if op_events == 0:
    fail("no tensor/nn op events recorded")
if flop_events == 0:
    fail("no op event carries a positive FLOP count")

print(f"OK: trace has {len(events)} events on {len(last_ts)} thread(s), "
      f"{op_events} op event(s) ({flop_events} with FLOPs), "
      f"nested pipeline stage spans present")
EOF

python3 - "$OPENMETRICS" <<'EOF'
import re
import sys

with open(sys.argv[1]) as f:
    lines = f.read().splitlines()

def fail(msg):
    print(f"FAIL: openmetrics: {msg}", file=sys.stderr)
    sys.exit(1)

if not lines or lines[-1] != "# EOF":
    fail("document does not end with # EOF")
NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
LABELS = r"\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\"" \
         r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\}"
SAMPLE = re.compile(rf"^({NAME})({LABELS})? (\S+)$")
TYPE = re.compile(rf"^# TYPE ({NAME}) (counter|gauge|histogram)$")
families = {}
current = None
samples = 0
labeled = 0
hist_state = {}
for i, line in enumerate(lines[:-1], 1):
    m = TYPE.match(line)
    if m:
        family, kind = m.groups()
        if family in families:
            fail(f"line {i}: duplicate family {family}")
        families[family] = kind
        current = (family, kind)
        continue
    m = SAMPLE.match(line)
    if m is None:
        fail(f"line {i}: unparsable line {line!r}")
    name, labels, value = m.group(1), m.group(2), m.group(3)
    if current is None:
        fail(f"line {i}: sample before any # TYPE")
    family, kind = current
    samples += 1
    if labels:
        labeled += 1
    try:
        number = float(value.replace("+Inf", "inf"))
    except ValueError:
        fail(f"line {i}: bad sample value {value!r}")
    if kind == "counter":
        if name != family + "_total":
            fail(f"line {i}: counter sample {name} lacks _total suffix")
        if number < 0:
            fail(f"line {i}: negative counter {name}")
    elif kind == "gauge":
        if name != family:
            fail(f"line {i}: gauge sample {name} != family {family}")
    else:
        # The le label distinguishes buckets *within* one series — group
        # histogram state by the labels with le stripped out.
        pairs = re.findall(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"',
                           labels or "")
        kept = [f'{k}="{v}"' for k, v in pairs if k != "le"]
        series = "{" + ",".join(kept) + "}" if kept else ""
        state = hist_state.setdefault((family, series),
                                      {"last": -1.0, "inf": None, "count": None})
        if name == family + "_bucket":
            le = re.search(r'le="([^"]*)"', labels or "")
            if le is None:
                fail(f"line {i}: histogram bucket without le label")
            if le.group(1) == "+Inf":
                state["inf"] = number
            else:
                if number < state["last"]:
                    fail(f"line {i}: non-cumulative buckets in {family}")
                state["last"] = number
        elif name == family + "_count":
            state["count"] = number
        elif name != family + "_sum":
            fail(f"line {i}: unexpected histogram sample {name}")
for (family, labels), state in hist_state.items():
    if state["inf"] is None:
        fail(f"histogram {family}{labels} has no +Inf bucket")
    if state["count"] is None:
        fail(f"histogram {family}{labels} has no _count")
    if state["inf"] != state["count"]:
        fail(f"histogram {family}{labels}: +Inf bucket {state['inf']} "
             f"!= _count {state['count']}")
    if state["last"] > state["inf"]:
        fail(f"histogram {family}{labels}: finite bucket exceeds +Inf")
if labeled == 0:
    fail("no labeled series (expected vdrift_di_detections{dataset=...})")

print(f"OK: openmetrics: {len(families)} families, {samples} samples "
      f"({labeled} labeled), histograms cumulative and +Inf == _count")
EOF

python3 - "$JSONL" <<'EOF'
import json
import sys

def fail(msg):
    print(f"FAIL: jsonl: {msg}", file=sys.stderr)
    sys.exit(1)

windows = []
with open(sys.argv[1]) as f:
    for n, line in enumerate(f, 1):
        try:
            windows.append(json.loads(line))
        except json.JSONDecodeError as err:
            fail(f"line {n}: invalid JSON: {err}")
if not windows:
    fail("no windows sampled")
deltas = {}
finals = {}
prev_index = -1
prev_end = float("-inf")
for w in windows:
    if w["window"] != prev_index + 1:
        fail(f"window indices not consecutive at {w['window']}")
    prev_index = w["window"]
    if w["end"] < prev_end:
        fail(f"window end times not monotonic at {w['window']}")
    prev_end = w["end"]
    for name, c in w["counters"].items():
        deltas[name] = deltas.get(name, 0) + c["delta"]
        finals[name] = c["total"]
    for name, h in w.get("histograms", {}).items():
        if h.get("count", 0) <= 0:
            fail(f"window {w['window']}: empty histogram {name} exported")
if deltas != finals:
    bad = {k: (deltas.get(k), finals.get(k))
           for k in set(deltas) | set(finals)
           if deltas.get(k) != finals.get(k)}
    fail(f"window deltas do not sum to final totals: {bad}")

print(f"OK: jsonl: {len(windows)} window(s), "
      f"{len(finals)} counter(s) — deltas sum exactly to cumulative totals")
EOF

echo "rendering timeline from the JSONL series..."
python3 tools/render_timeline.py "$JSONL" --report "$REPORT" | tail -n 3

python3 - "$FOLDED" <<'EOF'
import re
import sys

def fail(msg):
    print(f"FAIL: folded: {msg}", file=sys.stderr)
    sys.exit(1)

# flamegraph.pl input: "frame(;frame)* count", frames non-empty, count a
# positive integer.
# flamegraph.pl grammar: the count is whatever follows the LAST space —
# frames themselves may contain spaces (e.g. the "(no span)" sentinel).
LINE = re.compile(r"^([^;]+(?:;[^;]+)*) (\d+)$")
with open(sys.argv[1]) as f:
    lines = f.read().splitlines()
if not lines:
    fail("profiler armed but wrote no samples (CPU-bound run expected)")
total = 0
stacks = set()
attributed = 0
for n, line in enumerate(lines, 1):
    m = LINE.match(line)
    if m is None:
        fail(f"line {n}: not folded-stack grammar: {line!r}")
    stack, count = m.group(1), int(m.group(2))
    if count <= 0:
        fail(f"line {n}: non-positive count")
    if stack in stacks:
        fail(f"line {n}: duplicate stack {stack!r} (aggregation broken)")
    stacks.add(stack)
    total += count
    if stack != "(no span)":
        attributed += 1
if attributed == 0:
    fail("no sample attributed to any span/kernel context")

print(f"OK: folded: {len(lines)} unique stack(s), {total} sample(s), "
      f"{attributed} attributed to span/kernel contexts")
EOF

python3 - "$LEDGER" <<'EOF'
import json
import sys

def fail(msg):
    print(f"FAIL: ledger: {msg}", file=sys.stderr)
    sys.exit(1)

with open(sys.argv[1]) as f:
    lines = [l for l in f.read().splitlines() if l.strip()]
if len(lines) != 1:
    fail(f"expected exactly 1 record from 1 run, found {len(lines)}")
rec = json.loads(lines[0])
for key in ("schema", "bench", "git_rev", "unix_time", "machine", "env",
            "stages", "kernels", "throughput_fps"):
    if key not in rec:
        fail(f"record missing {key}")
for key in ("cpu_model", "cores", "governor", "id", "page_size"):
    if key not in rec["machine"]:
        fail(f"machine fingerprint missing {key}")
if not rec["machine"]["id"]:
    fail("machine fingerprint has no id")
for key in ("repeats", "warmup", "seed", "smoke", "dataset_filter",
            "threads", "kernel_profile"):
    if key not in rec["env"]:
        fail(f"env knobs missing {key}")
if int(rec["env"]["threads"]) < 1:
    fail(f"env threads {rec['env']['threads']} is not a resolved count")
if not rec["stages"]:
    fail("no stages in ledger record")
sampled = 0
for name, stage in rec["stages"].items():
    # The record writes shape keys only for stages with samples, so
    # requiring them on every stage also rejects an empty stage.
    for key in ("count", "sum", "min", "max", "p50", "p90", "p99"):
        if key not in stage:
            fail(f"stage {name} missing {key}")
    if stage["count"] <= 0:
        fail(f"stage {name} is empty")
    if not (stage["p50"] <= stage["p90"] + 1e-12
            and stage["p90"] <= stage["p99"] + 1e-12):
        fail(f"stage {name} quantiles not ordered: "
             f"{stage['p50']} / {stage['p90']} / {stage['p99']}")
    # Raw repeat-level samples are per-stage optional (stages imported
    # from a pipeline's own metrics registry only have histograms), but
    # at least one harness-recorded stage must carry them.
    if stage.get("samples"):
        sampled += 1
if sampled == 0:
    fail("no stage carries repeat-level samples")
if rec["throughput_fps"] <= 0:
    fail(f"non-positive throughput_fps {rec['throughput_fps']}")
if not rec["kernels"]:
    fail("no kernels in ledger record (op probes inactive?)")
for name, kernel in rec["kernels"].items():
    for key in ("calls", "flops", "bytes", "seconds"):
        if key not in kernel:
            fail(f"kernel {name} missing {key}")
timed = sum(1 for k in rec["kernels"].values() if k["seconds"] > 0)
if timed == 0:
    fail("no kernel carries timing (kernel profiling was armed)")

print(f"OK: ledger: 1 record {rec['bench']} @ {rec['git_rev']}, "
      f"{len(rec['stages'])} stage(s) ({sampled} with raw samples), "
      f"throughput {rec['throughput_fps']:.2f} fps, "
      f"{len(rec['kernels'])} kernel(s) ({timed} timed), "
      f"{rec['env']['threads']} thread(s), machine id {rec['machine']['id']}")
EOF

echo "round-tripping the ledger through the statistical gate (--smoke)..."
python3 tools/compare_bench.py --baseline "$LEDGER" --candidate "$LEDGER" \
  --smoke

# --- Fault pass: injected faults must surface as SLO alerts. ---
echo "running fault pass (smoke, nan_frame + selector_fail injected)..."
VDRIFT_BENCH_SMOKE=1 \
  VDRIFT_FAULT_SPEC="nan_frame:p=0.1;selector_fail:p=0.8" \
  VDRIFT_METRICS_JSON="$FAULT_REPORT" \
  VDRIFT_TRACE_JSON="" VDRIFT_METRICS_OPENMETRICS="" \
  VDRIFT_METRICS_JSONL="" VDRIFT_PROFILE_FOLDED="" \
  "$BENCH" > /dev/null

python3 - "$FAULT_REPORT" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)

def fail(msg):
    print(f"FAIL: fault pass: {msg}", file=sys.stderr)
    sys.exit(1)

alerts = report.get("alerts")
if not alerts:
    fail("injected faults raised no SLO alerts")
# nan_frame poisons pixels -> dropped frames; selector_fail ->
# selection failures (and possibly drift-oblivious degradation).
attributable = {"frame_drop_ratio", "selector_failures", "drift_oblivious"}
rules = {a["rule"] for a in alerts}
if not rules & attributable:
    fail(f"alerts {rules} not attributable to the injected fault kinds")
for a in alerts:
    for key in ("rule", "window", "time", "value", "op", "threshold",
                "message"):
        if key not in a:
            fail(f"alert missing key {key}: {a}")

print(f"OK: fault pass: {len(alerts)} alert(s) on rules {sorted(rules)}")
EOF

# --- Fleet pass: per-stream series must sum to the fleet aggregates. ---
FLEET_BENCH="$BUILD_DIR/bench/bench_fleet"
if [[ ! -x "$FLEET_BENCH" ]]; then
  echo "FAIL: $FLEET_BENCH not built (cmake --build $BUILD_DIR first)" >&2
  exit 1
fi
echo "running fleet pass (smoke, 2 streams, per-stream metrics)..."
VDRIFT_BENCH_SMOKE=1 \
  VDRIFT_METRICS_JSON="$FLEET_REPORT" \
  VDRIFT_TRACE_JSON="" VDRIFT_METRICS_OPENMETRICS="" \
  VDRIFT_METRICS_JSONL="" VDRIFT_PROFILE_FOLDED="" \
  "$FLEET_BENCH" > /dev/null

python3 - "$FLEET_REPORT" <<'EOF'
import json
import re
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)

def fail(msg):
    print(f"FAIL: fleet pass: {msg}", file=sys.stderr)
    sys.exit(1)

counters = report.get("counters") or {}
LABELED = re.compile(r'^(?P<family>[^{]+)\{stream="(?P<stream>[^"]+)"\}$')
sums = {}
streams = set()
for name, value in counters.items():
    m = LABELED.match(name)
    if m is None:
        continue
    sums.setdefault(m.group("family"), 0)
    sums[m.group("family")] += value
    streams.add(m.group("stream"))
if len(streams) < 2:
    fail(f"expected >= 2 per-stream series, saw streams {sorted(streams)}")
# Every labeled pipeline counter family must sum exactly to its unlabeled
# fleet aggregate (the barrier's delta-folding invariant).
checked = 0
for family, labeled_sum in sorted(sums.items()):
    aggregate = counters.get(family)
    if aggregate is None:
        fail(f"labeled family {family} has no unlabeled aggregate")
    if labeled_sum != aggregate:
        fail(f"{family}: sum of per-stream series {labeled_sum} "
             f"!= aggregate {aggregate}")
    checked += 1
if checked == 0:
    fail("no labeled counter families found")
frames = counters.get("vdrift.pipeline.frames", 0)
if frames <= 0:
    fail("fleet processed no frames")
if counters.get("vdrift.fleet.rounds", 0) <= 0:
    fail("fleet recorded no scheduling rounds")

# Supervision: every stream must expose a health gauge whose value is a
# legal HealthState (0=healthy .. 4=retired).
gauges = report.get("gauges") or {}
HEALTH = re.compile(r'^vdrift\.serve\.health\{stream="(?P<stream>[^"]+)"\}$')
health = {}
for name, value in gauges.items():
    m = HEALTH.match(name)
    if m is not None:
        health[m.group("stream")] = value
missing = streams - set(health)
if missing:
    fail(f"streams {sorted(missing)} have no vdrift.serve.health gauge")
for stream, value in sorted(health.items()):
    if value != int(value) or not 0 <= value <= 4:
        fail(f'vdrift.serve.health{{stream="{stream}"}} = {value} is not a '
             "HealthState in [0, 4]")

# Publication gate: the {reason=...} rejection series must sum exactly to
# the unlabeled aggregate (both zero when nothing was rejected).
REASON = re.compile(r'^vdrift\.serve\.publish_rejected\{reason="[^"]+"\}$')
reason_sum = sum(v for n, v in counters.items() if REASON.match(n))
rejected = counters.get("vdrift.serve.publish_rejected")
if rejected is None:
    fail("vdrift.serve.publish_rejected aggregate counter is missing")
if reason_sum != rejected:
    fail(f"publish_rejected {{reason=...}} series sum {reason_sum} "
         f"!= aggregate {rejected}")

print(f"OK: fleet pass: {checked} counter families over "
      f"{len(streams)} streams sum exactly to the fleet aggregates "
      f"({frames} frames); {len(health)} health gauges in range; "
      f"publish_rejected reasons sum to {rejected}")
EOF

echo "ALL CHECKS PASSED"

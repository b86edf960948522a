#!/usr/bin/env bash
# Re-captures the committed perf baseline (bench/baselines/threads1/) in
# the multi-repeat ledger format the statistical gate needs.
#
# A baseline is a distribution, not a number: this runs the full bench
# suite RUNS times, appending every run's LedgerRecord — repeat-level
# samples, per-kernel FLOPs/bytes/time, machine fingerprint, env knobs —
# to <name>.jsonl in the baseline directory. compare_bench.py then
# estimates the machine's noise floor from the spread instead of trusting
# any single run (and warns when a candidate's fingerprint differs from
# the one recorded here).
#
# Usage: tools/rebaseline.sh [options] [bench ...]
#   --runs N        full suite passes to record (default: 3; more runs =
#                   tighter noise estimate)
#   --out DIR       baseline dir (default: bench/baselines/threads1)
#   --threads N     VDRIFT_THREADS for every run (default: 1)
#   --keep          keep existing ledger files in the baseline dir
#                   (default: start fresh — a baseline mixes revisions
#                   only when you explicitly ask it to)
#   bench ...       subset to re-baseline (default: all migrated benches)
set -euo pipefail

cd "$(dirname "$0")/.."

RUNS=3
OUT_DIR="bench/baselines/threads1"
THREADS=1
KEEP=0
BENCHES=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --runs) RUNS="$2"; shift 2 ;;
    --out) OUT_DIR="$2"; shift 2 ;;
    --threads) THREADS="$2"; shift 2 ;;
    --keep) KEEP=1; shift ;;
    -h|--help) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    -*) echo "unknown option: $1" >&2; exit 2 ;;
    *) BENCHES+=("$1"); shift ;;
  esac
done

if ! git diff --quiet HEAD -- src bench 2>/dev/null; then
  echo "warning: src/ or bench/ has uncommitted changes; the recorded" >&2
  echo "         git_rev will not describe what actually ran" >&2
fi

mkdir -p "$OUT_DIR"
if [[ "$KEEP" -eq 0 ]]; then
  rm -f "$OUT_DIR"/*.jsonl
fi

for run in $(seq 1 "$RUNS"); do
  echo
  echo "==== baseline run $run/$RUNS ===="
  tools/run_bench_suite.sh --threads "$THREADS" --out-dir "$OUT_DIR" \
    "${BENCHES[@]+"${BENCHES[@]}"}"
done

echo
echo "==== baseline sanity: the new baseline must accept its own runs ===="
# Identical binary, same machine, same env: a verdict other than PASS here
# means the gate (or the machine) is broken — fail loudly now, not in CI.
python3 tools/compare_bench.py --baseline "$OUT_DIR" --candidate "$OUT_DIR"

echo
ls -l "$OUT_DIR"
echo "rebaseline OK: $RUNS run(s) per bench recorded in $OUT_DIR"

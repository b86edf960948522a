#!/usr/bin/env python3
"""Variance-aware perf-regression gate over bench run ledgers.

The old gate compared two single runs against a fixed threshold; that is
how a 28% code-layout swing (PR 5, msbo_select) and a 1.3x one-off
(PR 7, classifier_predict) both produced false alarms. This gate is
statistical instead:

  * Evidence is repeat-level: each side contributes every raw sample it
    has — per-repeat wall times from each stage's "samples" array, across
    every record of a run ledger (.jsonl, one record per bench run).
  * The noise floor is estimated from the data (median absolute
    deviation, scaled to sigma), never assumed.
  * The verdict comes from a seeded bootstrap confidence interval on the
    ratio of medians: "regressed" only when the whole CI clears the
    noise margin, "improved" when it clears it downward, "pass"
    otherwise. One loud run cannot fail the gate by itself.
  * On "regressed", the per-kernel op-probe tables are diffed and the
    kernels whose time moved are named, separating count changes (the
    workload changed) from per-call latency changes (the code got
    slower), and flagging the layout-luck signature — per-call latency
    moved while FLOPs and calls stayed bit-identical — which is exactly
    what PR 5 diagnosed by hand.

Inputs are ledger .jsonl files (one record per run) or directories of
them; sides are paired by bench name. Machine fingerprints are checked:
comparing across different fingerprint ids downgrades the verdict to a
warning, because such numbers are not comparable evidence.

Usage:
  tools/compare_bench.py --baseline bench/baselines/threads1 --candidate out/
  tools/compare_bench.py --baseline base.jsonl --candidate out/x.jsonl
  tools/compare_bench.py --baseline base/ --candidate out/ --json
  tools/compare_bench.py --baseline base/ --candidate out/ --smoke
  tools/compare_bench.py --self-test

Exit codes: 0 = pass/improved, 1 = regression, 2 = usage/schema error.
--smoke only checks structure (reports parse, stages shared), never perf:
smoke runs are 1-repeat liveness probes, not measurements.
"""

import argparse
import json
import math
import os
import random
import sys

# MAD -> sigma for a normal distribution.
MAD_SCALE = 1.4826
# Relative tolerance below which two call counts are "the same workload".
CALLS_SAME_TOL = 0.01
# Per-call latency must move at least this much to be named a mover.
KERNEL_MOVE_TOL = 0.10


# ---------------------------------------------------------------------------
# Small robust-statistics helpers (no numpy in the container).

def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def mad(values):
    """Median absolute deviation (unscaled)."""
    if len(values) < 2:
        return 0.0
    center = median(values)
    return median([abs(v - center) for v in values])


def percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def bootstrap_ratio_ci(base, cand, rng, iterations, confidence=0.95):
    """CI for median(cand)/median(base) by resampling both sides."""
    ratios = []
    for _ in range(iterations):
        b = median([rng.choice(base) for _ in base])
        c = median([rng.choice(cand) for _ in cand])
        if b > 0:
            ratios.append(c / b)
    ratios.sort()
    alpha = (1.0 - confidence) / 2.0
    return percentile(ratios, alpha), percentile(ratios, 1.0 - alpha)


# ---------------------------------------------------------------------------
# Loading: every input becomes a list of uniform "run" dicts.

def run_from_ledger_record(rec, path):
    for key in ("bench", "stages"):
        if key not in rec:
            raise ValueError(f"{path}: not a ledger record (missing {key!r})")
    stages = {}
    for name, st in rec["stages"].items():
        if st.get("count", 0) <= 0 or "p50" not in st:
            continue
        stages[name] = {
            "p50": float(st["p50"]),
            "count": int(st.get("count", 0)),
            "samples": [float(s) for s in st.get("samples", [])],
        }
    kernels = {}
    for name, k in (rec.get("kernels") or {}).items():
        kernels[name] = {
            "calls": int(k.get("calls", 0)),
            "flops": int(k.get("flops", 0)),
            "bytes": int(k.get("bytes", 0)),
            "seconds": float(k.get("seconds", 0.0)),
        }
    machine = rec.get("machine") or {}
    return {
        "bench": rec["bench"],
        "git_rev": rec.get("git_rev") or "unknown",
        "machine_id": machine.get("id", "unknown"),
        "machine": machine,
        "stages": stages,
        "kernels": kernels,
        "throughput": float(rec.get("throughput_fps") or 0.0),
    }


def load_runs_file(path, sink, corrupt):
    """Appends the run records in ledger `path` into sink[bench_name]."""
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                run = run_from_ledger_record(json.loads(line), path)
            except (json.JSONDecodeError, ValueError, TypeError):
                # Torn append / truncation: skip and count, the rest of
                # the history is still evidence.
                corrupt.append(path)
                continue
            sink.setdefault(run["bench"], []).append(run)


def load_side(path):
    """Loads a file or directory into {bench_name: [run, ...]}."""
    sink = {}
    corrupt = []
    if os.path.isdir(path):
        files = [os.path.join(path, n) for n in sorted(os.listdir(path))
                 if n.endswith(".jsonl")]
        if not files:
            raise ValueError(f"no *.jsonl in {path}")
        for f in files:
            load_runs_file(f, sink, corrupt)
    else:
        load_runs_file(path, sink, corrupt)
    if corrupt:
        print(f"  note: skipped {len(corrupt)} corrupt ledger line(s)",
              file=sys.stderr)
    if not sink:
        raise ValueError(f"no parsable runs in {path}")
    return sink


# ---------------------------------------------------------------------------
# The verdict machinery.

def gather_stage_evidence(runs, stage):
    """Evidence for `stage`: (pooled samples, per-run medians).

    The pooled repeat-level samples feed the bootstrap CI on the ratio of
    medians. The per-run medians are the repeat dimension for the noise
    margin: spread *within* a run measures workload heterogeneity (some
    frames are simply slower than others), spread *between* runs measures
    the machine noise a verdict must clear. Stages with no raw samples
    fall back to each run's recorded p50 for both."""
    pooled = []
    run_medians = []
    for run in runs:
        stats = run["stages"].get(stage)
        if stats is None:
            continue
        raw = stats.get("samples") or []
        if raw:
            pooled.extend(raw)
            run_medians.append(median(raw))
        else:
            run_medians.append(stats["p50"])
    if not pooled:
        pooled = list(run_medians)
    return pooled, run_medians


def decide(base_vals, cand_vals, opts, rng,
           base_run_meds=None, cand_run_meds=None):
    """Returns (verdict, detail) for one metric, where verdict is one of
    "pass" / "regressed" / "improved" and detail is JSON-serialisable."""
    base_med = median(base_vals)
    cand_med = median(cand_vals)
    detail = {
        "baseline_median": base_med,
        "candidate_median": cand_med,
        "baseline_n": len(base_vals),
        "candidate_n": len(cand_vals),
    }
    if base_med <= 0:
        detail["method"] = "skipped-zero-baseline"
        return "pass", detail
    ratio = cand_med / base_med
    detail["ratio"] = ratio
    if len(base_vals) < 2 and len(cand_vals) < 2:
        # One sample per side: no variance evidence at all. Fall back to
        # the blunt threshold, but say so — this is the legacy mode the
        # statistical gate exists to replace.
        detail["method"] = "single-run-threshold"
        detail["threshold"] = opts.threshold
        if ratio > 1.0 + opts.threshold:
            return "regressed", detail
        if ratio < 1.0 - opts.threshold:
            return "improved", detail
        return "pass", detail
    # The margin must be run-to-run noise. Per-frame sample spread within
    # a run is workload heterogeneity, not measurement noise — a margin
    # built from it swallows real regressions (a uniform 1.2x shift sits
    # well inside the frame-to-frame spread of a detection stage).
    rel_noises = []
    for meds in (base_run_meds or [], cand_run_meds or []):
        if len(meds) >= 2:
            grand = median(meds)
            if grand > 0:
                rel_noises.append(mad(meds) * MAD_SCALE / grand)
    if rel_noises:
        noise_rel = max(rel_noises)
        noise_sigma = noise_rel * base_med
        margin = max(opts.margin_floor, opts.noise_k * noise_rel)
        margin_basis = "between-run"
    else:
        # Single run per side: the sample spread is the only variance
        # evidence there is. Conservative (inflated) by construction.
        noise_sigma = max(mad(base_vals), mad(cand_vals)) * MAD_SCALE
        margin = max(opts.margin_floor,
                     opts.noise_k * noise_sigma / base_med)
        margin_basis = "within-run"
    lo, hi = bootstrap_ratio_ci(base_vals, cand_vals, rng, opts.bootstrap)
    detail.update({
        "method": "mad-bootstrap",
        "noise_sigma": noise_sigma,
        "margin": margin,
        "margin_basis": margin_basis,
        "ci_low": lo,
        "ci_high": hi,
        "bootstrap": opts.bootstrap,
    })
    # Regressed/improved only when the whole CI clears the noise margin:
    # a verdict is a statement about the distribution, not about one run.
    if lo > 1.0 + margin:
        return "regressed", detail
    if hi < 1.0 - margin:
        return "improved", detail
    return "pass", detail


def kernel_medians(runs):
    """Median per-kernel calls/flops/seconds across `runs`."""
    union = {}
    for run in runs:
        for name, k in run["kernels"].items():
            union.setdefault(name, []).append(k)
    out = {}
    for name, ks in union.items():
        out[name] = {
            "calls": median([k["calls"] for k in ks]),
            "flops": median([k["flops"] for k in ks]),
            "seconds": median([k["seconds"] for k in ks]),
        }
    return out


def attribute_kernels(base_runs, cand_runs):
    """Differential kernel attribution for a regressed bench: which
    kernels' time moved, and did the work move with it?"""
    base = kernel_medians(base_runs)
    cand = kernel_medians(cand_runs)
    movers = []
    for name in sorted(set(base) | set(cand)):
        b = base.get(name)
        c = cand.get(name)
        if b is None or c is None:
            movers.append({
                "kernel": name,
                "kind": "appeared" if b is None else "disappeared",
                "delta_seconds": (c or b)["seconds"] * (1 if b is None else -1),
            })
            continue
        if b["seconds"] <= 0 and c["seconds"] <= 0:
            continue  # counters only, no timing for this kernel
        delta = c["seconds"] - b["seconds"]
        calls_same = (b["calls"] > 0 and
                      abs(c["calls"] - b["calls"]) / b["calls"]
                      <= CALLS_SAME_TOL)
        b_percall = b["seconds"] / b["calls"] if b["calls"] > 0 else 0.0
        c_percall = c["seconds"] / c["calls"] if c["calls"] > 0 else 0.0
        percall_ratio = c_percall / b_percall if b_percall > 0 else 0.0
        percall_moved = (percall_ratio > 0 and
                         abs(percall_ratio - 1.0) > KERNEL_MOVE_TOL)
        if not calls_same:
            kind = "count-change"
        elif percall_moved:
            kind = "per-call-latency"
        else:
            continue  # neither work nor latency moved: not a mover
        entry = {
            "kernel": name,
            "kind": kind,
            "delta_seconds": delta,
            "calls": [b["calls"], c["calls"]],
            "per_call_ratio": percall_ratio,
        }
        # The PR 5 signature: latency moved while the work (FLOPs and
        # calls) stayed bit-identical. That is what code-layout luck
        # looks like in the counters — worth a human eyeball before
        # anyone "fixes" it.
        entry["layout_luck_signature"] = (
            kind == "per-call-latency"
            and b["calls"] == c["calls"] and b["flops"] == c["flops"])
        movers.append(entry)
    movers.sort(key=lambda m: abs(m["delta_seconds"]), reverse=True)
    return movers


def machine_ids(runs):
    return sorted({run["machine_id"] for run in runs})


def compare_bench_runs(bench, base_runs, cand_runs, opts, rng, quiet):
    """Compares one bench's evidence; returns a verdict record."""
    record = {
        "bench": bench,
        "baseline_revs": sorted({r["git_rev"] for r in base_runs}),
        "candidate_revs": sorted({r["git_rev"] for r in cand_runs}),
        "baseline_runs": len(base_runs),
        "candidate_runs": len(cand_runs),
        "stages": [],
        "warnings": [],
        "verdict": "pass",
    }
    base_ids = machine_ids(base_runs)
    cand_ids = machine_ids(cand_runs)
    if set(base_ids) != set(cand_ids) or len(base_ids) > 1:
        record["warnings"].append(
            f"machine fingerprints differ (baseline {base_ids}, candidate "
            f"{cand_ids}): latencies are not comparable across machines, "
            "treat any verdict here as advisory")
    if not quiet:
        print(f"{bench}: {'+'.join(record['baseline_revs'])} "
              f"[{len(base_runs)} run(s)] -> "
              f"{'+'.join(record['candidate_revs'])} "
              f"[{len(cand_runs)} run(s)]")
        for w in record["warnings"]:
            print(f"  warning: {w}")

    base_stages = set()
    cand_stages = set()
    for run in base_runs:
        base_stages.update(run["stages"])
    for run in cand_runs:
        cand_stages.update(run["stages"])
    shared = sorted(base_stages & cand_stages)
    if not shared:
        record["warnings"].append("no shared stages with baseline")
        record["verdict"] = "error"
        return record

    worst = "pass"
    for stage in shared:
        base_vals, base_meds = gather_stage_evidence(base_runs, stage)
        cand_vals, cand_meds = gather_stage_evidence(cand_runs, stage)
        if median(base_vals) < opts.min_seconds:
            continue  # timer noise dominates down there
        verdict, detail = decide(base_vals, cand_vals, opts, rng,
                                 base_run_meds=base_meds,
                                 cand_run_meds=cand_meds)
        detail["stage"] = stage
        detail["verdict"] = verdict
        record["stages"].append(detail)
        if verdict == "regressed":
            worst = "regressed"
        elif verdict == "improved" and worst == "pass":
            worst = "improved"
        if not quiet:
            mark = {"pass": " ", "regressed": "R", "improved": "+"}[verdict]
            span = ""
            if "ci_low" in detail:
                span = (f" CI[{detail['ci_low']:.2f},"
                        f"{detail['ci_high']:.2f}]"
                        f" margin {detail['margin']:.2f}")
            print(f"  [{mark}] {stage}: p50 {detail['baseline_median']:.6f}s"
                  f" -> {detail['candidate_median']:.6f}s"
                  f" ({detail.get('ratio', 0.0):.2f}x,"
                  f" n={detail['baseline_n']}/{detail['candidate_n']},"
                  f" {detail['method']}{span})")

    base_fps = [r["throughput"] for r in base_runs if r["throughput"] > 0]
    cand_fps = [r["throughput"] for r in cand_runs if r["throughput"] > 0]
    if base_fps and cand_fps:
        # Throughput is frames per second: invert so "regressed" keeps
        # meaning "slower" in decide()'s ratio arithmetic.
        base_inv = [1.0 / v for v in base_fps]
        cand_inv = [1.0 / v for v in cand_fps]
        # One throughput number per run: the values are their own
        # run-level medians.
        verdict, detail = decide(base_inv, cand_inv, opts, rng,
                                 base_run_meds=base_inv,
                                 cand_run_meds=cand_inv)
        detail["metric"] = "throughput_fps"
        detail["verdict"] = verdict
        record["throughput"] = detail
        if verdict == "regressed":
            worst = "regressed"
        elif verdict == "improved" and worst == "pass":
            worst = "improved"
        if not quiet:
            mark = {"pass": " ", "regressed": "R", "improved": "+"}[verdict]
            print(f"  [{mark}] throughput: {median(base_fps):.2f} -> "
                  f"{median(cand_fps):.2f} fps")

    record["verdict"] = worst
    if worst == "regressed":
        movers = attribute_kernels(base_runs, cand_runs)
        record["kernel_attribution"] = movers
        if not quiet:
            if movers:
                print("  kernel attribution (largest time movers first):")
                for m in movers[:8]:
                    extra = ""
                    if m.get("layout_luck_signature"):
                        extra = ("  ** layout-luck signature: FLOPs/calls "
                                 "identical, latency moved — suspect code "
                                 "layout, not the algorithm **")
                    if m["kind"] == "count-change":
                        extra = (f"  calls {m['calls'][0]:.0f} -> "
                                 f"{m['calls'][1]:.0f} (workload changed)")
                    print(f"    {m['kernel']}: {m['kind']}, "
                          f"{m['delta_seconds']:+.6f}s{extra}")
            else:
                print("  kernel attribution: no per-kernel timing in the "
                      "evidence (run with VDRIFT_KERNEL_PROFILE=1)")
    return record


# ---------------------------------------------------------------------------
# Smoke mode: structural liveness only.

def smoke_check(base_side, cand_side, quiet):
    """Validates that both sides parse and overlap; never judges perf."""
    problems = []
    shared_benches = sorted(set(base_side) & set(cand_side))
    for bench in sorted(set(cand_side) - set(base_side)):
        if not quiet:
            print(f"  new (no baseline): {bench}")
    if not shared_benches:
        problems.append("no bench appears on both sides")
    for bench in shared_benches:
        base_stages = set()
        cand_stages = set()
        for run in base_side[bench]:
            base_stages.update(run["stages"])
        for run in cand_side[bench]:
            cand_stages.update(run["stages"])
        if not base_stages & cand_stages:
            problems.append(f"{bench}: no shared stages")
        elif not quiet:
            print(f"  {bench}: {len(base_stages & cand_stages)} shared "
                  f"stage(s), schemas OK")
    return problems


# ---------------------------------------------------------------------------
# Self-test: synthetic histories with known ground truth.

def synth_run(rng, bench, stage_means, kernels, machine_id="m-self",
              rev="base", nsamples=8, noise=0.02):
    stages = {}
    for stage, mean in stage_means.items():
        samples = [max(1e-9, rng.gauss(mean, mean * noise))
                   for _ in range(nsamples)]
        stages[stage] = {"p50": median(samples), "count": len(samples),
                         "samples": samples}
    return {
        "bench": bench, "git_rev": rev, "machine_id": machine_id,
        "machine": {"id": machine_id},
        "stages": stages,
        "kernels": {name: dict(k) for name, k in kernels.items()},
        "throughput": 1.0 / stage_means[next(iter(stage_means))],
    }


def self_test(opts):
    rng = random.Random(opts.seed)
    failures = []

    def check(name, cond, context=""):
        status = "ok" if cond else "FAIL"
        print(f"  [{status}] {name}{(' — ' + context) if context else ''}")
        if not cond:
            failures.append(name)

    base_kernels = {
        "nn.conv2d_forward": {"calls": 1000, "flops": 500000000,
                              "bytes": 1 << 20, "seconds": 0.060},
        "tensor.im2col": {"calls": 500, "flops": 0, "bytes": 1 << 19,
                          "seconds": 0.020},
    }
    def runs(n, scale=1.0, kernels=None, rev="base", noise=0.02):
        return [synth_run(rng, "synthetic",
                          {"detect": 0.100 * scale, "track": 0.020 * scale},
                          kernels or base_kernels, rev=rev, noise=noise)
                for _ in range(n)]

    print("self-test: injected 20% regression must be flagged and "
          "attributed")
    slow_kernels = {
        "nn.conv2d_forward": {"calls": 1000, "flops": 500000000,
                              "bytes": 1 << 20, "seconds": 0.080},
        "tensor.im2col": {"calls": 800, "flops": 0, "bytes": 1 << 19,
                          "seconds": 0.032},
    }
    rec = compare_bench_runs("synthetic", runs(6),
                             runs(4, scale=1.20, kernels=slow_kernels,
                                  rev="cand"),
                             opts, random.Random(opts.seed + 1), quiet=True)
    check("regression flagged", rec["verdict"] == "regressed",
          f"verdict={rec['verdict']}")
    movers = rec.get("kernel_attribution", [])
    names = [m["kernel"] for m in movers]
    check("slowed kernel named", "nn.conv2d_forward" in names, str(names))
    conv = next((m for m in movers if m["kernel"] == "nn.conv2d_forward"),
                {})
    check("per-call latency vs count-change separated",
          conv.get("kind") == "per-call-latency"
          and any(m["kernel"] == "tensor.im2col"
                  and m["kind"] == "count-change" for m in movers))
    check("layout-luck signature on work-identical slowdown",
          conv.get("layout_luck_signature") is True)

    print("self-test: pure noise must pass")
    rec = compare_bench_runs("synthetic", runs(6), runs(4, rev="cand"),
                             opts, random.Random(opts.seed + 2), quiet=True)
    check("noise passes", rec["verdict"] == "pass",
          f"verdict={rec['verdict']}")

    print("self-test: two identical runs on the same machine must pass")
    identical = runs(1)
    rec = compare_bench_runs("synthetic", identical,
                             [dict(identical[0], git_rev="cand")],
                             opts, random.Random(opts.seed + 3), quiet=True)
    check("identical runs pass", rec["verdict"] == "pass",
          f"verdict={rec['verdict']}")

    print("self-test: a 25% improvement must be reported as improvement")
    rec = compare_bench_runs("synthetic", runs(6),
                             runs(4, scale=0.75, rev="cand"),
                             opts, random.Random(opts.seed + 4), quiet=True)
    check("improvement reported", rec["verdict"] == "improved",
          f"verdict={rec['verdict']}")

    print("self-test: cross-machine comparison must warn")
    other = runs(3)
    for run in other:
        run["machine_id"] = "m-other"
    rec = compare_bench_runs("synthetic", runs(3), other, opts,
                             random.Random(opts.seed + 5), quiet=True)
    check("fingerprint mismatch warned",
          any("fingerprints differ" in w for w in rec["warnings"]))

    if failures:
        print(f"self-test: {len(failures)} FAILURE(S): {failures}",
              file=sys.stderr)
        return 1
    print("self-test: all checks passed")
    return 0


# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline",
                        help="baseline: a ledger .jsonl or a directory of "
                             "them")
    parser.add_argument("--candidate",
                        help="candidate: same forms as --baseline")
    parser.add_argument("--history", action="append", default=[],
                        help="extra ledger .jsonl (or directory) merged "
                             "into the baseline evidence; repeatable")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="fallback fractional threshold when only one "
                             "run exists per side (default 0.25)")
    parser.add_argument("--margin-floor", type=float, default=0.05,
                        dest="margin_floor",
                        help="minimum fractional noise margin the CI must "
                             "clear (default 0.05)")
    parser.add_argument("--noise-k", type=float, default=3.0, dest="noise_k",
                        help="noise margin = noise_k * MAD-sigma / median "
                             "(default 3.0)")
    parser.add_argument("--min-seconds", type=float, default=1e-5,
                        help="ignore stages whose baseline median is below "
                             "this (default 1e-5 s)")
    parser.add_argument("--bootstrap", type=int, default=2000,
                        help="bootstrap resamples per CI (default 2000)")
    parser.add_argument("--seed", type=int, default=20260808,
                        help="RNG seed for the bootstrap (deterministic "
                             "verdicts)")
    parser.add_argument("--json", action="store_true",
                        help="emit one machine-readable verdict object on "
                             "stdout instead of the table")
    parser.add_argument("--smoke", action="store_true",
                        help="structural liveness only: schemas parse and "
                             "stages overlap; perf is never judged")
    parser.add_argument("--self-test", action="store_true",
                        help="run the synthetic-history self-test and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args)
    if not args.baseline or not args.candidate:
        parser.error("--baseline and --candidate are required "
                     "(or use --self-test)")

    try:
        base_side = load_side(args.baseline)
        cand_side = load_side(args.candidate)
        for extra in args.history:
            for bench, runs in load_side(extra).items():
                base_side.setdefault(bench, []).extend(runs)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        if args.json:
            print(json.dumps({"ok": False, "error": str(err)}))
        else:
            print(f"FAIL: {err}", file=sys.stderr)
        return 2

    if args.smoke:
        problems = smoke_check(base_side, cand_side, quiet=args.json)
        if args.json:
            print(json.dumps({"ok": not problems, "mode": "smoke",
                              "problems": problems}, indent=2,
                             sort_keys=True))
        elif problems:
            for p in problems:
                print(f"FAIL: {p}", file=sys.stderr)
        else:
            print("OK: smoke structure checks passed (perf not judged)")
        return 2 if problems else 0

    rng = random.Random(args.seed)
    records = []
    regressed = []
    for bench in sorted(set(cand_side)):
        if bench not in base_side:
            if not args.json:
                print(f"  new (no baseline): {bench}")
            continue
        record = compare_bench_runs(bench, base_side[bench],
                                    cand_side[bench], args, rng,
                                    quiet=args.json)
        records.append(record)
        if record["verdict"] in ("regressed", "error"):
            regressed.append(bench)

    if not records:
        msg = "no bench appears in both baseline and candidate"
        if args.json:
            print(json.dumps({"ok": False, "error": msg}))
        else:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps({
            "ok": not regressed,
            "margin_floor": args.margin_floor,
            "noise_k": args.noise_k,
            "bootstrap": args.bootstrap,
            "seed": args.seed,
            "reports": records,
            "regressed": regressed,
        }, indent=2, sort_keys=True))
        return 1 if regressed else 0

    if regressed:
        print(f"\nFAIL: statistically significant regression in: "
              f"{', '.join(regressed)}", file=sys.stderr)
        return 1
    improved = [r["bench"] for r in records if r["verdict"] == "improved"]
    if improved:
        print(f"\nOK: no regression; improvement in: {', '.join(improved)}")
    else:
        print("\nOK: no statistically significant regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())

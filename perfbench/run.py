"""Benchmark entry point.

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 20 --trace 0

Runs one workload in this process from the repository's sources and prints,
as the last line of standard output, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end metrics; with `--trace 1` the workload runs once untraced
and once traced, and the metrics are the per-layer metrics. See
perfbench/README.md for what each metric measures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import common

import tracing
import workloads

UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "step_ms_p50": "ms", "step_ms_p90": "ms",
         "utt_ms_p50": "ms", "utt_ms_p90": "ms", "utts_per_s": "1/s", "xrtf": "x",
         "loss": "nats"}
WORK_ROOT = os.path.join(common.REPO_ROOT, ".perfbench_work")
TRACE_DIR = os.path.join(common.REPO_ROOT, ".perfbench_out")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="conformerst benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def traced_run(name, seed, seconds, work_dir):
    """Untraced then traced run of the same size; returns (result, per-layer metrics).

    Training runs for half of `seconds` each time. A decode run makes exactly
    two passes over its corpus; the per-layer means cover the first pass, and
    the second is compared with it.
    """
    half = seconds / 2 if name == "train-desk" else 0.0
    untraced = workloads.run(name, seed, half, os.path.join(work_dir, "untraced"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = workloads.run(name, seed, half, os.path.join(work_dir, "traced"), tracer)
    finally:
        tracer.uninstall()
    tracer.save(os.path.join(TRACE_DIR, f"trace-{name}-seed{seed}.npz"))
    metrics = tracing.layer_metrics(tracer, traced, untraced,
                                    skipped_steps=traced.failed if name == "train-desk" else 0)
    same = (traced.detail.get("totals") == untraced.detail.get("totals")
            and traced.detail.get("texts") == untraced.detail.get("texts"))
    traced.checks["untraced run correct"] = untraced.correct
    traced.checks["tracing leaves outputs unchanged"] = same
    if name == "train-desk":
        traced.checks["no feature extraction inside timed steps"] = (
            metrics["frontend.extract_features.calls"] == 0)
        first = workloads.WARMUP_STEPS + 1
        key, groups = "numcore.tape_nodes", {
            first + j: tuple(b) for j, b in enumerate(traced.detail.get("batches", []))}
    else:
        n = len(traced.detail["texts"])
        key, groups = "model.decode_step.positions", {
            k: (k - 1) % n for k in range(1, traced.ops + 1)}
    traced.checks[f"{key} repeats on repeated inputs"] = tracing.counts_repeat(
        tracer, key, groups)
    units = tracing.PER_LAYER_UNITS
    return traced, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    print(json.dumps({"environment": common.environment_record(args.seed),
                      "workload": args.workload, "trace": args.trace}), flush=True)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        if args.trace:
            result, metrics = traced_run(args.workload, args.seed, args.seconds, work_dir)
        else:
            result = workloads.run(args.workload, args.seed, args.seconds, work_dir)
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in result.metrics.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for check, ok in result.checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {check}", file=sys.stderr)
    if "wer" in result.detail:
        print(json.dumps({"wer": result.detail["wer"]}))
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

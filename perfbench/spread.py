"""Run a workload over several seeds and report each metric's median and
spread (interquartile range over median), as the benchmark's bounds are
judged.

    python3 perfbench/spread.py --workload train-desk --seeds 0-9 [--trace 1] [--out runs.jsonl]

Each run is a separate process, started after the previous one has ended.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = [json.loads(x) for x in proc.stdout.strip().splitlines()]
        result = lines[-1]
        result["seed"] = seed
        result["wer"] = next((x["wer"] for x in lines if "wer" in x), None)
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}",
              file=sys.stderr)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as f:
                f.write(json.dumps(result) + "\n")

    print(f"{'metric':<40} {'median':>12} {'iqr/med':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med, rel = spread(values)
        bound = bounds.get(name)
        print(f"{name:<40} {med:>12.5g} {rel:>8.4f} {bound if bound is not None else '':>6}")
    wers = [r["wer"] for r in runs if r["wer"] is not None]
    if wers:
        print(f"wer: median {statistics.median(wers):.4f}, range {min(wers):.4f}-{max(wers):.4f}")
    print(f"all correct: {all(r['correct'] for r in runs)}; "
          f"failed: {sum(r['failed'] for r in runs)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

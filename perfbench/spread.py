"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload vm-echo --seeds 0-9 [--json out.json]

The spread is the distance between the first and third quartile of the
per-seed values (`statistics.quantiles(values, n=4)`), as a share of their
median; BENCHMARK.json bounds every end-to-end metric.  Runs are untraced
(`--trace 0`) and sequential, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    ap.add_argument("--seconds", type=int,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--json")
    args = ap.parse_args(argv)
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
    names = list(runs[0]["metrics"])
    summary = {}
    print(f"{args.workload}: {len(runs)} seeds, {args.seconds} s each")
    for name in names:
        s = summarize([r["metrics"][name]["value"] for r in runs])
        s["unit"] = runs[0]["metrics"][name]["unit"]
        summary[name] = s
        print(f"  {name:36s} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
              f"q3 {s['q3']:<14.6g} spread {s['spread']:.4f}")
    if args.json:
        Path(args.json).write_text(json.dumps({
            "workload": args.workload, "seeds": args.seeds,
            "seconds": args.seconds,
            "correct": all(r["correct"] for r in runs),
            "metrics": summary,
            "runs": [{n: m["value"] for n, m in r["metrics"].items()} for r in runs],
            }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

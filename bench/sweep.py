"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root):

    python3 bench/sweep.py --seeds 1-10 --seconds 20 [--workload fit-1d ...] [--out FILE]

For every workload and end-to-end metric it prints the median of the runs
and the spread, the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median: the
figure a metric's bound in ``BENCHMARK.json`` is compared with.  Runs are
made one after another, never in parallel, so they do not disturb each
other's timings.  ``--out`` writes every run's values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(spec["command"] + ["--workload", workload, "--seed", str(seed),
                                                     "--seconds", str(args.seconds), "--trace", "0"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} {values}", flush=True)
        stats = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            stats[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                           "bound": bound}
            print(f"  {workload} {name}: median {median:.6g}  quartiles {q1:.6g}..{q3:.6g}  "
                  f"spread {(q3 - q1) / median:.3f} (bound {bound})", flush=True)
        summary[workload] = {"runs": runs, "stats": stats}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

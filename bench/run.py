"""Benchmark for the ``minimaxfit`` CLI: seeded inputs, timed ops, oracle checks.

Usage (from the repository root):

    python3 bench/run.py --workload fit-1d --seed 1 --seconds 25 --trace 0

One op is one CLI command (``fit``, ``verify`` or ``alternate``) run
in-process through ``minimaxfit.cli.main(argv)`` by ``worker.py``, in a
closed loop with one client and BLAS pinned to one thread.  After the worker
has ended, every op's report is checked, untimed, by ``oracle.py``.  The last
line of standard output is one JSON object: with ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
replay of the same ops.  Workloads and their reasons are in ``workloads.py``;
see ``README.md`` for the metric definitions.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CAP_S = 45.0  # per-op cap; an op past it counts as failed
DEADLINE_S = 100.0  # no op starts later than this into the op process, so a run ends within 180 s
SETUP_PAIRS = 9  # interleaved pairs of fresh-interpreter imports per run, after one warm-up pair
# What a fresh interpreter imports for the CLI apart from minimaxfit itself,
# and how long that took on the machine the baseline was measured on.
SETUP_REFERENCE = "import argparse, csv, dataclasses, fractions, json, re, numpy"
SETUP_REFERENCE_S = 0.14
# Typical time of worker.reference_work() on the machine the baseline was
# measured on; each op's time is scaled by it over the mean of the reference
# windows just before and just after the op and the samples taken inside it.
REFERENCE_S = 0.0005


def _percentile(times: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(times)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(src: Path) -> float:
    """Time for a fresh interpreter to import minimaxfit.cli, scaled for the host's speed.

    Each import is paired with a fresh interpreter that imports only
    SETUP_REFERENCE, in alternating order; setup_s is the median ratio of the
    two times, times SETUP_REFERENCE_S.  Interpreter start-up and numpy are
    most of the import, and the host's speed at them drifted by a factor of
    two between runs; the ratio cancels that drift, not the program's cost.
    """
    def timed(code: str) -> float:
        start = time.perf_counter()
        # no timeout: with one, subprocess polls the child in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", code], env=_child_env(src), cwd=ROOT, check=True)
        return time.perf_counter() - start

    ratios = []
    for k in range(SETUP_PAIRS + 1):
        if k % 2:
            ref, cli = timed(SETUP_REFERENCE), timed("import minimaxfit.cli")
        else:
            cli, ref = timed("import minimaxfit.cli"), timed(SETUP_REFERENCE)
        ratios.append(cli / ref)
    return SETUP_REFERENCE_S * statistics.median(ratios[1:])  # the first pair may compile bytecode


def build_inputs(workload: str, seed: int, inputs: Path, highs: bool):
    """Write every input file; returns the instances by name and the op list."""
    instances = {}
    ops = []
    manifest = []
    for inst in workloads.plan(workload, seed):
        workloads.sample(inst)
        instances[inst.name] = inst
        manifest.append({"name": inst.name, "dimension": inst.dimension,
                         "points_per_axis": inst.resolution, "nodes": inst.nodes,
                         "degree": inst.degree, "exact": inst.exact, "baseline": inst.baseline,
                         "target": inst.target.text()})
        csv = inputs / f"{inst.name}.csv"
        workloads.write_csv(inst, csv)
        rel = str(csv.relative_to(ROOT))
        if not inst.coeff_kinds:
            argv = ["fit", "--input", rel, "--degree", str(inst.degree)]
            ops.append({"argv": argv + (["--exact"] if inst.exact else []), "instance": inst.name,
                        "command": "fit", "kind": "fit"})
            continue
        for kind in inst.coeff_kinds:
            if kind == "optimal":
                if not highs:
                    raise RuntimeError("verify-coeffs needs scipy (HiGHS) for its optimal models")
                coeffs = [float(c) for c in oracle.minimax(inst)[1]]
            else:
                coeffs = workloads.least_squares_coeffs(inst)
            path = inputs / f"{inst.name}.{kind}.json"
            workloads.write_coeffs(path, inst.degree, coeffs)
            for command in inst.commands:
                argv = [command, "--input", rel, "--coeffs", str(path.relative_to(ROOT))]
                ops.append({"argv": argv, "instance": inst.name, "command": command, "kind": kind})
    (inputs / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return instances, ops


def classify(records, ops, checker, reports: Path):
    """Mark each record ok, error or wrong; returns the failures and wrong answers.

    A ``fit`` that exits 2 has reported its own model as not optimal: when
    the report's claims re-check, the op failed to deliver a verified fit
    (an error, with its psi beside the HiGHS optimum), not a wrong answer.
    """
    failures, wrong = [], []
    for rec in records:
        op = ops[rec["op"]]
        if rec["exit"] not in (0, 2):
            rec["status"] = "error"
            failures.append({"instance": op["instance"], "command": op["command"], **rec["error"]})
            continue
        prefix = "t" if rec["traced"] else "u"
        text = (reports / f"{prefix}{rec['seq']}.json").read_text()
        problems = checker.check({**op, "exit": rec["exit"]}, text)
        if problems:
            rec["status"] = "wrong"
            wrong.append({"instance": op["instance"], "command": op["command"], "kind": op["kind"],
                          "problems": problems})
        elif op["command"] == "fit" and rec["exit"] == 2:
            rec["status"] = "error"
            rec["error"] = {"type": "exit 2", "message": "fit reports its own model as not optimal",
                            "diagnostics": checker.fit_gap(op, text)}
            failures.append({"instance": op["instance"], "command": op["command"], **rec["error"]})
        else:
            rec["status"] = "ok"
    return failures, wrong


def per_op(records) -> list[dict]:
    """One record per op: the median time of its passes, failed if any pass failed.

    The host's speed drifts by up to 2x over seconds, for the same work.  The
    median of an op's scaled pass times is steadier than the fastest: one
    pass whose reference windows ran slower than the op itself reads too fast.
    Failures repeat in every pass, because the program is deterministic.
    """
    merged: dict[int, dict] = {}
    times: dict[int, list[float]] = {}
    for rec in records:
        kept = merged.setdefault(rec["op"], dict(rec))
        times.setdefault(rec["op"], []).append(rec["seconds"])
        if rec["status"] == "error" or (rec["status"] == "wrong" and kept["status"] == "ok"):
            kept["status"] = rec["status"]
    for op, kept in merged.items():
        kept["seconds"] = statistics.median(times[op])
    return list(merged.values())


def charged(rec) -> float:
    """Op time for the median: a failed op is charged the cap on top of its time,
    so it ranks after every success and fixing it cannot read as a slowdown."""
    return rec["seconds"] + (CAP_S if rec["status"] == "error" else 0.0)


def src_line_count(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((src / "minimaxfit").rglob("*.py")))


def _distinct(items, key):
    seen = {}
    for item in items:
        seen.setdefault(key(item), {**item, "count": 0})["count"] += 1
    return list(seen.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "minimaxfit" / "cli.py").is_file():
        print(f"error: no minimaxfit sources under {src}; run from a checkout", file=sys.stderr)
        return 2

    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    inputs, reports = out / "inputs", out / "reports"
    inputs.mkdir(parents=True)
    reports.mkdir()

    phases = {}
    clock = time.perf_counter()
    highs = oracle.highs_available()
    instances, ops = build_inputs(args.workload, args.seed, inputs, highs)
    phases["generate"], clock = time.perf_counter() - clock, time.perf_counter()
    setup_s = measure_setup(src) if not args.trace else None
    phases["setup"], clock = time.perf_counter() - clock, time.perf_counter()

    # a traced run replays its passes, so it makes half as many
    share = args.seconds / (2 if args.trace else 1)
    passes = max(1, round(share / workloads.PASS_S[args.workload]))
    plan = {"src": str(src), "bench": str(BENCH), "passes": passes, "trace": args.trace,
            "cap": CAP_S, "deadline": DEADLINE_S, "ops": ops, "reports": str(reports),
            "spans": str(out / "spans.jsonl")}
    (out / "plan.json").write_text(json.dumps(plan))
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(out / "plan.json"),
                    str(out / "results.json")], env=_child_env(src), cwd=ROOT, check=True,
                   timeout=DEADLINE_S + CAP_S + 15)
    phases["ops"], clock = time.perf_counter() - clock, time.perf_counter()
    results = json.loads((out / "results.json").read_text())
    records = results["records"]

    checker = oracle.Checker(instances, highs)
    failures, wrong = classify(records, ops, checker, reports)
    phases["check"] = time.perf_counter() - clock
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    measured = traced if args.trace else untraced
    n = len(measured)
    n_failed = sum(r["status"] == "error" for r in measured)
    n_wrong = sum(r["status"] == "wrong" for r in measured)

    print(f"workload {args.workload}: {workloads.WORKLOADS[args.workload]['why']}")
    print(f"inputs: {workloads.WORKLOADS[args.workload]['params']} (seed {args.seed})")
    print(f"ops: {n} {'traced' if args.trace else 'untraced'} in {passes} passes over {len(ops)} "
          "distinct ops, closed loop, one client")
    if not highs:
        print("NOTE: scipy is not importable: the HiGHS psi cross-check did NOT run")
    for item in _distinct(failures, key=lambda f: (f["instance"], f["command"], f["message"])):
        print("failure: " + json.dumps(item))
    for item in _distinct(wrong, key=lambda w: (w["instance"], w["command"], w["kind"])):
        print("wrong: " + json.dumps(item))
    print(f"fail_rate: {n_failed / n:.6f} ratio ({n_failed} of {n} ops)")
    print(f"wrong_rate: {n_wrong / n:.6f} ratio ({n_wrong} of {n} ops)")
    print(f"src_lines: {src_line_count(src)} lines (information, not gated)")
    print("phases: " + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items()))

    if args.trace:
        metrics = layers.per_layer(out / "spans.jsonl", traced, results["counts"])
        overhead = (statistics.median(r["seconds"] for r in per_op(traced))
                    / statistics.median(r["seconds"] for r in per_op(untraced)) - 1)
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    else:
        raw = per_op(untraced)
        before = [untraced[0]] + untraced[:-1]
        scaled = per_op([{**r, "seconds": r["seconds"] * REFERENCE_S
                          / statistics.fmean([p["reference"], r["reference"], *r["ticks"]])}
                         for p, r in zip(before, untraced)])
        times = [charged(r) for r in scaled]
        print(f"unscaled: solve_s.p50 {_percentile([charged(r) for r in raw], 0.5):.6g} s, "
              f"reference loop median {statistics.median(r['reference'] for r in untraced):.6g} s")
        answered = [r["seconds"] for r in scaled if r["status"] != "error"] or times
        if len(answered) < 100:
            print(f"note: solve_s.p90 rests on {len(answered)} answered ops, fewer than the 100 "
                  "that put ten beyond it; solve_s.mean weighs every one of them")
        metrics = {
            "solve_s.p50": {"value": _percentile(times, 0.5), "unit": "s"},
            "solve_s.p90": {"value": _percentile(answered, 0.9), "unit": "s"},
            "solve_s.mean": {"value": statistics.fmean(answered), "unit": "s"},
            "ok_rate": {"value": (n - n_failed - n_wrong) / n, "unit": "ratio"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": results["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    (out / "summary.json").write_text(json.dumps(
        {"failures": failures, "wrong": wrong, "records": records, "metrics": metrics}, indent=1))
    print(json.dumps({"correct": not wrong, "attempted": n, "failed": n_failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

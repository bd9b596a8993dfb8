"""Runs the ops of one benchmark run in a closed loop with one client.

Usage: ``python3 worker.py <plan.json> <results.json>``.  Started by
``run.py`` in its own process, so that scipy (used by the oracle) is never
loaded here and the peak memory reported is that of the ops alone.  Each op
is ``minimaxfit.cli.main(argv)``, from argv to the JSON report on disk, timed
with ``time.perf_counter``.

The untraced part runs the plan's number of whole passes over the ops, in
plan order.  With tracing on, the same op sequence is then replayed with
every layer wrapped (see ``tracing.py``), so both parts time the same ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

import numpy as np


TICK_S = 0.025  # wall-clock period of the speed samples taken inside each untraced op


def reference_work() -> float:
    """Seconds for a fixed mix of small numpy, float and rational work (about 0.5 ms)."""
    start = time.perf_counter()
    a = np.arange(24.0).reshape(4, 6)
    acc = 0.0
    f = Fraction(1, 3)
    for k in range(1, 40):
        a = a * 0.999 + 0.001
        acc += sum(x * 0.5 for x in range(20))
        f = f * Fraction(k + 2, k + 1) - Fraction(1, 7 * k)
        if f.denominator > 10**30:
            f = Fraction(1, 3)
    return time.perf_counter() - start


def reference_window(seconds: float) -> float:
    """Mean time of reference_work() over a window about `seconds` long.

    Run after every untraced op, for a tenth of the op's time (at least
    once).  ``run.py`` scales each op's time by these windows on both sides
    of it and by the samples taken inside it, because the shared host's speed
    drifts by up to a half between runs and switches within seconds.
    """
    times = [reference_work()]
    while sum(times) < seconds:
        times.append(reference_work())
    return sum(times) / len(times)


class OpCap(BaseException):
    """Raised by the per-op timer; a BaseException so the CLI does not catch it."""


def main(plan_path: str, results_path: str) -> int:
    with open(plan_path) as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    sys.path.insert(0, plan["bench"])
    from minimaxfit import alternation, cli, fitting, monomials, optimality, reduction
    from minimaxfit.lp import LpFailure

    import tracing

    modules = {"cli": cli, "fitting": fitting, "monomials": monomials,
               "optimality": optimality, "alternation": alternation, "reduction": reduction}
    last_failure: dict = {}
    run = cli.run

    def run_keeping_diagnostics(config):
        # main() turns LpFailure into one stderr line; keep its diagnostics too
        try:
            return run(config)
        except LpFailure as err:
            last_failure.update(message=str(err), diagnostics=err.diagnostics)
            raise

    cli.run = run_keeping_diagnostics
    ops, cap, reports = plan["ops"], plan["cap"], plan["reports"]
    clock: dict = {}

    def on_timer(signum, frame):
        # every TICK_S of an op: enforce the cap, and in untraced ops time
        # reference_work() there and then, so the host's speed is sampled
        # while the op runs
        if time.perf_counter() - clock["start"] > cap:
            raise OpCap()
        if clock["ticks"] is not None:
            clock["ticks"].append(reference_work())

    signal.signal(signal.SIGALRM, on_timer)

    def run_op(seq: int, index: int, prefix: str, recorder=None) -> dict:
        argv = ops[index]["argv"] + ["--out", f"{reports}/{prefix}{seq}.json"]
        last_failure.clear()
        stderr = io.StringIO()
        record = {"seq": seq, "op": index, "traced": recorder is not None}
        ticks = [] if recorder is None else None
        root = None
        clock.update(start=time.perf_counter(), ticks=ticks)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                if recorder is not None:
                    recorder.op = seq
                    root = recorder.enter("cli")
                code = cli.main(argv)
            elapsed = time.perf_counter() - start
            record["exit"] = code
        except OpCap:
            elapsed = time.perf_counter() - start
            record["exit"] = "cap"
            record["error"] = {"type": "cap", "message": f"op exceeded the {cap} s cap"}
        except Exception as err:  # anything cli.main lets escape counts as a raised op
            elapsed = time.perf_counter() - start
            record["exit"] = "raised"
            record["error"] = {"type": type(err).__name__, "message": str(err),
                               "traceback": traceback.format_exc(limit=-3)}
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if root is not None:
            recorder.exit(root, None)
        # the samples ran inside the op's window; the op's own time excludes them
        record["seconds"] = elapsed - sum(ticks or ())
        if ticks is not None:
            record["ticks"] = ticks
        if record["exit"] == 1:
            record["error"] = {"type": "exit 1", "message": stderr.getvalue().strip()}
        if last_failure and "error" in record:
            record["error"]["lp_failure"] = dict(last_failure)
        return record

    # Whole passes over the op list, so that every run weighs every input
    # alike.  The pass count is fixed by the plan, not by the clock, so that
    # every commit gets the same number of repeats per op.
    records = []
    deadline = time.perf_counter() + plan["deadline"]
    for _ in range(plan["passes"]):
        for index in range(len(ops)):
            if time.perf_counter() >= deadline:
                break
            records.append(run_op(len(records), index, "u"))
            records[-1]["reference"] = reference_window(records[-1]["seconds"] / 10)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    counts: dict = {}
    if plan["trace"]:
        recorder = tracing.Recorder()
        saved = tracing.install(recorder, modules)
        try:
            for untraced in list(records):
                if time.perf_counter() >= deadline:
                    break
                records.append(run_op(untraced["seq"], untraced["op"], "t", recorder))
        finally:
            tracing.uninstall(saved)
        with open(plan["spans"], "w") as handle:
            for span in recorder.spans:
                handle.write(json.dumps(span) + "\n")
        counts = recorder.counts

    with open(results_path, "w") as handle:
        json.dump({"records": records, "peak_rss_kb": peak_rss_kb, "counts": counts}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))

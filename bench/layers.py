"""Per-layer metrics from the spans of a traced run.

A layer's self time is its span time minus the time of its child spans, so
the self times of all layers, ``cli.self_s`` included, add up to the op time;
``cli.self_s`` over ``cli.s`` is the share the named layers leave out.  Times
and counts are per traced op unless the unit says otherwise.  The ``_linalg`` module reports as
``linalg`` because a metric name must start with a letter or a digit.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

SPAN_LAYERS = [
    "cli",
    "cli.ingest",
    "fitting.fit_minimax",
    "fitting.extreme_sets",
    "lp.solve",
    "lp.solve_exact",
    "optimality.check_hull_intersection",
    "optimality.check_isolability",
    "optimality.hulls_intersect",
    "alternation.verify_by_hyperplanes",
    "alternation.split",
    "linalg.affine_normal",
    "reduction.reduce_and_verify",
]


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def per_layer(spans_path, traced, counts) -> dict:
    """Per-layer metrics of the traced ops; `counts` holds the counter wrappers' totals."""
    with open(spans_path) as handle:
        spans = [json.loads(line) for line in handle]
    n_ops = len(traced)
    child_time = [0.0] * len(spans)
    children = defaultdict(list)
    for idx, (_, _, parent, start, end, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(idx)

    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    lp = {name: defaultdict(int) for name in ("lp.solve", "lp.solve_exact")}
    fits = rounds = 0
    working_sets = []
    planes = subsets = alt_calls = 0
    branches = vacuous = red_calls = 0
    for idx, (_, name, _, start, end, attrs) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child_time[idx]
        calls[name] += 1
        attrs = attrs or {}
        if name in lp:
            stats = lp[name]
            stats["pivots"] += attrs.get("pivots", 0)
            stats["rows"] += attrs.get("rows", 0)
            stats["infeasible"] += attrs.get("status") == "infeasible"
            stats["errors"] += attrs.get("error") == "LpFailure"
        elif name == "fitting.fit_minimax":
            solves = [c for c in children[idx] if spans[c][1] in lp]
            fits += 1
            rounds += len(solves)
            if solves:
                working_sets.append((spans[solves[-1]][5] or {}).get("rows", 0) / 2)
        elif name == "alternation.verify_by_hyperplanes" and "planes" in attrs:
            alt_calls += 1
            planes += attrs["planes"]
            subsets += attrs["subsets"]
        elif name == "reduction.reduce_and_verify" and "branches" in attrs:
            red_calls += 1
            branches += attrs["branches"]
            vacuous += attrs["vacuous"]

    metrics = {}
    for name in SPAN_LAYERS:
        metrics[f"{name}.s"] = _metric(total[name] / n_ops, "s/op")
        metrics[f"{name}.self_s"] = _metric(own[name] / n_ops, "s/op")
        metrics[f"{name}.calls"] = _metric(calls[name] / n_ops, "1/op")
    for name, stats in lp.items():
        for key in ("pivots", "rows", "infeasible", "errors"):
            metrics[f"{name}.{key}"] = _metric(stats[key] / n_ops, "1/op")
    metrics["fitting.rounds"] = _metric(rounds / fits if fits else 0, "1/fit")
    metrics["fitting.working_set"] = _metric(statistics.fmean(working_sets) if working_sets else 0,
                                             "points")
    per = lambda total, count: total / count if count else 0  # noqa: E731
    metrics["alternation.planes_checked"] = _metric(per(planes, alt_calls), "1/call")
    metrics["alternation.subsets"] = _metric(per(subsets, alt_calls), "1/call")
    metrics["alternation.planes_per_subset"] = _metric(per(planes, subsets), "ratio")
    metrics["reduction.branches"] = _metric(per(branches, red_calls), "1/call")
    metrics["reduction.vacuous_branches"] = _metric(per(vacuous, red_calls), "1/call")
    for name in ("monomials.lift", "monomials.evaluate"):
        metrics[f"{name}.calls"] = _metric(counts.get(name, 0) / n_ops, "1/op")
    return metrics

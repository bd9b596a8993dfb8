"""In-memory spans around the public functions of each ``minimaxfit`` layer.

Tracing wraps every binding a module holds of a layer function, because a
``from .x import f`` makes a separate name in each importing module: ``solve``
is looked up in both ``fitting`` and ``optimality``, ``hulls_intersect`` in
both ``alternation`` and ``reduction``.  Call sites that patching cannot reach
are not counted: ``fit_minimax(lift_fn=lift)`` binds ``lift`` as a default
argument when ``fitting`` is imported, so ``monomials.lift.calls`` misses the
lifts of the fit itself.

A span is ``[op, name, parent, start, end, attrs]``; ``parent`` is the index
of the enclosing span (-1 for the op's root span ``cli``, around ``cli.main``).  Counts such
as pivots are read from returned values, never from inside the program.
"""

from __future__ import annotations

import functools
import time
from math import comb

# (module, attribute) bindings to wrap, and the layer name each one reports as.
SPANS = [
    ("cli", "ingest", "cli.ingest"),
    ("cli", "fit_minimax", "fitting.fit_minimax"),
    ("cli", "extreme_sets", "fitting.extreme_sets"),
    ("cli", "check_hull_intersection", "optimality.check_hull_intersection"),
    ("optimality", "check_hull_intersection", "optimality.check_hull_intersection"),
    ("cli", "check_isolability", "optimality.check_isolability"),
    ("optimality", "check_isolability", "optimality.check_isolability"),
    ("alternation", "hulls_intersect", "optimality.hulls_intersect"),
    ("reduction", "hulls_intersect", "optimality.hulls_intersect"),
    ("cli", "verify_by_hyperplanes", "alternation.verify_by_hyperplanes"),
    ("alternation", "split", "alternation.split"),
    ("alternation", "affine_normal", "linalg.affine_normal"),
    ("cli", "reduce_and_verify", "reduction.reduce_and_verify"),
    ("fitting", "solve", "lp.solve"),
    ("optimality", "solve", "lp.solve"),
    ("fitting", "solve_exact", "lp.solve_exact"),
    ("optimality", "solve_exact", "lp.solve_exact"),
]
# Called per sample point, so they are counted rather than given spans.
COUNTERS = [
    ("monomials", "lift", "monomials.lift"),
    ("optimality", "lift", "monomials.lift"),
    ("monomials", "evaluate", "monomials.evaluate"),
    ("fitting", "evaluate", "monomials.evaluate"),
    ("optimality", "evaluate", "monomials.evaluate"),
    ("cli", "evaluate", "monomials.evaluate"),
]


def _lp_attrs(args, result):
    return {"rows": args[0].num_rows, "pivots": result.iterations, "status": result.status}


def _alternation_attrs(args, result):
    extremes, samples = args[0], args[1]
    size = len(set(extremes.plus) | set(extremes.minus))
    return {"planes": result.planes_checked, "subsets": comb(size, samples.dimension),
            "verdict": result.verdict}


def _reduction_attrs(args, result):
    return {"branches": len(result.traces), "vacuous": result.vacuous_branches}


ATTRS = {
    "lp.solve": _lp_attrs,
    "lp.solve_exact": _lp_attrs,
    "alternation.verify_by_hyperplanes": _alternation_attrs,
    "reduction.reduce_and_verify": _reduction_attrs,
}


class Recorder:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, name, parent, time.perf_counter(), None, None])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int, attrs=None) -> None:
        span = self.spans[idx]
        span[4] = time.perf_counter()
        span[5] = attrs
        self._stack.pop()

    def span_wrapper(self, fn, name: str):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                info = {"error": type(err).__name__}
                diagnostics = getattr(err, "diagnostics", None)
                if isinstance(diagnostics, dict) and "iterations" in diagnostics:
                    info["pivots"] = diagnostics["iterations"]
                if name.startswith("lp.") and args:
                    info["rows"] = args[0].num_rows
                self.exit(idx, info)
                raise
            self.exit(idx, attrs(args, result) if attrs else None)
            return result

        return traced

    def counter_wrapper(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def install(recorder: Recorder, modules: dict) -> list[tuple]:
    """Wrap every listed binding; returns what `uninstall` needs to undo it."""
    saved = []
    for table, make in ((SPANS, recorder.span_wrapper), (COUNTERS, recorder.counter_wrapper)):
        for module_name, attr, layer in table:
            module = modules[module_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original, layer))
    return saved


def uninstall(saved: list[tuple]) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)

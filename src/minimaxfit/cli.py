"""Command-line front end: ingestion, grid generation, pipeline, JSON reports.

Input is a CSV with header columns x1..xd and a final column f, or a
generated hyperbox grid (``--grid "bounds;resolution;type;expression"``, for
example ``--grid "-1,1;11;uniform;x1^3"``; a negative lower bound needs no
``--grid=`` form).
Each command writes one JSON report, made by `run` as one pipeline in
report order.  fit and verify exit 0 when the certificate proves the model
optimal and 2 when a witness separates the extreme sets; reduce and
alternate exit on their own verdict the same way; every error, an unwritable
``--out`` and a warning that ``-W error`` raises among them, exits 1 with one
``error:`` line, and every other warning prints as one ``warning:`` line.
"""

from __future__ import annotations

import argparse
import ast
import csv
import functools
import io
import json
import math
import operator
import re
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .alternation import HyperplaneSplit, HyperplaneVerdict, verify_by_hyperplanes
from .fitting import (
    DEFAULT_REL_TOL,
    SampleSet,
    extreme_sets,
    fit_minimax,
    partition_extremes,
)
from .monomials import Number, PolynomialModel, build_basis
from .monomials import evaluate  # unused here, kept because bench/tracing.py wraps cli.evaluate
from .optimality import (
    IntersectionCertificate,
    SeparationWitness,
    certificate_checks,
    check_hull_intersection,
    check_isolability,
    verify_certificate,
    verify_witness,
)
from .reduction import ReductionReport, reduce_and_verify


# --- arithmetic expressions for grid targets --------------------------------


class ExpressionError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


_BAD_CHAR = re.compile(r"[^A-Za-z0-9_.+\-*/^(),\s]")
_NUMBER = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_FUNCTIONS = {"abs": abs, "min": min, "max": max}


def _power(left: Number, right: Number) -> Number:
    if isinstance(right, Fraction):
        if right.denominator != 1:
            raise ValueError("non-integer exponents are not supported in exact mode")
        right = int(right)
    if isinstance(right, float) and right.is_integer():
        right = int(right)
    try:
        power = left**right
    except OverflowError:
        raise OverflowError(f"{left}^{right} is out of float range") from None
    if isinstance(power, complex):
        raise ValueError(f"{left}^{right} is not a real number")
    return power


_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: _power}


class Expression:
    """Parsed arithmetic over x1..xd with +, -, *, /, ^, abs, min, max.

    Python's ``ast`` reads the text with ``^`` written as ``**``.  Only number
    literals, x1..xd, those operators, unary minus, abs with one argument and
    min or max with two or more are admitted.
    """

    def __init__(self, text: str):
        self.text = text
        bad = _BAD_CHAR.search(text)
        if bad:
            raise ExpressionError(f"unexpected character {bad.group()!r}", bad.start())
        if "**" in text:  # Python's power operator; this grammar spells it '^'
            raise ExpressionError("unexpected token '*'", text.index("**") + 1)
        source = re.sub(r"\s", " ", text).replace("^", "**")
        lead = len(source) - len(source.lstrip())  # ast rejects leading blanks
        # position in `text` of each character of the parsed source, and of its end
        origin = [i for i, ch in enumerate(text) for _ in range(2 if ch == "^" else 1)]
        self._origin = origin[lead:] + [len(text)]
        self._source = source[lead:]
        try:
            body = ast.parse(self._source, mode="eval").body
        except SyntaxError as err:
            # an offset of 0 means the text ended too early
            at = err.offset - 1 if err.offset else len(self._source)
            raise ExpressionError(err.msg, self._at(at)) from None
        self.max_var = -1
        self._evaluate = self._build(body)

    def _at(self, offset: int) -> int:
        return self._origin[min(offset, len(self._origin) - 1)]

    def _build(self, node):
        """Check one syntax node; returns its evaluator f(point, exact)."""
        at = self._at(node.col_offset)
        if isinstance(node, ast.Constant):
            literal = self._source[node.col_offset:node.end_col_offset]
            if not _NUMBER.fullmatch(literal):
                raise ExpressionError(f"unexpected token {literal!r}", at)
            as_float, as_fraction = float(literal), Fraction(literal)
            return lambda point, exact: as_fraction if exact else as_float
        if isinstance(node, ast.Name):
            if node.id in _FUNCTIONS:
                raise ExpressionError(f"{node.id} needs parenthesised arguments", at)
            if not re.fullmatch(r"x\d+", node.id):
                raise ExpressionError(f"unknown name {node.id!r}", at)
            k = int(node.id[1:]) - 1
            if k < 0:
                raise ExpressionError(f"coordinate {node.id!r} is not valid", at)
            self.max_var = max(self.max_var, k)
            return lambda point, exact: point[k]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            operand = self._build(node.operand)
            return lambda point, exact: -operand(point, exact)
        if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            op = _OPERATORS[type(node.op)]
            left, right = self._build(node.left), self._build(node.right)
            return lambda point, exact: op(left(point, exact), right(point, exact))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id  # keyword arguments cannot occur: '=' is a bad character
            if name not in _FUNCTIONS:
                raise ExpressionError(f"unknown function {name!r}", at)
            if name == "abs" and len(node.args) != 1:
                raise ExpressionError("abs takes exactly one argument", at)
            if name != "abs" and len(node.args) < 2:
                raise ExpressionError(f"{name} takes at least two arguments", at)
            fn = _FUNCTIONS[name]
            args = [self._build(arg) for arg in node.args]
            return lambda point, exact: fn(*[arg(point, exact) for arg in args])
        raise ExpressionError("unsupported syntax", at)

    def __call__(self, point: Sequence[Number], exact: bool = False) -> Number:
        if self.max_var >= len(point):
            raise ValueError(
                f"expression uses x{self.max_var + 1} but points have dimension {len(point)}"
            )
        return self._evaluate(point, exact)


# --- ingestion and grids -----------------------------------------------------


_INTEGER_RATIO = re.compile(r"-?[0-9]+(?:/[0-9]+)?")  # ASCII digits: read by int() as Fraction(str) reads them


def _parse_number(cell: str, exact: bool) -> Number:
    cell = cell.strip()
    if exact:
        try:
            return Fraction(*map(int, cell.split("/"))) if _INTEGER_RATIO.fullmatch(cell) else Fraction(cell)
        except (ValueError, ZeroDivisionError):
            pass
    x = float(cell)
    if not math.isfinite(x):
        raise ValueError(f"{cell!r} is not a finite number")
    return Fraction(x) if exact else x


def _bulk_floats(body: str, d: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Points (n x d) and values (n) of the CSV rows `body` as float64 arrays, or None to read them cell by cell.

    Only a table of at least one row, exactly d+1 columns and finite entries
    is taken; anything else (an empty cell, a quote, a ragged row, ``nan``,
    ``1e400``, a warning such as "input contained no data") returns None.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2, dtype=float)
    except (ValueError, UserWarning):
        return None
    if not (len(table) and table.shape[1] == d + 1 and np.isfinite(table).all()):
        return None
    return table[:, :d], table[:, d]


def ingest(path: str, exact: bool = False) -> SampleSet:
    """Read a CSV with header x1..xd,f into a validated sample set.

    The header is read with ``csv``.  In float mode numpy then reads the
    rows in bulk (`_bulk_floats`) into the float64 table that `SampleSet`
    keeps as it is; a body it does not take whole, and every
    exact body, goes through the reader below cell by cell.  So every error,
    with its ``file:line``, comes from that reader, which is also the only
    one that parses cells to ``Fraction``.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 2 or header[-1] != "f":
            raise ValueError(f"{path}: header must be x1..xd followed by f, got {header}")
        d = len(header) - 1
        expected = [f"x{i + 1}" for i in range(d)]
        if header[:-1] != expected:
            raise ValueError(f"{path}: coordinate columns must be named {expected}, got {header[:-1]}")
        body = handle.read()
    table = None if exact else _bulk_floats(body, d)
    if table is not None:
        points, values = table
    else:
        points, values = [], []
        for lineno, row in enumerate(csv.reader(io.StringIO(body, newline="")), start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != d + 1:
                raise ValueError(f"{path}:{lineno}: expected {d + 1} columns, got {len(row)}")
            try:
                coords = tuple(_parse_number(c, exact) for c in row[:-1])
                value = _parse_number(row[-1], exact)
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
            points.append(coords)
            values.append(value)
    try:
        return SampleSet(points, values)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def generate_grid(
    bounds: Sequence[tuple[Number, Number]],
    resolution,
    node_type: str,
    expression,
    exact: bool = False,
) -> SampleSet:
    """Cartesian-product grid over a hyperbox with f evaluated per point.

    Uniform nodes are exact rationals (kept when `exact`); Chebyshev nodes
    are the cosine points mapped onto each axis.
    """
    if node_type not in ("uniform", "chebyshev"):
        raise ValueError(f"node type must be uniform or chebyshev, got {node_type!r}")
    if isinstance(resolution, int):
        resolution = [resolution] * len(bounds)
    resolution = list(resolution)
    if len(resolution) != len(bounds):
        raise ValueError(f"{len(resolution)} resolutions for {len(bounds)} axes")
    if isinstance(expression, str):
        expression = Expression(expression)
    if expression.max_var >= len(bounds):
        raise ValueError(
            f"expression uses x{expression.max_var + 1} but the grid has {len(bounds)} axes"
        )

    axes = []
    for (lo, hi), res in zip(bounds, resolution):
        if not float(lo) < float(hi):
            raise ValueError(f"bounds must satisfy lo < hi, got ({lo}, {hi})")
        if res < 2:
            raise ValueError(f"resolution must be at least 2, got {res}")
        if node_type == "uniform":
            lo_f, hi_f = Fraction(lo), Fraction(hi)
            nodes = [lo_f + Fraction(k, res - 1) * (hi_f - lo_f) for k in range(res)]
            if not exact:
                nodes = [float(x) for x in nodes]
        else:
            mid = (float(lo) + float(hi)) / 2
            half = (float(hi) - float(lo)) / 2
            nodes = sorted(mid + half * math.cos(math.pi * k / (res - 1)) for k in range(res))
            if exact:
                nodes = [Fraction(x) for x in nodes]
        axes.append(nodes)

    points = [tuple(p) for p in product(*axes)]
    values = []
    for p in points:
        try:
            values.append(expression(p, exact=exact))
        except (ArithmeticError, ValueError) as err:
            reason = "division by zero" if isinstance(err, ZeroDivisionError) else err
            raise ValueError(f"{expression.text} at ({', '.join(map(str, p))}): {reason}") from None
    return SampleSet(points, values)


def parse_grid_spec(spec: str, exact: bool = False) -> SampleSet:
    """Parse "lo,hi[:lo,hi...];res[:res...];uniform|chebyshev;expression"."""
    parts = spec.split(";", 3)
    if len(parts) != 4:
        raise ValueError("grid spec needs four ';'-separated fields: bounds;resolution;type;expression")
    bounds_text, res_text, node_type = (p.strip() for p in parts[:3])
    expr_text = parts[3].strip()
    bounds = []
    for axis in bounds_text.split(":"):
        pieces = axis.split(",")
        if len(pieces) != 2:
            raise ValueError(f"axis bounds must look like 'lo,hi', got {axis!r}")
        bounds.append((Fraction(pieces[0].strip()), Fraction(pieces[1].strip())))
    res = [int(r) for r in res_text.split(":")]
    return generate_grid(bounds, res if len(res) > 1 else res[0], node_type, expr_text, exact=exact)


# --- configuration and reports ----------------------------------------------


@dataclass
class RunConfig:
    """One command and its options, as the parser gives them.

    A `rel_tol` of None is `DEFAULT_REL_TOL` in float arithmetic and 0 in
    exact arithmetic, where the extreme sets hold exactly the points at psi;
    a value given is applied in either (`rel_tol_in`).
    """

    command: str  # fit | verify | reduce | alternate | report
    input_path: Optional[str] = None
    grid: Optional[str] = None
    degree: Optional[int] = None
    rel_tol: Optional[float] = None
    exact: bool = False
    out: Optional[str] = None
    coeffs: Optional[str] = None
    report_path: Optional[str] = None

    def __post_init__(self):
        if self.degree is not None and self.degree < 0:
            raise ValueError("degree must be non-negative")
        if self.rel_tol is not None and not (0 <= self.rel_tol < 0.5):
            raise ValueError("rel-tol must lie in [0, 0.5)")

    def rel_tol_in(self, exact: bool) -> float:
        """The extreme sets' `rel_tol` in the given arithmetic: the one given, else its default there."""
        return self.rel_tol if self.rel_tol is not None else (0.0 if exact else DEFAULT_REL_TOL)


def _jnum(x: Number):
    return str(x) if isinstance(x, Fraction) else x


def _model_to_json(model: PolynomialModel) -> dict:
    return {"degree": model.degree, "coefficients": [_jnum(c) for c in model.coefficients]}


def _outcome_to_json(outcome) -> dict:
    if isinstance(outcome, IntersectionCertificate):
        return {
            "certificate": {
                "degree": outcome.degree,
                "plus": list(outcome.plus_indices),
                "minus": list(outcome.minus_indices),
                "alpha": [_jnum(w) for w in outcome.alpha],
                "beta": [_jnum(w) for w in outcome.beta],
                "moment_residual": _jnum(outcome.moment_residual),
            }
        }
    return {
        "witness": {
            "coefficients": [_jnum(c) for c in outcome.model.coefficients],
            "degree": outcome.model.degree,
            "margins": {
                "plus": _jnum(outcome.plus_margin),
                "minus": _jnum(outcome.minus_margin),
            },
        }
    }


def _reduction_to_json(report: ReductionReport) -> dict:
    return {
        "verdict": report.verdict,
        "vacuous_branches": report.vacuous_branches,
        "traces": [
            {
                "branch": [[dim, variant] for dim, variant in trace.branch],
                "verdict": trace.verdict,
                "steps": [
                    {
                        "dimension": step.dimension,
                        "variant": step.variant,
                        "delta": _jnum(step.delta),
                        "removed": list(step.removed),
                        "degree_after": step.degree_after,
                    }
                    for step in trace.steps
                ],
            }
            for trace in report.traces
        ],
    }


def _split_to_json(sp: Optional[HyperplaneSplit]) -> Optional[dict]:
    if sp is None:
        return None
    return {
        "normal": [_jnum(c) for c in sp.normal],
        "offset": _jnum(sp.offset),
        "plus_side": list(sp.plus_side),
        "minus_side": list(sp.minus_side),
        "on_plane_plus": list(sp.on_plane_plus),
        "on_plane_minus": list(sp.on_plane_minus),
    }


def _alternation_to_json(verdict: HyperplaneVerdict) -> dict:
    out = {
        "verdict": verdict.verdict,
        "planes_checked": verdict.planes_checked,
        "counterexample": _split_to_json(verdict.counterexample),
    }
    if verdict.warning:
        out["warning"] = verdict.warning
    return out


def _load_samples(config: RunConfig) -> tuple[SampleSet, str]:
    if config.input_path and config.grid:
        raise ValueError("give either --input or --grid, not both")
    if config.grid:
        return parse_grid_spec(config.grid, exact=config.exact), f"grid:{config.grid}"
    if config.input_path:
        return ingest(config.input_path, exact=config.exact), config.input_path
    raise ValueError("an input is required (--input or --grid)")


@contextmanager
def _naming(where: str):
    """Prefix `where` (a file, a file and a field) to a ValueError raised inside."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None


def _json_object(path: str) -> dict:
    with _naming(path), open(path) as handle:
        payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    return payload


def _json_degree(degree) -> int:
    if type(degree) is not int or degree < 0:
        raise ValueError(f"'degree' must be an integer >= 0, got {degree!r}")
    return degree


def _json_number(value, message: str) -> Number:
    """A finite JSON number (not a bool) as it is, or a string as its ``Fraction``; else ValueError(message)."""
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    elif type(value) in (int, float) and math.isfinite(value):
        return value
    raise ValueError(message)


def _json_instance(instance) -> tuple[int, int]:
    """(points, dimension) of a report's 'instance' object."""
    if not isinstance(instance, dict) or not all(type(instance.get(k)) is int for k in ("points", "dimension")):
        raise ValueError("'instance' must be an object with integer 'points' and 'dimension'")
    return instance["points"], instance["dimension"]


def _json_indices(payload, key: str, count: int) -> tuple[int, ...]:
    """payload[key] as sample indices, each an int in [0, count); a ValueError names the field."""
    indices = payload.get(key) if isinstance(payload, dict) else None
    if not isinstance(indices, list) or not all(type(i) is int and 0 <= i < count for i in indices):
        raise ValueError(f"'{key}' must be a list of sample indices in [0, {count})")
    return tuple(indices)


def _json_weights(payload, key: str, count: int) -> tuple[Number, ...]:
    """payload[key] as `count` numbers; a ValueError names the field."""
    weights = payload.get(key) if isinstance(payload, dict) else None
    message = f"'{key}' must be a list of numbers or rational strings, one per index ({count})"
    if not isinstance(weights, list) or len(weights) != count:
        raise ValueError(message)
    return tuple(_json_number(w, message) for w in weights)


def _model_from_json(payload, dimension: int, exact: bool = False) -> PolynomialModel:
    """The model of a {degree, coefficients} JSON object; a ValueError names the field at fault."""
    if payload is None:
        raise ValueError("missing or null")
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    degree = _json_degree(payload.get("degree"))
    coeffs = payload.get("coefficients")
    message = "'coefficients' must be a list of numbers or rational strings"
    if not isinstance(coeffs, list):
        raise ValueError(message)
    coeffs = tuple(_json_number(c, message) for c in coeffs)
    return PolynomialModel(build_basis(dimension, degree), tuple(map(Fraction, coeffs)) if exact else coeffs)


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one command; returns (exit code, report dict).

    The steps run in report order: load the samples; fit a model, or read
    ``--coeffs``; split the extreme sets; the certificate (fit, verify), a
    fit's own weights when they check out; isolability (verify); then
    reduction and alternation, each under its own command, and under fit
    when the degree is at least 1, the fit is not exact on the samples and
    both extreme sets hold points.  verify times isolability first: the
    certificate step reads its one margin LP.  fit and verify exit on the
    certificate, reduce and alternate on their own verdict.
    """
    if config.command == "report":
        return _run_revalidate(config)
    exact = config.exact
    rel_tol = config.rel_tol_in(exact)
    timings: dict[str, float] = {}

    def timed(key: str, fn, *args):
        """fn(*args), its wall time kept as timings[key]."""
        start = time.perf_counter()
        result = fn(*args)
        timings[key] = time.perf_counter() - start
        return result

    samples, source = timed("load_s", _load_samples, config)
    report: dict = {
        "instance": {"source": source, "dimension": samples.dimension, "points": len(samples)},
        "arithmetic": "exact" if exact else "float",
        "timings": timings,
    }
    if config.coeffs:
        payload = _json_object(config.coeffs)
        with _naming(config.coeffs):
            model = _model_from_json(payload, samples.dimension, exact)
        if config.degree not in (None, model.degree):
            raise ValueError(f"--degree {config.degree} conflicts with coefficients file degree {model.degree}")
        extremes, weights = extreme_sets(model, samples, rel_tol), None  # only a fit has certificate weights
    elif config.degree is None:
        raise ValueError("--degree is required when fitting")
    else:
        fit = timed("fit_s", fit_minimax, samples, config.degree, exact)
        model, extremes, weights = fit.model, partition_extremes(fit.residuals, rel_tol), fit.weights
    degree = model.degree
    if config.command in ("reduce", "alternate") and degree < 1:
        raise ValueError(f"{config.command} needs degree >= 1")
    report.update(degree=degree, model=_model_to_json(model), psi=_jnum(extremes.psi),
                  extremes={"plus": list(extremes.plus), "minus": list(extremes.minus),
                            "degenerate": extremes.degenerate})

    passed: dict[str, bool] = {}  # command -> the verdict it exits on
    outcome = None  # fit's certificate or witness: alternation reads its planes off a certificate
    verify = config.command == "verify"  # its one margin LP: the certificate step reads the verdict from it
    iso = timed("isolability_s", check_isolability, extremes, samples, degree, exact) if verify else None
    if config.command in ("fit", "verify"):
        outcome = timed("certificate_s", check_hull_intersection, extremes, samples, degree, exact, weights, iso)
        report.update(_outcome_to_json(outcome))
        passed["fit"] = passed["verify"] = isinstance(outcome, IntersectionCertificate)
    if iso:
        report["isolability"] = {"isolable": iso.isolable, "margin": _jnum(iso.margin)}
    one_sided = not (extremes.plus and extremes.minus)
    fit_checks = config.command == "fit" and degree >= 1 and not extremes.degenerate and not one_sided
    if config.command == "reduce" or fit_checks:
        if extremes.degenerate:
            report["reduction"] = {"verdict": "pass", "vacuous_branches": 0, "traces": [],
                                   "note": "exact fit; nothing to reduce"}
        elif one_sided:
            report["reduction"] = {"verdict": "fail", "vacuous_branches": 0, "traces": [],
                                   "note": "one extreme set is empty; a constant shift lowers the error"}
        else:
            red = timed("reduction_s", reduce_and_verify, extremes, samples, degree, exact)
            report["reduction"] = _reduction_to_json(red)
        passed["reduce"] = report["reduction"]["verdict"] == "pass"
    if config.command == "alternate" or fit_checks:
        if extremes.degenerate:
            report["alternation"] = {"verdict": "pass", "planes_checked": 0, "counterexample": None,
                                     "note": "exact fit; trivially optimal"}
        else:
            alt = timed("alternation_s", verify_by_hyperplanes, extremes, samples, degree, exact, outcome)
            report["alternation"] = _alternation_to_json(alt)
        passed["alternate"] = report["alternation"]["verdict"] in ("pass", "vacuous")
    return (0 if passed[config.command] else 2), report


def _run_revalidate(config: RunConfig) -> tuple[int, dict]:
    """Re-validate a previously written report against its input data.

    Every report holds its model, whose psi and extreme sets are recomputed,
    the sets with ``--rel-tol`` or the run's default: the report's extremes,
    which the witness replays over, must equal them, and a certificate's
    weighted points lie in them.  The report's degree must be the model's,
    a certificate is replayed at it, and a witness may not exceed it.  A
    missing or malformed field is an error.
    """
    if not config.report_path:
        raise ValueError("report re-validation needs --report <json>")
    report = _json_object(config.report_path)
    exact = report.get("arithmetic") == "exact"
    samples, _ = _load_samples(replace(config, exact=exact))  # the report's own arithmetic
    checks: dict[str, bool] = {}
    n = len(samples)

    with _naming(config.report_path):
        instance = _json_instance(report.get("instance"))
        degree = _json_degree(report.get("degree"))
    if instance != (n, samples.dimension):
        raise ValueError("input data does not match the report instance")
    with _naming(f"{config.report_path}: model"):
        model = _model_from_json(report.get("model"), samples.dimension, exact)
    with _naming(config.report_path):
        claimed = _json_number(report.get("psi"), "'psi' must be a number or a rational string")
    recomputed = extreme_sets(model, samples, config.rel_tol_in(exact))
    if exact:
        checks["psi"] = recomputed.psi == claimed
    else:
        checks["psi"] = abs(float(recomputed.psi) - float(claimed)) <= 1e-9 * max(1.0, float(claimed))
    sets = {"plus": list(recomputed.plus), "minus": list(recomputed.minus), "degenerate": recomputed.degenerate}
    checks["extremes"] = report.get("extremes") == sets
    checks["degree"] = degree == model.degree

    if "certificate" in report:
        with _naming(f"{config.report_path}: certificate"):
            cert = report["certificate"]
            plus, minus = _json_indices(cert, "plus", n), _json_indices(cert, "minus", n)
            alpha, beta = _json_weights(cert, "alpha", len(plus)), _json_weights(cert, "beta", len(minus))
        rebuilt = IntersectionCertificate(model.degree, plus, minus, alpha, beta, 0, exact)
        checks.update(certificate_checks(replace(rebuilt, moment_residual=verify_certificate(rebuilt, samples))))
        # the weighted points are the model's extreme points, each on its own side
        checks["certificate_support"] = ({i for i, w in zip(plus, alpha) if w} <= set(recomputed.plus)
                                         and {i for i, w in zip(minus, beta) if w} <= set(recomputed.minus))
    if "witness" in report:
        with _naming(f"{config.report_path}: witness"):
            witness = SeparationWitness(_model_from_json(report["witness"], samples.dimension), None, None)
        with _naming(f"{config.report_path}: extremes"):
            extremes = report.get("extremes")
            plus, minus = _json_indices(extremes, "plus", n), _json_indices(extremes, "minus", n)
        checks["witness_degree"] = witness.model.degree <= model.degree
        checks["witness_separates"] = verify_witness(witness, plus, minus, samples)

    valid = all(checks.values())
    return (0 if valid else 2), {"revalidated": config.report_path, "checks": checks, "valid": valid}


# --- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ValueError, so `main` reports them like every other error."""

    def error(self, message: str):
        raise ValueError(message)


@functools.cache  # one parser per process; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="minimaxfit",
        description="Best uniform polynomial approximation with optimality verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("fit", "fit a model and run the full verification pipeline"),
        ("verify", "certificate / separating-witness check (optionally for given coefficients)"),
        ("reduce", "point-reduction necessary-condition check"),
        ("alternate", "hyperplane split verification"),
        ("report", "re-validate a previously written report"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", dest="input_path", metavar="INPUT", help="CSV file with header x1..xd,f")
        p.add_argument("--grid", help='grid spec "lo,hi[:lo,hi];res[:res];uniform|chebyshev;expr", '
                                      'e.g. --grid "-1,1;11;uniform;x1^3"')
        p.add_argument("--degree", type=int, help="model degree m")
        p.add_argument("--rel-tol", type=float, help="relative band for extreme-point detection "
                                                     f"(default {DEFAULT_REL_TOL:g} in float, 0 with --exact)")
        p.add_argument("--exact", action="store_true", help="exact rational arithmetic")
        p.add_argument("--out", help="write the JSON report here (default: stdout)")
        if name in ("verify", "reduce", "alternate"):
            p.add_argument("--coeffs", help="JSON file {degree, coefficients} to verify as-is")
        if name == "report":
            p.add_argument("--report", dest="report_path", help="report JSON to re-validate")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--grid" in argv[:-1]:
        # argparse takes a separate value that starts with '-' (a negative lower
        # bound) for an option, so hand the grid spec over joined to its flag
        k = argv.index("--grid")
        argv[k:k + 2] = [f"--grid={argv[k + 1]}"]
    with warnings.catch_warnings():  # each warning the filters show, as one line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            config = RunConfig(**vars(_build_parser().parse_args(argv)))
            code, report = run(config)
            text = json.dumps(report, allow_nan=False)  # no indent: the C encoder
            if config.out:
                with open(config.out, "w") as handle:
                    handle.write(text + "\n")
            else:
                print(text)
        except (OSError, ValueError, KeyError, ArithmeticError, RuntimeError, Warning) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    return code


def console_main() -> None:
    sys.exit(main())

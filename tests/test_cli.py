"""CSV ingestion, grid generation, the expression parser, and CLI runs."""

import ast
import importlib.util
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import minimaxfit
from minimaxfit import build_basis, check_hull_intersection, cli, fit_minimax, fitting, monomials, optimality
from minimaxfit import compute_psi, partition_extremes
from minimaxfit.cli import (
    Expression,
    ExpressionError,
    RunConfig,
    generate_grid,
    ingest,
    main,
    parse_grid_spec,
    run,
)

from support import reference_lift

DATA = os.path.join(os.path.dirname(__file__), "data")


class TestIngest:
    def test_univariate(self):
        samples = ingest(os.path.join(DATA, "parabola.csv"))
        assert samples.dimension == 1
        assert len(samples) == 3
        assert samples.values == (1.0, 0.0, 1.0)

    def test_bivariate_corners(self):
        samples = ingest(os.path.join(DATA, "xy_corners.csv"))
        assert samples.dimension == 2
        assert len(samples) == 4

    def test_exact_mode_parses_decimals_exactly(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,f\n0.1,0.3\n0.2,0.7\n")
        samples = ingest(str(path), exact=True)
        assert samples.points[0][0] == Fraction(1, 10)
        assert samples.values[1] == Fraction(7, 10)

    def test_duplicate_rows_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("x1,f\n1,2\n1,3\n")
        with pytest.raises(ValueError, match="duplicate"):
            ingest(str(path))

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,f\n1,2\nnope,3\n")
        with pytest.raises(ValueError, match="bad.csv:3"):
            ingest(str(path))

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            ingest(str(path))

    def test_wrong_width_reports_line(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("x1,f\n1,2\n3,4,5\n")
        with pytest.raises(ValueError, match="w.csv:3"):
            ingest(str(path))

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_cell_reports_line(self, tmp_path, exact, cell):
        for text in (f"x1,f\n1,2\n{cell},3\n", f"x1,f\n1,2\n2,{cell}\n"):
            path = tmp_path / "nf.csv"
            path.write_text(text)
            if exact and cell == "1e400":  # a finite rational
                if text.endswith(f"{cell}\n"):
                    assert max(ingest(str(path), exact=True).values) == 10**400
                continue
            with pytest.raises(ValueError, match="nf.csv:3: .* is not a finite number"):
                ingest(str(path), exact=exact)

    def test_exact_mode_takes_a_coordinate_beyond_float_range(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("x1,f\n1,2\n1e400,3\n")
        assert ingest(str(path), exact=True).points[1] == (10**400,)


def _fraction_then_float(cell):
    """The exact cell parser before its integer path: ``Fraction(str)``, then ``float``; the reference."""
    cell = cell.strip()
    try:
        return Fraction(cell)
    except (ValueError, ZeroDivisionError):
        pass
    x = float(cell)
    if not math.isfinite(x):
        raise ValueError(f"{cell!r} is not a finite number")
    return Fraction(x)


_EXACT_CELLS = {
    "plus sign": "+1", "spaces": " 7 ", "underscore": "1_0", "exponent": "1e3", "decimal": "0.5",
    "minus zero": "-0", "negative denominator": "3/-4", "zero denominator": "1/0", "superscript": "\u00b2",
    "arabic-indic digit": "\u0663", "power": "10**400", "400 digits": "1" + "0" * 399, "ratio": "-12/8",
    "leading zeros": "007", "no denominator": "1/", "sign alone": "-", "4,300 digits": "9" * 4300,
    "4,301 digits": "9" * 4301,
}


@pytest.mark.parametrize("name", sorted(_EXACT_CELLS))
def test_exact_cells_read_as_fraction_of_the_string(tmp_path, capsys, name):
    # integer and integer-ratio cells skip Fraction(str); every cell keeps its value, type and error line
    cell = _EXACT_CELLS[name]
    try:
        expected = _fraction_then_float(cell)
    except ValueError as err:
        expected = err
    try:
        got = cli._parse_number(cell, exact=True)
    except ValueError as err:
        assert isinstance(expected, ValueError) and str(err) == str(expected)
    else:
        assert type(got) is type(expected) is Fraction and got == expected
    path = tmp_path / "cells.csv"
    path.write_text(f"x1,f\n0,1\n1,{cell}\n2,3\n", encoding="utf-8")
    code = main(["fit", "--input", str(path), "--degree", "0", "--exact", "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    if isinstance(expected, ValueError):
        assert code == 1 and err == f"error: {path}:3: {expected}\n"
    else:
        assert code == 0 and err == ""
        values = (1, expected, 3)  # a degree-0 fit: psi is half the range
        assert Fraction(json.loads((tmp_path / "r.json").read_text())["psi"]) == (max(values) - min(values)) / 2


# Bodies after the header, for d = 1 and d = 2.  Each is read by numpy and,
# with `_bulk_floats` switched off, cell by cell; see TestBulkIngest.
_BODIES = {
    "plain": ["1,2\n3,4\n", "1,2,3\n4,5,6\n"],
    "blank lines": ["\n1,2\n\n\n3,4\n\n", "1,2,3\n\n4,5,6\n"],
    "whitespace lines": ["1,2\n   \n3,4\n\t\n", "1,2,3\n \x0c \n4,5,6\n"],
    "empty cells": ["1,2\n,\n3,4\n", "1,2,3\n , ,\t\n4,5,6\n"],
    "empty cell in a row": ["1,\n", "1,,3\n"],
    "quoted cells": ['"1",2\n3,4\n', '1,"2",3\n"4","5","6"\n'],
    "quoted comma": ['"1,5",2\n', '1,"2,5",3\n'],
    "underscores": ["1_0,2\n3,4\n", "1,2_0,3\n"],
    "unicode digits": ["\u0661,2\n3,4\n", "1,2,\u0663\n"],
    "whitespace": [" 1 ,\t2\t\n3 , 4\n", "\xa01,\u20032,3\x1c\n4,5,6 \x0b\n"],
    "crlf": ["1,2\r\n3,4\r\n", "1,2,3\r\n\r\n4,5,6\r\n"],
    "bare cr": ["1,2\r3,4\r", "1,2,3\r4,5,6\r"],
    "comment line": ["# note\n1,2\n", "1,2,3\n#4,5,6\n"],
    "trailing comma": ["1,2,\n3,4,\n", "1,2,3,\n"],
    "ragged": ["1,2\n3\n", "1,2,3\n4,5\n"],
    "too wide": ["1,2,3\n", "1,2,3,4\n"],
    "header only": ["", ""],
    "blank body": ["\n\n", " \n"],
    "nan x1": ["nan,2\n", "nan,2,3\n"],
    "nan x2": ["1,2\n", "1,nan,3\n"],
    "nan f": ["1,nan\n", "1,2,nan\n"],
    "inf x1": ["-inf,2\n", "inf,2,3\n"],
    "inf x2": ["1,2\n", "1,Infinity,3\n"],
    "inf f": ["1,inf\n", "1,2,-Infinity\n"],
    "1e400 x1": ["1e400,2\n", "1e400,2,3\n"],
    "1e400 x2": ["1,2\n", "1,-1e400,3\n"],
    "1e400 f": ["1,1e400\n", "1,2,1e400\n"],
    "subnormals": ["5e-324,2.2250738585072009e-308\n1,-4.9406564584124654e-324\n2,1e-320\n",
                   "5e-324,-1e-310,2.225073858507201e-308\n"],
    "17 digits": ["0.10000000000000001,1.2345678901234567\n0.30000000000000004,-9.8765432109876543\n",
                  "0.10000000000000001,0.20000000000000001,9007199254740993\n"],
    "more than 17 digits": [
        "1.00000000000000011102230246251565404236316680908203125,"
        "1.00000000000000011102230246251565404236316680908203126\n3,4\n",
        "0.1000000000000000055511151231257827021181583404541015625,"
        "2.00000000000000000000000000000000000001,12345678901234567890123\n"],
    "signed zeros": ["-0,1\n+0.0,2\n", "-0.0,0,-0\n"],
    "duplicates": ["1,2\n1,3\n", "0,0,1\n1,1,2\n0,1e-13,3\n"],
    "other syntax": ["1d5,2\n0x10,3\n", "1e,2,3\n"],
}


class TestBulkIngest:
    """The numpy path of float `ingest` against the cell-by-cell reader."""

    @staticmethod
    def _read(path, monkeypatch, bulk):
        with monkeypatch.context() as patch:
            if not bulk:
                patch.setattr(cli, "_bulk_floats", lambda body, d: None)
            try:
                samples = ingest(str(path))
            except ValueError as err:
                return "error", str(err)
        hexed = [[c.hex() for c in p] for p in samples.points], [v.hex() for v in samples.values]
        assert all(type(c) is float for p in samples.points for c in p)
        assert all(type(v) is float for v in samples.values)
        return "samples", hexed

    @pytest.mark.parametrize("name", sorted(_BODIES))
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_the_cell_reader(self, tmp_path, monkeypatch, name, d):
        path = tmp_path / "body.csv"
        header = ",".join([f"x{i + 1}" for i in range(d)] + ["f"])
        with open(path, "w", newline="") as handle:
            handle.write(header + "\r\n" + _BODIES[name][d - 1])
        assert self._read(path, monkeypatch, True) == self._read(path, monkeypatch, False)

    def test_clean_bodies_take_the_bulk_path(self, tmp_path, monkeypatch):
        taken, real = [], cli._bulk_floats

        def recorded(body, d):
            taken.append(real(body, d))
            return taken[-1]

        monkeypatch.setattr(cli, "_bulk_floats", recorded)
        for name in ("plain", "blank lines", "crlf", "subnormals", "17 digits", "more than 17 digits"):
            for d, body in enumerate(_BODIES[name], start=1):
                path = tmp_path / "clean.csv"
                path.write_text(",".join([f"x{i + 1}" for i in range(d)] + ["f"]) + "\n" + body)
                ingest(str(path))
                assert taken[-1] is not None, (name, d)
        ingest(str(path), exact=True)  # exact bodies are read cell by cell
        assert len(taken) == 12


class TestExpression:
    def test_polynomial(self):
        expr = Expression("x1^3 - 2*x1 + 1")
        assert expr((2.0,)) == 5.0

    def test_functions_and_precedence(self):
        expr = Expression("abs(min(x1, x2)) + max(x1, x2, 0) * 2")
        assert expr((-3.0, 1.0)) == 5.0

    def test_unary_minus_and_power(self):
        assert Expression("-x1^2")((2.0,)) == -4.0
        assert Expression("(-x1)^2")((2.0,)) == 4.0

    def test_exact_evaluation(self):
        assert Expression("x1^2/3")( (Fraction(1, 2),), exact=True) == Fraction(1, 12)
        assert Expression("0.1")((), exact=True) == Fraction(1, 10)

    def test_parse_error_carries_position(self):
        # positions index the text as written, also after a '^' (parsed as '**')
        for text, position in [("x1 + $", 5), ("x1^2 + $", 7), ("x1^ 2 ^ 3 + )", 12)]:
            with pytest.raises(ExpressionError) as err:
                Expression(text)
            assert err.value.position == position, text

    def test_rejects_syntax_outside_the_grammar(self):
        for text in ["x1**2", "+x1", "abs(x=x1)", "abs(x1, x2)", "max(x1)", "x1 // 2",
                     "x1.real", "0x10", "x0", "abs", "x1 < 2"]:
            with pytest.raises(ExpressionError):
                Expression(text)

    def test_unknown_name(self):
        with pytest.raises(ExpressionError):
            Expression("x1 + sin(x1)")

    def test_point_with_too_few_coordinates(self):
        with pytest.raises(ValueError, match="expression uses x2 but points have dimension 1"):
            Expression("x2")((1.0,))

    def test_unbalanced_parens(self):
        with pytest.raises(ExpressionError):
            Expression("(x1 + 1")


class TestGenerateGrid:
    def test_uniform_cubic_fixture(self):
        samples = generate_grid([(-1, 1)], 1001, "uniform", "x1^3")
        assert len(samples) == 1001
        assert samples.points[0][0] == -1.0 and samples.points[-1][0] == 1.0
        assert samples.values[500] == 0.0

    def test_chebyshev_nodes(self):
        samples = generate_grid([(-1, 1)], 5, "chebyshev", "x1^2")
        expected = sorted(math.cos(k * math.pi / 4) for k in range(5))
        assert [p[0] for p in samples.points] == pytest.approx(expected)

    def test_two_by_two_corners(self):
        samples = generate_grid([(-1, 1), (-1, 1)], 2, "uniform", "x1*x2")
        assert sorted(samples.points) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        assert all(v == p[0] * p[1] for p, v in zip(samples.points, samples.values))

    def test_exact_uniform_nodes_are_rational(self):
        samples = generate_grid([(Fraction(-1), Fraction(1))], 5, "uniform", "x1", exact=True)
        assert [p[0] for p in samples.points] == [
            Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1),
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_grid([(1, -1)], 5, "uniform", "x1")
        with pytest.raises(ValueError):
            generate_grid([(-1, 1)], 1, "uniform", "x1")
        with pytest.raises(ValueError):
            generate_grid([(-1, 1)], 5, "random", "x1")
        with pytest.raises(ValueError):
            generate_grid([(-1, 1)], 5, "uniform", "x2")

    def test_spec_string(self):
        samples = parse_grid_spec("-1,1:-1,1;2;uniform;x1*x2")
        assert len(samples) == 4 and samples.dimension == 2

    def test_spec_with_a_resolution_per_axis(self):
        samples = parse_grid_spec("-1,1:-1,1;5:7;uniform;x1")
        assert len(samples) == 35 and samples.dimension == 2
        assert [len(set(axis)) for axis in zip(*samples.points)] == [5, 7]
        assert samples.values == tuple(p[0] for p in samples.points)


def _lps(monkeypatch, name="_moment_lp") -> list:
    """The rows of every later `optimality.<name>` call, a hull LP's builder, which still runs."""
    calls, real = [], getattr(optimality, name)
    monkeypatch.setattr(optimality, name, lambda *rows: calls.append(rows) or real(*rows))
    return calls


class TestRunPipeline:
    def test_fit_on_cubic_grid_passes_everything(self, tmp_path):
        config = RunConfig(
            command="fit", grid="-1,1;201;uniform;x1^3", degree=2,
            out=str(tmp_path / "r.json"),
        )
        code, report = run(config)
        assert code == 0
        assert "certificate" in report
        assert report["reduction"]["verdict"] == "pass"
        assert report["alternation"]["verdict"] == "pass"
        assert abs(report["psi"] - 0.25) < 1e-2

    def test_verify_rejects_perturbed_coefficients(self, tmp_path):
        coeffs = tmp_path / "c.json"
        coeffs.write_text(json.dumps({"degree": 1, "coefficients": [0.51, 0.0]}))
        config = RunConfig(
            command="verify",
            input_path=os.path.join(DATA, "parabola.csv"),
            coeffs=str(coeffs),
        )
        code, report = run(config)
        assert code == 2
        assert "witness" in report
        assert report["isolability"]["isolable"]
        assert report["timings"]["isolability_s"] >= 0

    def test_verify_accepts_optimal_coefficients(self, tmp_path):
        coeffs = tmp_path / "c.json"
        coeffs.write_text(json.dumps({"degree": 1, "coefficients": [0.5, 0.0]}))
        config = RunConfig(
            command="verify",
            input_path=os.path.join(DATA, "parabola.csv"),
            coeffs=str(coeffs),
        )
        code, report = run(config)
        assert code == 0
        assert "certificate" in report

    def test_exact_mode_reports_rationals(self):
        config = RunConfig(
            command="verify",
            input_path=os.path.join(DATA, "xy_corners.csv"),
            degree=1,
            exact=True,
        )
        code, report = run(config)
        assert code == 0
        assert report["psi"] == "1"
        assert report["certificate"]["alpha"] == ["1/2", "1/2"]

    def test_reduce_and_alternate_commands(self):
        for command in ("reduce", "alternate"):
            config = RunConfig(
                command=command,
                input_path=os.path.join(DATA, "xy_corners.csv"),
                degree=1,
            )
            code, report = run(config)
            assert code == 0, report
        # each command writes the same section as fit does on the same input
        for grid, degree, exact in [
            ("-1,1;41;uniform;x1^4", 3, False),
            ("-1,1;11;uniform;x1^4", 2, True),
            ("-1,1:-1,1;7;uniform;x1^2*x2+x2^3", 2, False),
            ("-1,1:-1,1;3;uniform;x1^2*x2+x2^3+x1^3", 2, True),
        ]:
            _, fit = run(RunConfig(command="fit", grid=grid, degree=degree, exact=exact))
            for command, section in (("reduce", "reduction"), ("alternate", "alternation")):
                code, report = run(RunConfig(command=command, grid=grid, degree=degree, exact=exact))
                assert report[section] == fit[section], (grid, exact, command)
                assert code == (0 if report[section]["verdict"] in ("pass", "vacuous") else 2)
        # an exact fit leaves nothing to check: fit skips both stages, the commands say so
        for exact in (False, True):
            _, fit = run(RunConfig(command="fit", grid="-1,1;5;uniform;x1^2", degree=2, exact=exact))
            assert fit["extremes"]["degenerate"]
            assert "reduction" not in fit and "alternation" not in fit
            for command, section in (("reduce", "reduction"), ("alternate", "alternation")):
                code, report = run(RunConfig(command=command, grid="-1,1;5;uniform;x1^2",
                                             degree=2, exact=exact))
                assert code == 0
                assert report[section]["verdict"] == "pass"
                assert report[section]["note"].startswith("exact fit")

    def test_one_sided_extremes_fail_every_check(self, tmp_path):
        # every extreme point lies above the model: a constant shift improves it, so
        # reduce answers with a failing verdict as verify and alternate do, not an error
        data, coeffs = tmp_path / "one.csv", tmp_path / "c.json"
        data.write_text("x1,f\n-1,1\n0,0\n1,1\n0.5,0.25\n")
        coeffs.write_text(json.dumps({"degree": 2, "coefficients": [-5, 0, 0]}))
        reports = {}
        for command in ("verify", "reduce", "alternate"):
            code, reports[command] = run(RunConfig(command=command, input_path=str(data), coeffs=str(coeffs)))
            assert code == 2, command
            assert (reports[command]["extremes"]["plus"], reports[command]["extremes"]["minus"]) == ([0, 2], [])
        assert reports["alternate"]["alternation"]["verdict"] == "fail"
        reduction = reports["reduce"]["reduction"]
        assert (reduction["verdict"], reduction["traces"], reduction["vacuous_branches"]) == ("fail", [], 0)
        assert "empty" in reduction["note"]
        assert main(["reduce", "--input", str(data), "--coeffs", str(coeffs), "--out", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("command, section", [
        ("verify", "witness"), ("alternate", "alternation"), ("reduce", "reduction")])
    def test_exact_runs_band_extremes_exactly(self, tmp_path, command, section):
        # the exact optimum of x1^3 on 11 points at m=2 is (0, 19/25, 0), psi 6/25; raising c0 by
        # 1/10^10 moves the plus points to psi - 1/10^10: no longer extreme in exact arithmetic,
        # where the default band is 0, but kept by an explicit float band
        grid, coeffs = "-1,1;11;uniform;x1^3", tmp_path / "c.json"
        coeffs.write_text(json.dumps({"degree": 2, "coefficients": ["1/10000000000", "19/25", "0"]}))
        code, report = run(RunConfig(command=command, grid=grid, coeffs=str(coeffs), exact=True))
        assert code == 2
        assert report["psi"] == "2400000001/10000000000"
        assert (report["extremes"]["plus"], report["extremes"]["minus"]) == ([], [0, 7, 8])
        assert report[section].get("verdict", "fail") == "fail"  # a witness has no verdict
        code, report = run(RunConfig(command=command, grid=grid, coeffs=str(coeffs), exact=True, rel_tol=1e-8))
        assert code == 0
        assert (report["extremes"]["plus"], report["extremes"]["minus"]) == ([2, 3, 10], [0, 7, 8])

    def test_exact_psi_below_the_float_tolerance_is_not_degenerate(self):
        # psi 3/125000000000000 is below DEGENERATE_PSI (1e-12), but not 0: the fit is not exact
        code, report = run(RunConfig(command="fit", grid="-1,1;11;uniform;x1^3/10000000000000",
                                     degree=2, exact=True))
        assert code == 0
        assert report["psi"] == "3/125000000000000"
        assert report["extremes"] == {"plus": [2, 3, 10], "minus": [0, 7, 8], "degenerate": False}
        assert report["reduction"]["verdict"] == report["alternation"]["verdict"] == "pass"

    @pytest.mark.parametrize("argv, keys, sections", [
        (["fit", "--grid", "-1,1;21;uniform;x1^3", "--degree", "2"],
         ["load_s", "fit_s", "certificate_s", "reduction_s", "alternation_s"],
         ["certificate", "reduction", "alternation"]),
        (["fit", "--grid", "-1,1;21;uniform;x1^3", "--degree", "3"], ["load_s", "fit_s", "certificate_s"],
         ["certificate"]),
        (["verify", "--grid", "-1,1;21;uniform;x1^3", "--degree", "2"],
         ["load_s", "fit_s", "isolability_s", "certificate_s"], ["certificate", "isolability"]),
        (["reduce", "--grid", "-1,1;21;uniform;x1^3", "--degree", "2"], ["load_s", "fit_s", "reduction_s"],
         ["reduction"]),
        (["alternate", "--grid", "-1,1;21;uniform;x1^3", "--coeffs", "COEFFS"], ["load_s", "alternation_s"],
         ["alternation"]),
    ], ids=["fit", "degenerate-fit", "verify", "reduce", "alternate-coeffs"])
    def test_timings_and_sections_in_run_order(self, tmp_path, argv, keys, sections):
        # x1^3 - 3/4 x1 equioscillates on the grid: these coefficients are optimal
        coeffs, out = tmp_path / "c.json", tmp_path / "r.json"
        coeffs.write_text(json.dumps({"degree": 2, "coefficients": [0, 0.75, 0]}))
        assert main([str(coeffs) if a == "COEFFS" else a for a in argv] + ["--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert list(report["timings"]) == keys
        head = ["instance", "arithmetic", "timings", "degree", "model", "psi", "extremes"]
        assert list(report) == head + sections

    @pytest.mark.parametrize("grid, degree, exact", [
        ("-1,1;201;uniform;x1^5+x1^2", 3, False),
        ("-1,1;41;chebyshev;x1^4+x1^3", 2, True),
        ("-1,1;201;uniform;x1^3+x1^2", 1, False),
        ("-1,1;41;chebyshev;x1^3+x1^2", 1, True),
    ])
    def test_one_dimensional_fit_solves_no_moment_lp(self, grid, degree, exact, monkeypatch):
        # on a line reduction and alternation count sign blocks, also at degree 1, where alternation is
        # the direct hull check, and the certificate is read from the fit's own LP duals: no moment LP
        calls = _lps(monkeypatch)
        code, report = run(RunConfig(command="fit", grid=grid, degree=degree, exact=exact))
        assert code == 0 and "alpha" in report["certificate"]
        assert report["reduction"]["verdict"] == "pass"
        assert len(report["reduction"]["traces"]) >= (2 if degree > 1 else 1)
        assert report["alternation"]["verdict"] == "pass"
        if degree == 1:
            assert report["alternation"]["warning"] == "degree 1: direct hull check"
        else:
            assert report["alternation"]["planes_checked"] > 0
        assert not calls

    @pytest.mark.parametrize("grid, degree", [
        ("-1,1;11;uniform;x1^5", 2),
        ("-1,1;31;uniform;x1^4", 3),
        ("-1,1;11;uniform;x1^3", 1),
    ])
    def test_fit_weights_outside_the_extreme_sets_fall_back_to_the_margin_lp(self, grid, degree, monkeypatch):
        # a float --rel-tol 0 keeps only the points exactly at psi, so the fit's weights sit partly outside
        # E+ and E-; the margin LP then decides, and finds the witness it finds without the fit's weights
        # (on a line, reduction and alternation run no hull LP)
        calls, moment_lps = _lps(monkeypatch, "_margin_lp"), _lps(monkeypatch)
        code, report = run(RunConfig(command="fit", grid=grid, degree=degree, rel_tol=0.0))
        assert code == 2 and report["extremes"]["plus"] and report["extremes"]["minus"] and len(calls) == 1
        assert not moment_lps
        samples = parse_grid_spec(grid)
        extremes = partition_extremes(fit_minimax(samples, degree).residuals, 0.0)
        witness = check_hull_intersection(extremes, samples, degree)
        assert report["witness"] == cli._outcome_to_json(witness)["witness"]

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("grid, degree", [
        ("-1,1:-1,1;9;uniform;x1^2*x2+x2^3", 2),
        ("-1,1:-1,1;7;chebyshev;x1^3*x2+abs(x2)", 2),
        ("-1,1;41;chebyshev;x1^4+x1^3", 3),
    ])
    def test_verify_without_coeffs_solves_no_moment_lp(self, grid, degree, exact, monkeypatch):
        # verify runs no reduction or alternation, so in any dimension its one hull test is the certificate's
        calls = _lps(monkeypatch)
        code, report = run(RunConfig(command="verify", grid=grid, degree=degree, exact=exact))
        assert code == 0 and not report["extremes"]["degenerate"] and "alpha" in report["certificate"]
        assert not report["isolability"]["isolable"]
        assert not calls

    @pytest.mark.parametrize("grid, coeffs, exact, outcome", [
        ("-1,1:-1,1;5;uniform;x1^2*x2+x2^3+x1^3", "lsq-2d-m2.json", True, "witness"),
        ("-1,1:-1,1;5;uniform;x1^2*x2+x2^3+x1^3", "lsq-2d-m2.json", False, "witness"),
        ("-1,1;21;uniform;x1^3", {"degree": 2, "coefficients": [0, 0.75, 0]}, False, "certificate"),
        ("-1,1;21;uniform;x1^3", {"degree": 2, "coefficients": [0, 0.75, 0]}, True, "certificate"),
    ], ids=["golden-exact-witness", "float-witness", "float-certificate", "exact-certificate"])
    def test_verify_coeffs_makes_one_hull_lp(self, tmp_path, monkeypatch, grid, coeffs, exact, outcome):
        # both extreme sets hold points: isolability's margin LP also gives the certificate or the witness
        if isinstance(coeffs, dict):
            (tmp_path / "c.json").write_text(json.dumps(coeffs))
        path = str(tmp_path / "c.json") if isinstance(coeffs, dict) else os.path.join(DATA, "golden", coeffs)
        margin_lps, moment_lps = _lps(monkeypatch, "_margin_lp"), _lps(monkeypatch)
        code, report = run(RunConfig(command="verify", grid=grid, coeffs=path, exact=exact))
        assert report["extremes"]["plus"] and report["extremes"]["minus"] and outcome in report
        assert code == (0 if outcome == "certificate" else 2) and report["isolability"]["isolable"] == (code == 2)
        assert len(margin_lps) == 1 and not moment_lps

    @pytest.mark.parametrize("nodes", ["uniform", "chebyshev"])
    def test_warm_float_fit_on_a_symmetric_grid_is_optimal(self, nodes):
        # the minimax coefficients are not unique here: the warm-started float
        # fit may return another optimum than the exact one, of the same psi
        grid = f"-1,1:-1,1;5;{nodes};x1^2*x2+x2^3"
        reports = [run(RunConfig(command="fit", grid=grid, degree=2, exact=exact)) for exact in (False, True)]
        for code, report in reports:
            assert code == 0
            assert report["reduction"]["verdict"] == "pass"
            assert report["alternation"]["verdict"] == "pass"
        (_, fit), (_, exact_fit) = reports
        assert fit["psi"] == pytest.approx(float(Fraction(exact_fit["psi"])), rel=1e-12)

    @pytest.mark.parametrize("shift", [0.0, 0.05])
    def test_verify_lifts_only_the_extreme_points(self, tmp_path, monkeypatch, shift):
        # shift 0: the fit's own model (certificate); 0.05: a non-optimal one (witness).
        # The residual pass lifts every row of the model's degree once; the verifiers are
        # handed only the extreme rows of that array, each equal to reference_lift bit for bit, and
        # no point is lifted or evaluated alone.
        grid = "-1,1:-1,1;9;uniform;x1^3*x2+x2^4"
        _, fit = run(RunConfig(command="fit", grid=grid, degree=3))
        model = dict(fit["model"], coefficients=[fit["model"]["coefficients"][0] + shift]
                     + fit["model"]["coefficients"][1:])
        coeffs = tmp_path / "c.json"
        coeffs.write_text(json.dumps(model))
        lifted, handed, matrices, evaluated = [], [], [], []
        real_lift, real_matrix, real_rows = monomials.lift, fitting.lift_matrix, fitting.SampleSet.lifted

        def rows(samples, indices, degree, exact):
            out = real_rows(samples, indices, degree, exact)
            handed.append([((i, degree, exact), row) for i, row in zip(list(indices), out.tolist())])
            return out

        for module in (monomials, optimality):
            monkeypatch.setattr(module, "lift", lambda p, basis: lifted.append(p) or real_lift(p, basis))
        monkeypatch.setattr(fitting, "lift_matrix",
                            lambda pts, basis: matrices.append((basis.degree, len(pts))) or real_matrix(pts, basis))
        monkeypatch.setattr(fitting.SampleSet, "lifted", rows)
        for module in (monomials, fitting, optimality, minimaxfit.cli):
            real_eval = getattr(module, "evaluate")
            monkeypatch.setattr(module, "evaluate",
                                lambda m, p, real_eval=real_eval: evaluated.append(p) or real_eval(m, p))
        code, report = run(RunConfig(command="verify", grid=grid, coeffs=str(coeffs)))
        assert code == (0 if shift == 0 else 2)
        pts = parse_grid_spec(grid).view(False)[0].tolist()
        assert (lifted, evaluated, matrices) == ([], [], [(3, len(pts))])
        extremes = set(report["extremes"]["plus"]) | set(report["extremes"]["minus"])
        assert [i for (i, _, _), _ in handed[0]] == list(range(len(pts)))  # the residual pass
        assert sorted({i for call in handed[1:] for (i, _, _), _ in call}) == sorted(extremes)
        assert len(extremes) < len(pts) / 4
        basis = build_basis(2, 3)
        for (i, degree, exact), row in (entry for call in handed for entry in call):
            assert (degree, exact) == (3, False)
            expected = [1.0] + reference_lift(pts[i], basis.exponents)[1:]
            assert [v.hex() for v in row] == [v.hex() for v in expected]


class TestKnownLpFailures:
    """LP crashes the kernel recovers from now: a drifted float tableau refactors, a failed guess starts rowless."""

    def test_abs_chebyshev_grid_planes(self):
        # nine moment LPs of its plane splits (11 rows) once ended "optimal point violates row 0"
        code, report = run(RunConfig(command="fit", grid="-1,1:-1,1;21;chebyshev;abs(x1)+x2^3",
                                     degree=4))
        assert code == 0
        assert (report["reduction"]["verdict"], report["alternation"]["verdict"]) == ("pass", "pass")

    def test_exact_trivariate_uniform_grid_fit(self):
        # the float guess of its first minimax LP (88 rows) fails in phase 1; the rowless dual start
        # proposes the basis instead of a rational simplex from scratch that ran for minutes
        code, report = run(RunConfig(command="fit", grid="-1,1:-1,1:-1,1;9;uniform;x1*x2*x3+x1^3",
                                     degree=3, exact=True))
        assert code == 0
        assert report["extremes"]["degenerate"] is True and Fraction(report["psi"]) == 0

    def test_trivariate_uniform_grid_fit(self):
        # its first minimax LP once failed with "phase-1 simplex did not terminate"; the target is cubic
        code, report = run(RunConfig(command="fit", grid="-1,1:-1,1:-1,1;9;uniform;x1*x2*x3+x1^3",
                                     degree=3))
        assert code == 0
        assert report["extremes"]["degenerate"] and report["psi"] <= 1e-12

    def test_trivariate_uniform_grid_verify_is_not_isolable(self):
        # its isolability once ran a margin LP of one row per extreme point (405) into the 50,000-pivot
        # cap and exited 1; the margin LP over the 20 lifted moment columns has 21 rows
        code, report = run(RunConfig(command="verify", grid="-1,1:-1,1:-1,1;9;uniform;x1*x2*x3+x1^4",
                                     degree=3))
        assert code == 0 and "alpha" in report["certificate"]
        assert report["isolability"]["isolable"] is False and 0 <= report["isolability"]["margin"] <= 1e-9

    def test_chebyshev_grid_fit_needs_no_phase_1(self, tmp_path):
        # a 2,001-point Chebyshev fit at m=5 whose first round once exited 1 in phase 1
        out = tmp_path / "report.json"
        grid = "-1,1;2001;chebyshev;2 + 5*x1^2 + 3*x1^3 + -4*x1^4 + -5*x1^5 + -2*x1^6"
        assert main(["fit", "--grid", grid, "--degree", "5", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert (report["reduction"]["verdict"], report["alternation"]["verdict"]) == ("pass", "pass")


class TestMainEntry:
    def test_exit_codes_and_report_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "fit", "--input", os.path.join(DATA, "parabola.csv"),
            "--degree", "1", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["degree"] == 1

        code = main([
            "report", "--report", str(out),
            "--input", os.path.join(DATA, "parabola.csv"),
        ])
        assert code == 0
        revalidation = json.loads(capsys.readouterr().out)
        assert revalidation["valid"]
        assert revalidation["checks"]["certificate_moments"]

    def test_parser_is_built_once_and_parses_afresh(self, tmp_path):
        # one cached parser serves every call; no command's flags leak into the next
        fresh = cli._build_parser.__wrapped__
        csv_path = os.path.join(DATA, "parabola.csv")
        coeffs = tmp_path / "c.json"
        coeffs.write_text(json.dumps({"degree": 1, "coefficients": [0.5, 0]}))
        calls = [
            ["verify", "--input", csv_path, "--coeffs", str(coeffs), "--exact", "--rel-tol", "0.1"],
            ["fit", "--input", csv_path, "--degree", "2"],
            ["reduce", "--grid=-1,1;5;uniform;x1^2", "--degree", "1", "--rel-tol", "0.2"],
            ["report", "--report", "r.json", "--input", csv_path],
            ["fit", "--input", csv_path, "--degree", "1", "--out", "o.json"],
        ]
        for argv in calls:
            assert vars(cli._build_parser().parse_args(argv)) == vars(fresh().parse_args(argv))
        assert cli._build_parser() is cli._build_parser()
        out = tmp_path / "fit.json"
        assert main(calls[0] + ["--out", str(out)]) == 0
        assert json.loads(out.read_text())["arithmetic"] == "exact"
        assert main(calls[1][:-2] + ["--degree", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert (report["arithmetic"], report["degree"], "isolability" in report) == ("float", 1, False)

    @pytest.mark.parametrize("args, message", [
        (["fit", "--grid", "-1,1;5;uniform;x1^2", "--degree", "-1"], "degree must be non-negative"),
        (["fit", "--grid", "-1,1;5;uniform;x1^2", "--degree", "1", "--rel-tol", "0.5"], "rel-tol must lie in"),
        (["fit", "--grid", "-1,1;5;uniform;x1^2"], "--degree is required when fitting"),
        (["fit", "--degree", "1"], "an input is required"),
        (["fit", "--input", "DATA", "--grid", "-1,1;5;uniform;x1^2", "--degree", "1"], "either --input or --grid"),
        (["reduce", "--input", "DATA", "--degree", "0"], "reduce needs degree >= 1"),
        (["alternate", "--input", "DATA", "--degree", "0"], "alternate needs degree >= 1"),
        (["report", "--input", "DATA"], "needs --report"),
        (["verify", "--input", "DATA", "--coeffs", "COEFFS", "--degree", "2"], "--degree 2 conflicts with"),
        (["report", "--report", "OTHER_INSTANCE", "--input", "DATA"], "does not match the report instance"),
        (["report", "--report", "LIST_MODEL", "--input", "DATA"], "model: expected a JSON object, got list"),
        (["fit", "--input", "DATA", "--degree", "abc"], "argument --degree: invalid int value: 'abc'"),
        (["fit", "--input", "DATA", "--degree", "1", "--bogus"], "unrecognized arguments: --bogus"),
        (["frobnicate", "--input", "DATA"], "argument command: invalid choice: 'frobnicate'"),
        ([], "the following arguments are required: command"),
        (["reduce", "--input", "DATA", "--degree", "2", "--strategy", "both"], "unrecognized arguments: --strategy"),
        (["fit", "--degree", "1", "--grid"], "argument --grid: expected one argument"),
        (["fit", "--input", "EMPTY_CSV", "--degree", "1"], "empty.csv: empty file"),
        (["fit", "--input", "X2_CSV", "--degree", "1"], "coordinate columns must be named ['x1']"),
        (["fit", "--grid", "-1,1:-1,1;5:7:9;uniform;x1", "--degree", "1"], "3 resolutions for 2 axes"),
        (["fit", "--grid", "-1,1;5;uniform", "--degree", "1"], "grid spec needs four ';'-separated fields"),
        (["fit", "--grid", "-1;5;uniform;x1", "--degree", "1"], "axis bounds must look like 'lo,hi', got '-1'"),
        (["fit", "--grid", "-1,1;5;uniform;y1", "--degree", "1"], "unknown name 'y1'"),
        (["fit", "--grid", "0,1;5;uniform;x1^0.5", "--degree", "1", "--exact"],
         "x1^0.5 at (0): non-integer exponents are not supported in exact mode"),
        (["fit", "--grid", "-1,1;5;uniform;1/x1", "--degree", "1"], "1/x1 at (0.0): division by zero"),
        (["fit", "--grid", "-1,1;5;uniform;x1^-1", "--degree", "1", "--exact"], "x1^-1 at (0): division by zero"),
        (["fit", "--grid", "-1,1;5;uniform;x1^0.5", "--degree", "1"], "x1^0.5 at (-1.0): -1.0^0.5 is not a real"),
        (["fit", "--grid", "-1,1;5;uniform;10^400", "--degree", "1"], "10^400 at (-1.0): 10.0^400 is out of float"),
    ], ids=["negative-degree", "rel-tol-too-large", "fit-without-degree", "no-input", "input-and-grid",
            "reduce-degree-0", "alternate-degree-0", "report-without-report", "degree-conflicts-with-coeffs",
            "report-of-other-instance", "report-model-is-a-list", "degree-not-an-int", "unknown-flag",
            "unknown-command", "no-command", "unknown-strategy", "grid-without-a-spec", "empty-csv",
            "header-without-x1", "more-resolutions-than-axes", "grid-spec-of-three-fields",
            "axis-bounds-of-one-number", "unknown-name", "fractional-power-in-exact-mode", "grid-division-by-zero",
            "exact-grid-division-by-zero", "grid-complex-power", "grid-overflow"])
    def test_usage_errors_exit_one_with_one_error_line(self, tmp_path, capsys, args, message):
        data, coeffs, fitted = os.path.join(DATA, "parabola.csv"), tmp_path / "c.json", tmp_path / "fit.json"
        coeffs.write_text(json.dumps({"degree": 1, "coefficients": [0.5, 0]}))
        assert main(["fit", "--input", data, "--degree", "1", "--out", str(fitted)]) == 0
        files = {"DATA": data, "COEFFS": str(coeffs)}
        for name, text in [("EMPTY_CSV", ""), ("X2_CSV", "x2,f\n1,2\n")]:
            files[name] = str(tmp_path / f"{name.lower().partition('_')[0]}.csv")
            with open(files[name], "w") as handle:
                handle.write(text)
        for name, edit in [("OTHER_INSTANCE", lambda r: r["instance"].update(points=4)),
                           ("LIST_MODEL", lambda r: r.update(model=[0.5, 0]))]:
            report = json.loads(fitted.read_text())
            edit(report)
            files[name] = str(tmp_path / f"{name}.json")
            with open(files[name], "w") as handle:
                json.dump(report, handle)
        capsys.readouterr()
        assert main([files.get(a, a) for a in args]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and message in err, err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["fit", "--help"])
        assert stop.value.code == 0 and "--degree" in capsys.readouterr().out

    @pytest.mark.filterwarnings("default::UserWarning")  # shown, as outside the test suite's "error" filter
    @pytest.mark.parametrize("exact", [False, True])
    def test_a_warning_prints_as_one_line(self, capsys, exact):
        argv = ["fit", "--grid", "-1,1;3;uniform;x1^2", "--degree", "3"] + ["--exact"] * exact
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["psi"] in (0, "0")
        assert err == "warning: basis size 4 exceeds sample count 3; fit is underdetermined\n"

    @pytest.mark.filterwarnings("error::UserWarning")  # as `python -W error` makes it
    @pytest.mark.parametrize("exact", [False, True])
    def test_a_warning_raised_as_an_error_is_one_error_line(self, capsys, exact):
        argv = ["fit", "--grid", "-1,1;3;uniform;x1^2", "--degree", "3"] + ["--exact"] * exact
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: basis size 4 exceeds sample count 3; fit is underdetermined\n")

    def test_missing_input_is_an_error(self, capsys):
        assert main(["fit", "--input", "/nonexistent.csv", "--degree", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--input", "NAN_CSV"],
        ["--grid", "-1,1;5;uniform;1e400*x1"],
        ["--grid", "-1,1;5;uniform;10^400"],
        ["--grid", "-1,1;5;uniform;x1^0.5"],  # complex at x1 < 0
    ])
    def test_non_finite_input_is_an_error(self, tmp_path, capsys, args):
        nan_csv = tmp_path / "nan.csv"
        nan_csv.write_text("x1,f\n0,1\n0.5,nan\n1,2\n")
        args = [str(nan_csv) if a == "NAN_CSV" else a for a in args]
        assert main(["fit", *args, "--degree", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "Traceback" not in err
        if args[0] == "--input":
            assert "nan.csv:3" in err

    @pytest.mark.parametrize("command, text, field", [
        ("report", "[1, 2]", "expected a JSON object, got list"),
        ("verify", '{"degree": 1.5, "coefficients": [0, 1]}', "'degree' must be an integer >= 0"),
        ("verify", '{"degree": 1}', "'coefficients' must be a list"),
    ])
    def test_malformed_json_is_an_error(self, tmp_path, capsys, command, text, field):
        # a file read from outside: exit 1 with one error line that names the file and the field
        path = tmp_path / "in.json"
        path.write_text(text)
        flag = "--report" if command == "report" else "--coeffs"
        assert main([command, flag, str(path), "--input", os.path.join(DATA, "parabola.csv")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {path}: ") and field in err and err.count("\n") == 1

    @pytest.mark.parametrize("edit, field", [
        (lambda r: r["certificate"].update(plus=[0, 99]), "certificate: 'plus' must be a list of sample indices"),
        (lambda r: r.pop("instance"), "'instance' must be an object with integer 'points' and 'dimension'"),
        (lambda r: r["certificate"].update(alpha=["x", "1/2"]), "certificate: 'alpha' must be a list of numbers"),
        (lambda r: r["certificate"].update(beta=[0.5, 0.5]), "certificate: 'beta' must be a list of numbers"),
        (lambda r: r.update(psi="x"), "'psi' must be a number or a rational string"),
        (lambda r: r.pop("psi"), "'psi' must be a number or a rational string"),
        (lambda r: r.pop("model"), "model: missing or null"),
        (lambda r: r.update(model=None), "model: missing or null"),
    ], ids=["index-out-of-range", "no-instance", "weight-not-a-number", "weights-too-many", "psi-not-a-number",
            "no-psi", "no-model", "null-model"])
    def test_malformed_report_fields_are_errors(self, tmp_path, capsys, edit, field):
        # a hand-edited fit report: exit 1 with one error line that names the file and the field
        data, path = os.path.join(DATA, "parabola.csv"), tmp_path / "fit.json"
        assert main(["fit", "--input", data, "--degree", "1", "--out", str(path)]) == 0
        report = json.loads(path.read_text())
        edit(report)
        path.write_text(json.dumps(report))
        assert main(["report", "--report", str(path), "--input", data]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {path}: ") and field in err and err.count("\n") == 1

    def test_witness_report_with_negative_extreme_is_an_error(self, tmp_path, capsys):
        data, coeffs, path = os.path.join(DATA, "parabola.csv"), tmp_path / "c.json", tmp_path / "w.json"
        coeffs.write_text(json.dumps({"degree": 1, "coefficients": [0.3, 0.2]}))
        assert main(["verify", "--input", data, "--coeffs", str(coeffs), "--out", str(path)]) == 2
        report = json.loads(path.read_text())
        report["extremes"]["minus"] = [-1]
        path.write_text(json.dumps(report))
        assert main(["report", "--report", str(path), "--input", data]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: extremes: 'minus' must be a list of sample indices in [0, 3)")

    @pytest.mark.parametrize("exact", [False, True])
    def test_report_with_a_negative_certificate_weight_is_invalid(self, tmp_path, capsys, exact):
        # alpha = (-1, 2) on x = 0, 1 matches the moments (1, 2) of x = 2 and sums to 1,
        # but [0, 1] and {2} do not meet: a certificate needs convex weights.  The zero model
        # has psi 1 and exactly those extreme points, so only the weights fail
        data, path = tmp_path / "d.csv", tmp_path / "r.json"
        data.write_text("x1,f\n0,1\n1,1\n2,-1\n")
        weights = (["-1", "2"], ["1"]) if exact else ([-1.0, 2.0], [1.0])
        path.write_text(json.dumps({
            "instance": {"source": str(data), "dimension": 1, "points": 3},
            "arithmetic": "exact" if exact else "float", "degree": 1,
            "model": {"degree": 1, "coefficients": [0, 0]}, "psi": "1" if exact else 1.0,
            "extremes": {"plus": [0, 1], "minus": [2], "degenerate": False},
            "certificate": {"degree": 1, "plus": [0, 1], "minus": [2], "alpha": weights[0], "beta": weights[1]},
        }))
        assert main(["report", "--report", str(path), "--input", str(data)]) == 2
        revalidation = json.loads(capsys.readouterr().out)
        assert revalidation["checks"] == {"psi": True, "extremes": True, "degree": True, "certificate_moments": True,
                                          "certificate_sums": False, "certificate_support": True}
        assert revalidation["valid"] is False

    def test_unwritable_out_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "r.json"
        assert main(["fit", "--grid", "-1,1;5;uniform;x1^2", "--degree", "1", "--out", str(out)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and "r.json" in err

    def test_exact_fit_with_psi_beyond_float_range(self, tmp_path):
        # psi near 10**400 / 2: the degenerate-psi test compares the Fraction with 0, not through float()
        path, out = tmp_path / "huge.csv", tmp_path / "r.json"
        path.write_text(f"x1,f\n0,1\n1,{10**400}\n2,3\n3,5\n")
        assert main(["fit", "--input", str(path), "--degree", "1", "--exact", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert isinstance(report["psi"], str) and Fraction(report["psi"]) > 10**399
        assert report["extremes"]["degenerate"] is False
        assert report["reduction"]["verdict"] == report["alternation"]["verdict"] == "pass"

    def test_report_never_holds_nan(self, monkeypatch, capsys):
        # NaN is not JSON: a report that would hold one is an error, not a file
        monkeypatch.setattr(minimaxfit.cli, "run", lambda config: (0, {"psi": math.nan}))
        assert main(["fit", "--input", os.path.join(DATA, "parabola.csv"), "--degree", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_perturbed_verify_exits_two(self, tmp_path):
        coeffs = tmp_path / "c.json"
        coeffs.write_text(json.dumps({"degree": 1, "coefficients": [0.4, 0.1]}))
        code = main([
            "verify", "--input", os.path.join(DATA, "parabola.csv"),
            "--coeffs", str(coeffs), "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["fit", "--grid", "-1,1;2001;uniform;x1^3", "--degree", "2"],
        ["verify", "--input", os.path.join(DATA, "parabola.csv"), "--degree", "1", "--coeffs", "COEFFS"],
        ["reduce", "--input", os.path.join(DATA, "parabola.csv"), "--degree", "1", "--exact"],
    ])
    def test_every_run_report_times_its_load(self, tmp_path, argv):
        coeffs, out = tmp_path / "c.json", tmp_path / "r.json"
        coeffs.write_text(json.dumps({"degree": 1, "coefficients": [0.5, 0]}))
        main([str(coeffs) if a == "COEFFS" else a for a in argv] + ["--out", str(out)])
        timings = json.loads(out.read_text())["timings"]
        assert isinstance(timings["load_s"], float) and timings["load_s"] > 0
        assert list(timings)[0] == "load_s"

    def test_exit_codes_are_stable_across_runs(self, tmp_path):
        args = [
            "fit", "--grid=-1,1;41;uniform;x1^2", "--degree", "1",
            "--out", str(tmp_path / "a.json"),
        ]
        assert main(args) == main(args) == 0

    def test_grid_value_may_start_with_minus(self, tmp_path):
        spec = "-1,1;11;uniform;x1^3"
        reports = []
        for grid_args in (["--grid", spec], [f"--grid={spec}"]):
            out = tmp_path / "r.json"
            assert main(["fit", *grid_args, "--degree", "2", "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
            del reports[-1]["timings"]
        assert reports[0] == reports[1]
        assert reports[0]["instance"]["source"] == f"grid:{spec}"

    def test_python_dash_m_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(minimaxfit.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-m", "minimaxfit", "fit",
             "--input", os.path.join(DATA, "parabola.csv"), "--degree", "1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["degree"] == 1

    _ENTRY_RUNS = pytest.mark.parametrize("args, code", [
        (["fit", "--grid", "-1,1;5;uniform;x1^2", "--degree", "1"], 0),  # "-1,1" takes the argv rewrite
        (["fit", "--grid", "-1,1;5;uniform;x1^2"], 1),
    ], ids=["grid-fit", "usage-error"])

    @_ENTRY_RUNS
    def test_python_dash_m_prints_one_report_or_one_error(self, args, code):
        src = os.path.dirname(os.path.dirname(minimaxfit.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run([sys.executable, "-m", "minimaxfit", *args],
                                capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == code, result.stderr
        if code:
            assert result.stdout == "" and result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        else:
            assert result.stderr == "" and result.stdout.count("\n") == 1
            report = json.loads(result.stdout)
            assert report["degree"] == 1 and report["instance"]["source"] == "grid:-1,1;5;uniform;x1^2"

    @_ENTRY_RUNS
    def test_console_main_exits_with_the_code_of_main(self, monkeypatch, capsys, args, code):
        monkeypatch.setattr(sys, "argv", ["minimaxfit", *args])
        with pytest.raises(SystemExit) as stop:
            cli.console_main()
        assert stop.value.code == code
        out, err = capsys.readouterr()
        assert (out == "") == bool(code) and (err == "") == (not code)

    def test_witness_report_revalidates(self, tmp_path, capsys):
        coeffs = tmp_path / "c.json"
        coeffs.write_text(json.dumps({"degree": 1, "coefficients": [0.3, 0.2]}))
        out = tmp_path / "w.json"
        code = main([
            "verify", "--input", os.path.join(DATA, "parabola.csv"),
            "--coeffs", str(coeffs), "--out", str(out),
        ])
        assert code == 2
        code = main([
            "report", "--report", str(out),
            "--input", os.path.join(DATA, "parabola.csv"),
        ])
        assert code == 0
        revalidation = json.loads(capsys.readouterr().out)
        assert revalidation["checks"]["witness_separates"]

    @pytest.mark.parametrize("argv, coefficients, outcome", [
        (["fit", "--grid", "-1,1:-1,1;9;uniform;x1^2*x2+x2^3", "--degree", "2"], [0] * 6, "certificate"),
        (["verify", "--grid", "-1,1:-1,1;5;uniform;x1^2*x2+x2^3+x1^3", "--coeffs",
          os.path.join(DATA, "golden", "lsq-2d-m2.json"), "--exact"], ["0"] * 5 + ["1"], "witness"),
    ], ids=["certificate", "witness"])
    def test_report_replays_against_the_models_own_extreme_points(self, tmp_path, capsys, argv, coefficients,
                                                                  outcome):
        # another model (0, or x2^2) and psi set to its true error: the weights still match their moments
        # and the witness still separates the report's extremes lists, but neither belongs to that model,
        # whose extreme points `report` recomputes
        path, exact = tmp_path / "r.json", "--exact" in argv
        main(argv + ["--out", str(path)])
        report = json.loads(path.read_text())
        assert outcome in report and report["extremes"]["plus"] and report["extremes"]["minus"]
        model = cli._model_from_json({"degree": 2, "coefficients": coefficients}, 2, exact)
        report["model"]["coefficients"] = coefficients
        report["psi"] = cli._jnum(compute_psi(model, parse_grid_spec(argv[2], exact)))
        path.write_text(json.dumps(report))
        assert main(["report", "--report", str(path), "--grid", argv[2]]) == 2
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks["psi"] and not checks["extremes"]
        if outcome == "certificate":
            assert report["psi"] == 2.0
            assert checks["certificate_moments"] and checks["certificate_sums"] and not checks["certificate_support"]
        else:
            assert checks["witness_separates"]

    def test_report_recomputes_the_extremes_with_the_runs_rel_tol(self, tmp_path, capsys):
        grid, path = "-1,1;21;uniform;x1^4", tmp_path / "r.json"
        assert main(["fit", "--grid", grid, "--degree", "2", "--rel-tol", "0.2", "--out", str(path)]) == 0
        assert main(["report", "--report", str(path), "--grid", grid, "--rel-tol", "0.2"]) == 0
        assert json.loads(capsys.readouterr().out)["checks"]["extremes"]
        assert main(["report", "--report", str(path), "--grid", grid]) == 2  # the default band is narrower
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert not checks.pop("extremes") and all(checks.values())  # the weighted points are at psi all the same

    @pytest.mark.parametrize("exact", [False, True])
    def test_report_replays_its_certificate_at_the_models_degree(self, tmp_path, capsys, exact):
        # the optimal fit's report with "degree" lowered to 1 fails that check alone; the zero model
        # (psi 1 at x = 1 and x = -1) with "degree" 0 and weight 1 on those two points matches the
        # degree-0 moment, but not the degree-2 moments of the model it certifies
        grid, path = "-1,1;21;uniform;x1^3", tmp_path / "r.json"
        args = ["--exact"] if exact else []
        assert main(["fit", "--grid", grid, "--degree", "2", "--out", str(path)] + args) == 0
        report = json.loads(path.read_text())
        report["degree"] = 1
        path.write_text(json.dumps(report))
        assert main(["report", "--report", str(path), "--grid", grid]) == 2
        revalidation = json.loads(capsys.readouterr().out)
        assert revalidation["valid"] is False
        assert [name for name, passed in revalidation["checks"].items() if not passed] == ["degree"]

        one = "1" if exact else 1.0
        report.update(degree=0, psi=one, extremes={"plus": [20], "minus": [0], "degenerate": False},
                      certificate={"degree": 0, "plus": [20], "minus": [0], "alpha": [one], "beta": [one]})
        report["model"]["coefficients"] = [0, 0, 0]
        path.write_text(json.dumps(report))
        assert main(["report", "--report", str(path), "--grid", grid]) == 2
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks["psi"] and checks["extremes"] and checks["certificate_sums"] and checks["certificate_support"]
        assert not checks["degree"] and not checks["certificate_moments"]

    @pytest.mark.parametrize("exact", [False, True])
    def test_report_rejects_a_witness_above_the_models_degree(self, tmp_path, capsys, exact):
        # x^3 - p, the residual of the optimal degree-2 fit, is positive on E+ and negative on E-,
        # but separating the extreme sets at degree 3 says nothing about optimality at degree 2
        grid, path = "-1,1;21;uniform;x1^3", tmp_path / "r.json"
        args = ["--exact"] if exact else []
        assert main(["fit", "--grid", grid, "--degree", "2", "--out", str(path)] + args) == 0
        report = json.loads(path.read_text())
        residual = [str(-Fraction(c)) if exact else -c for c in report["model"]["coefficients"]] + [1.0]
        del report["certificate"]
        report["witness"] = {"degree": 3, "coefficients": residual}
        path.write_text(json.dumps(report))
        assert main(["report", "--report", str(path), "--grid", grid]) == 2
        revalidation = json.loads(capsys.readouterr().out)
        assert revalidation["checks"]["witness_separates"] and not revalidation["checks"]["witness_degree"]
        assert revalidation["valid"] is False
        report["witness"] = {"degree": 1, "coefficients": [0.0, 1.0]}  # x: lower degrees may witness
        path.write_text(json.dumps(report))
        main(["report", "--report", str(path), "--grid", grid])
        assert json.loads(capsys.readouterr().out)["checks"]["witness_degree"]

    def test_report_leaves_the_config_arithmetic_alone(self, tmp_path):
        grid = "-1,1;21;uniform;x1^3"
        out = tmp_path / "exact.json"
        assert main(["fit", "--grid", grid, "--degree", "2", "--exact", "--out", str(out)]) == 0
        config = RunConfig(command="report", grid=grid, report_path=str(out))
        code, revalidation = run(config)
        assert code == 0 and revalidation["valid"]
        assert config.exact is False
        # the same config, reused for a fit, still runs in float
        config.command, config.degree = "fit", 2
        code, report = run(config)
        assert code == 0
        assert report["arithmetic"] == "float"
        assert isinstance(report["psi"], float)


def _traced_bindings() -> list[tuple[str, str]]:
    """The (module, attribute) bindings the benchmark's tracer wraps."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _ in tracing.SPANS + tracing.COUNTERS]


def test_traced_names_resolve():
    """Every binding the benchmark's tracer wraps exists, and so does the entry it runs."""
    for module, attr in _traced_bindings():
        assert callable(getattr(importlib.import_module(f"minimaxfit.{module}"), attr, None)), (module, attr)
    assert callable(minimaxfit.cli.run)


def test_every_import_is_used():
    """Each name a package module imports is used there, listed in its `__all__`, or wrapped by the tracer."""
    traced = set(_traced_bindings())
    package = os.path.dirname(minimaxfit.__file__)
    unused = []
    for filename in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        module = filename[:-3]
        with open(os.path.join(package, filename)) as handle:
            tree = ast.parse(handle.read())
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                imported.update((alias.asname or alias.name.partition(".")[0], node.lineno) for alias in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        unused += [f"{filename}:{line} {name}" for name, line in imported.items()
                   if name not in used and (module, name) not in traced]
    assert not unused, unused


def test_cli_import_needs_only_numpy():
    """A fresh interpreter imports the CLI without scipy or hypothesis: both are test-only dependencies."""
    src = os.path.dirname(os.path.dirname(minimaxfit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, minimaxfit.cli; "
            "print(sorted({m.partition('.')[0] for m in sys.modules} & {'scipy', 'hypothesis'}))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"

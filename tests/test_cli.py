"""CSV ingestion, grid generation, the expression parser, and CLI runs."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import minimaxfit
from minimaxfit import LpFailure, fitting
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

    @pytest.mark.parametrize("shift", [0.0, 0.05])
    def test_verify_lifts_only_the_extreme_points(self, tmp_path, monkeypatch, shift):
        # shift 0: the fit's own model (certificate); 0.05: a non-optimal one (witness)
        grid = "-1,1:-1,1;9;uniform;x1^3*x2+x2^4"
        _, fit = run(RunConfig(command="fit", grid=grid, degree=3))
        model = dict(fit["model"], coefficients=[fit["model"]["coefficients"][0] + shift]
                     + fit["model"]["coefficients"][1:])
        coeffs = tmp_path / "c.json"
        coeffs.write_text(json.dumps(model))
        lifted = []
        real = fitting.lift
        monkeypatch.setattr(fitting, "lift", lambda p, basis: lifted.append(p) or real(p, basis))
        code, report = run(RunConfig(command="verify", grid=grid, coeffs=str(coeffs)))
        assert code == (0 if shift == 0 else 2)
        pts = parse_grid_spec(grid).view(False)[0]
        extremes = set(report["extremes"]["plus"]) | set(report["extremes"]["minus"])
        assert sorted(lifted) == sorted(pts[i] for i in extremes)
        assert len(lifted) < len(pts) / 4


class TestKnownLpFailures:
    """Float-LP crashes on Baseline grids, kept until the LP kernel recovers from them."""

    @pytest.mark.xfail(raises=LpFailure, strict=True,
                       reason="moment LP of a 70-vs-70 plane split: optimal point violates row 0")
    def test_abs_chebyshev_grid_planes(self):
        code, report = run(RunConfig(command="fit", grid="-1,1:-1,1;21;chebyshev;abs(x1)+x2^3",
                                     degree=4))
        assert code == 0 and report["alternation"]["verdict"] == "pass"

    @pytest.mark.xfail(raises=LpFailure, strict=True,
                       reason="minimax LP: phase-1 simplex did not terminate")
    def test_trivariate_uniform_grid_fit(self):
        code, _ = run(RunConfig(command="fit", grid="-1,1:-1,1:-1,1;9;uniform;x1*x2*x3+x1^3",
                                degree=3))
        assert code == 0


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

    def test_missing_input_is_an_error(self, capsys):
        assert main(["fit", "--input", "/nonexistent.csv", "--degree", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_perturbed_verify_exits_two(self, tmp_path):
        coeffs = tmp_path / "c.json"
        coeffs.write_text(json.dumps({"degree": 1, "coefficients": [0.4, 0.1]}))
        code = main([
            "verify", "--input", os.path.join(DATA, "parabola.csv"),
            "--coeffs", str(coeffs), "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2

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


def test_traced_names_resolve():
    """Every binding the benchmark's tracer wraps exists, and so does the entry it runs."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.SPANS + tracing.COUNTERS:
        assert callable(getattr(importlib.import_module(f"minimaxfit.{module}"), attr, None)), (module, attr)
    assert callable(minimaxfit.cli.run)

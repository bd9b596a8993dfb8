"""Reports of small CLI ops, compared as text with golden files under tests/data/golden/.

Each op runs through `main` and writes its report; the report, with
`timings` dropped, is serialised again and must equal the golden file
character for character, so every number (float bits included), index and
verdict is pinned.  The ops cover fit, verify, reduce and alternate, in
float and exact arithmetic, in 1-D and 2-D, with certificates, witnesses
and a failing split with its counterexample.

    PYTHONPATH=src python tests/test_golden_reports.py

rewrites the golden files from the current sources; do that only for a
change that is meant to change reports, and say why.
"""

import builtins
import json
import os
import sys

import pytest

from minimaxfit.cli import main

from support import bogus_float_supports, compensated_sum

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")

# name -> CLI arguments; a coefficients file is named relative to GOLDEN
OPS = {
    "fit-1d-float": ["fit", "--grid", "-1,1;41;chebyshev;abs(x1)+x1^3", "--degree", "3"],
    "fit-1d-exact": ["fit", "--grid", "-1,1;21;uniform;x1^4-x1", "--degree", "2", "--exact"],
    "fit-2d-float": ["fit", "--grid", "-1,1:-1,1;9;uniform;x1^2*x2+x2^3", "--degree", "2"],
    "fit-2d-exact": ["fit", "--grid", "-1,1:-1,1;7;uniform;x1^2*x2+x2^3", "--degree", "2", "--exact"],
    "verify-1d-exact": ["verify", "--grid", "-1,1;11;uniform;x1^3", "--degree", "2", "--exact"],
    "verify-2d-float-witness": ["verify", "--grid", "-1,1:-1,1;7;uniform;x1^3*x2+x2^4",
                                "--coeffs", "lsq-2d-m3.json"],
    "verify-2d-exact-witness": ["verify", "--grid", "-1,1:-1,1;5;uniform;x1^2*x2+x2^3+x1^3",
                                "--coeffs", "lsq-2d-m2.json", "--exact"],
    "alternate-2d-float": ["alternate", "--grid", "-1,1:-1,1;9;uniform;x1^3*x2+x2^4", "--degree", "3"],
    "alternate-2d-float-fail": ["alternate", "--grid", "-1,1:-1,1;7;uniform;x1^3*x2+x2^4",
                                "--coeffs", "lsq-2d-m3.json"],
    "alternate-2d-exact-fail": ["alternate", "--grid", "-1,1:-1,1;5;uniform;x1^2*x2+x2^3+x1^3",
                                "--coeffs", "lsq-2d-m2.json", "--exact"],
    "reduce-2d-float": ["reduce", "--grid", "-1,1:-1,1;9;uniform;x1^3*x2+x2^4", "--degree", "3"],
    "reduce-1d-exact": ["reduce", "--grid", "-1,1;21;uniform;abs(x1)+x1^3", "--degree", "4", "--exact"],
}


def _report(name, out):
    """(exit code, report text without timings) of the op `name`, its report written to `out`."""
    argv = [os.path.join(GOLDEN, a) if a.endswith(".json") else a for a in OPS[name]]
    code = main(argv + ["--out", str(out)])
    with open(out) as handle:
        report = json.load(handle)
    del report["timings"]
    return code, json.dumps({"exit": code, "report": report}, indent=1) + "\n"


@pytest.mark.parametrize("name", sorted(OPS))
def test_report_matches_golden(name, tmp_path):
    _, text = _report(name, tmp_path / "report.json")
    with open(os.path.join(GOLDEN, f"{name}.report.json")) as handle:
        assert text == handle.read()


def test_exact_alternation_fails_at_the_golden_plane_when_float_supports_are_wrong(tmp_path, monkeypatch):
    # every float hull test claims a meet that is not there: the exact check turns each down, and the
    # rational simplex decides the same failing plane with the same counterexample
    rational = bogus_float_supports(monkeypatch)
    _, text = _report("alternate-2d-exact-fail", tmp_path / "report.json")
    with open(os.path.join(GOLDEN, "alternate-2d-exact-fail.report.json")) as handle:
        assert text == handle.read()
    assert rational


def _golden(name) -> dict:
    with open(os.path.join(GOLDEN, f"{name}.report.json")) as handle:
        return json.load(handle)["report"]


@pytest.mark.parametrize("name", [n for n in sorted(OPS) if {"certificate", "witness"} & set(_golden(n))])
def test_golden_certificate_or_witness_revalidates(name, tmp_path):
    # a rewritten golden file is checked by more than its own text: `report` replays its weights or witness
    report = _golden(name)
    saved, out = tmp_path / "golden.json", tmp_path / "revalidated.json"
    saved.write_text(json.dumps(report))
    grid = OPS[name][OPS[name].index("--grid") + 1]
    assert main(["report", "--report", str(saved), "--grid", grid, "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert ("certificate_sums" in checks) == ("certificate" in report)
    assert ("witness_separates" in checks) == ("witness" in report)
    assert all(checks.values())


def test_compensated_sum_keeps_the_bits_a_plain_sum_loses():
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0  # a plain left-to-right sum gives 0.0
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1, 2], 3) == 6 and compensated_sum([]) == 0


@pytest.mark.parametrize("name", sorted(OPS))
def test_report_does_not_depend_on_how_sum_adds_floats(name, tmp_path, monkeypatch):
    # every float sum that reaches a report is a left-to-right loop (`dot`, `dot_rows`), so a
    # compensated `sum` (Python 3.12 and later) must leave each report as the golden file pins it
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    _, text = _report(name, tmp_path / "report.json")
    with open(os.path.join(GOLDEN, f"{name}.report.json")) as handle:
        assert text == handle.read()


def test_golden_ops_cover_every_command_and_outcome():
    kinds = set()
    for name in OPS:
        with open(os.path.join(GOLDEN, f"{name}.report.json")) as handle:
            golden = json.load(handle)
        report = golden["report"]
        kinds.add((OPS[name][0], report["arithmetic"], report["instance"]["dimension"]))
        kinds.update(k for k in ("certificate", "witness") if k in report)
        if report.get("alternation", {}).get("counterexample"):
            kinds.add("counterexample")
    for command in ("fit", "verify", "reduce", "alternate"):
        assert {(command, "float"), (command, "exact")} <= {k[:2] for k in kinds if isinstance(k, tuple)}
    assert {k[2] for k in kinds if isinstance(k, tuple)} == {1, 2}
    assert {"certificate", "witness", "counterexample"} <= kinds


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(OPS):
            code, text = _report(name, os.path.join(tmp, "report.json"))
            with open(os.path.join(GOLDEN, f"{name}.report.json"), "w") as handle:
                handle.write(text)
            print(f"{name}: exit {code}", file=sys.stderr)

"""Independent checks of every op's JSON report.

The reference is the HiGHS LP solver (Huangfu & Hall 2018) through
``scipy.optimize.linprog(method="highs")``.  This module runs in the
benchmark's parent process only, never in the process that runs the ops, so
scipy is neither timed nor counted in that process's memory.  Certificates
and witnesses are re-checked in numpy for float reports and in ``Fraction``
for exact ones.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from workloads import Instance, graded_lex, lifted

# A float fit is minimax when its psi is within PSI_RTOL (relative) of the
# HiGHS optimum; the polished HiGHS psi is reproducible to about 1e-12 here,
# and the program's float LP works to a 1e-9 row tolerance.  Only a fit that
# exits 0 claims to be minimax.  One that exits 2 reports its own model as not
# optimal; its psi above the optimum is then no false claim, its other claims
# are checked as usual, and run.py counts the op as failed (see fit_gap).
PSI_RTOL = 1e-7
# A model is at the optimum to rounding when its psi is at most PSI_ROUND
# (relative) above the HiGHS optimum.  Between that and PSI_RTOL it is
# suboptimal by a hair: either verdict is right as long as its own evidence
# (certificate, witness or counterexample) passes the re-checks.
PSI_ROUND = 1e-12
PSI_ATOL = 1e-10  # floor for exact-fit (psi ~ 0) instances
CERT_TOL = 1e-7  # float moment residual and weight-sum tolerance


def highs_available() -> bool:
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        return False
    return True


def minimax(inst: Instance) -> tuple[float, np.ndarray]:
    """HiGHS optimum of min z s.t. |f(x_i) - <c, lift(x_i)>| <= z, polished.

    The polish re-solves the equalities of the constraints HiGHS reports as
    active, so that the extreme points reproduce psi to rounding error.
    """
    from scipy.optimize import linprog

    a = lifted(inst.xy, inst.degree)
    f = inst.f
    n, nc = a.shape
    ones = np.ones((n, 1))
    a_ub = np.vstack([np.hstack([a, -ones]), np.hstack([-a, -ones])])
    b_ub = np.concatenate([f, -f])
    cost = np.zeros(nc + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * nc + [(0, None)],
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"HiGHS minimax LP failed on {inst.name}: {res.message}")
    coeffs, psi = res.x[:nc], res.x[nc]
    duals = np.abs(res.ineqlin.marginals)
    active = np.nonzero(duals > 1e-12)[0]
    if len(active):
        sign = np.where(active < n, 1.0, -1.0)  # +: f - Ac = z ; -: Ac - f = z
        rows = active % n
        system = np.hstack([a[rows], sign[:, None]])
        sol, *_ = np.linalg.lstsq(system, f[rows], rcond=None)
        polished = np.max(np.abs(f - a @ sol[:nc]))
        if polished <= psi * (1 + 1e-9) + 1e-12:
            coeffs, psi = sol[:nc], polished
    return float(psi), coeffs


def _monomials_exact(point, exps):
    out = []
    for e in exps:
        v = Fraction(1)
        for x, k in zip(point, e):
            v *= Fraction(x) ** k
        out.append(v)
    return out


def _exact_value(coeffs, point, exps) -> Fraction:
    return sum(c * m for c, m in zip(coeffs, _monomials_exact(point, exps)))


class Checker:
    """Checks reports of one workload's instances; results are cached per report text."""

    def __init__(self, instances: dict[str, Instance], highs: bool):
        self.instances = instances
        self.highs = highs
        self._psi: dict[str, float] = {}
        self._verdicts: dict[str, list[str]] = {}

    def reference_psi(self, inst: Instance) -> float:
        if inst.name not in self._psi:
            self._psi[inst.name] = minimax(inst)[0]
        return self._psi[inst.name]

    def fit_gap(self, op: dict, text: str) -> dict:
        """Psi of a fit's model beside the HiGHS optimum, for the failure record."""
        psi = float(json.loads(text)["psi"])
        ref = self.reference_psi(self.instances[op["instance"]]) if self.highs else None
        return {"psi": psi, "highs_psi": ref,
                "relative_gap": None if ref is None else (psi - ref) / max(ref, PSI_ATOL)}

    def check(self, op: dict, text: str) -> list[str]:
        """Problems found in one report (empty when it is right)."""
        if text not in self._verdicts:
            self._verdicts[text] = self._check(op, json.loads(text))
        return self._verdicts[text]

    # --- per-command checks ---------------------------------------------------

    def _check(self, op: dict, report: dict) -> list[str]:
        inst = self.instances[op["instance"]]
        exact = inst.exact
        problems: list[str] = []
        degree = report["degree"]
        if degree != inst.degree:
            problems.append(f"degree {degree} != {inst.degree}")
            return problems
        exps = graded_lex(inst.dimension, degree)
        coeffs = report["model"]["coefficients"]
        if len(coeffs) != len(exps):
            return [f"{len(coeffs)} coefficients for {len(exps)} monomials"]

        residuals = self._residuals(inst, exps, coeffs, exact)
        psi_model = max(abs(r) for r in residuals)
        psi_report = Fraction(report["psi"]) if exact else float(report["psi"])
        if exact:
            if psi_model != psi_report:
                problems.append(f"reported psi {psi_report} != recomputed {psi_model}")
        elif abs(psi_model - psi_report) > 1e-9 * max(1.0, psi_model):
            problems.append(f"reported psi {psi_report!r} != recomputed {psi_model!r}")
        problems += self._check_extremes(report, residuals, psi_model, exact)

        # optimal: True, False, or None for "either verdict, if its evidence re-checks"
        if self.highs:
            ref = self.reference_psi(inst)
            gap = float(psi_model) - ref
            tol = max(PSI_RTOL * ref, PSI_ATOL)
            if op["command"] == "fit" and (gap < -tol or (gap > tol and op["exit"] == 0)):
                problems.append(f"fit psi {float(psi_model)!r} differs from HiGHS psi {ref!r}")
            optimal = True if gap <= PSI_ROUND * ref else False if gap > tol else None
        else:  # only the psi cross-check is lost: fits and optimal coefficients claim optimality
            optimal = op["kind"] in ("fit", "optimal")

        command = op["command"]
        if command in ("fit", "verify"):
            if "certificate" in report:
                problems += self._check_certificate(inst, report["certificate"], report, exact)
                if optimal is False:
                    problems.append("certificate for a model HiGHS shows is not optimal")
            elif "witness" in report:
                problems += self._check_witness(inst, report["witness"], report, exact)
                if optimal:
                    problems.append("separating witness for a model HiGHS shows is optimal")
            else:
                problems.append("report holds neither certificate nor witness")
            expected_code = 0 if "certificate" in report else 2
            if op["exit"] != expected_code:
                problems.append(f"exit code {op['exit']} does not match the verdict")
        if command == "verify":
            iso = report.get("isolability", {})
            if optimal is not None and iso.get("isolable") is optimal:
                problems.append(f"isolable={iso.get('isolable')} but HiGHS optimal={optimal}")
        reduction = report.get("reduction", {}).get("verdict", "pass")
        if command == "fit" and optimal and reduction != "pass":
            problems.append("point reduction fails on an optimal fit")
        if command in ("fit", "alternate") and "alternation" in report:
            alt = report["alternation"]
            verdict = alt["verdict"]
            if verdict == "fail":
                if optimal:
                    problems.append("hyperplane check fails on an optimal model")
                problems += self._check_counterexample(inst, alt["counterexample"], report, degree)
            elif verdict == "pass" and optimal is False:
                problems.append("hyperplane check passes a model HiGHS shows is not optimal")
            if command == "alternate" and op["exit"] != (2 if verdict == "fail" else 0):
                problems.append(f"exit code {op['exit']} does not match verdict {verdict}")
        return problems

    def _residuals(self, inst, exps, coeffs, exact):
        if exact:
            c = [Fraction(x) for x in coeffs]
            return [Fraction(v) - _exact_value(c, p, exps) for p, v in zip(inst.points, inst.values)]
        return list(inst.f - lifted(inst.xy, inst.degree) @ np.asarray(coeffs, dtype=float))

    def _check_extremes(self, report, residuals, psi, exact) -> list[str]:
        ext = report["extremes"]
        if ext.get("degenerate"):
            return [] if float(psi) <= 1e-12 else ["degenerate extremes with psi > 1e-12"]
        rel = Fraction(1, 10**8) if exact else 1e-8
        slack = 0 if exact else 1e-9 * max(1.0, psi)
        threshold = psi - psi * rel
        bad = [i for i in ext["plus"] if residuals[i] < threshold - slack]
        bad += [i for i in ext["minus"] if -residuals[i] < threshold - slack]
        missed = [i for i, r in enumerate(residuals)
                  if abs(r) >= threshold + slack and i not in set(ext["plus"]) | set(ext["minus"])]
        out = []
        if bad:
            out.append(f"extreme indices {bad[:5]} are not within the band")
        if missed:
            out.append(f"points {missed[:5]} are extreme but not listed")
        return out

    def _check_certificate(self, inst, cert, report, exact) -> list[str]:
        exps = graded_lex(inst.dimension, cert["degree"])
        if exact:
            alpha = [Fraction(w) for w in cert["alpha"]]
            beta = [Fraction(w) for w in cert["beta"]]
            zero, one, tol = Fraction(0), Fraction(1), 0
        else:
            alpha = [float(w) for w in cert["alpha"]]
            beta = [float(w) for w in cert["beta"]]
            zero, one, tol = 0.0, 1.0, CERT_TOL
        out = []
        if any(w < zero - tol for w in alpha + beta):
            out.append("negative certificate weight")
        if abs(sum(alpha) - one) > tol or abs(sum(beta) - one) > tol:
            out.append("certificate weights do not sum to one per side")
        if set(cert["plus"]) - set(report["extremes"]["plus"]) or \
                set(cert["minus"]) - set(report["extremes"]["minus"]):
            out.append("certificate support outside the extreme sets")
        if exact:
            plus = [_monomials_exact(inst.points[i], exps) for i in cert["plus"]]
            minus = [_monomials_exact(inst.points[i], exps) for i in cert["minus"]]
            for k, e in enumerate(exps):
                if sum(a * u[k] for a, u in zip(alpha, plus)) != sum(b * v[k] for b, v in zip(beta, minus)):
                    out.append(f"moment {e} differs exactly")
                    break
        else:
            p = lifted(inst.xy[cert["plus"]], cert["degree"])
            q = lifted(inst.xy[cert["minus"]], cert["degree"])
            resid = np.max(np.abs(np.asarray(alpha) @ p - np.asarray(beta) @ q))
            if resid > CERT_TOL:
                out.append(f"moment residual {resid:.3e} exceeds {CERT_TOL}")
        return out

    def _check_witness(self, inst, wit, report, exact) -> list[str]:
        exps = graded_lex(inst.dimension, wit["degree"])
        plus, minus = report["extremes"]["plus"], report["extremes"]["minus"]
        if exact:
            c = [Fraction(x) for x in wit["coefficients"]]
            vp = [_exact_value(c, inst.points[i], exps) for i in plus]
            vm = [_exact_value(c, inst.points[i], exps) for i in minus]
        else:
            c = np.asarray(wit["coefficients"], dtype=float)
            vp = list(lifted(inst.xy[plus], wit["degree"]) @ c) if plus else []
            vm = list(lifted(inst.xy[minus], wit["degree"]) @ c) if minus else []
        if all(v > 0 for v in vp) and all(v < 0 for v in vm):
            return []
        return ["witness does not strictly separate E+ from E-"]

    def _check_counterexample(self, inst, split, report, degree) -> list[str]:
        """A failing split must really fail: re-solve both hull tests with HiGHS."""
        if split is None:
            return ["fail verdict without a counterexample"]
        out = []
        u = np.asarray(split["normal"], dtype=float)
        a = float(split["offset"])
        plus = set(report["extremes"]["plus"])
        for side in ("plus_side", "minus_side"):
            for i in split[side]:
                s = float(np.dot(u, inst.xy[i]) - a)
                same = (s > 0) == (i in plus)
                if abs(s) <= 1e-9 or same != (side == "plus_side"):
                    out.append(f"point {i} is not on the {side} of the counterexample plane")
                    break
        if not self.highs:
            return out
        if _hulls_meet(inst, split["plus_side"], split["minus_side"], degree - 1) or \
                _hulls_meet(inst, split["on_plane_plus"], split["on_plane_minus"], degree):
            out.append("HiGHS finds the counterexample split satisfies the split condition")
        return out


def _hulls_meet(inst: Instance, plus, minus, degree) -> bool:
    """Whether the degree-`degree` lifted hulls of two index sets intersect (HiGHS)."""
    if not plus or not minus:
        return False
    from scipy.optimize import linprog

    p = lifted(inst.xy[list(plus)], degree)
    q = lifted(inst.xy[list(minus)], degree)
    a_eq = np.hstack([p.T, -q.T])
    a_eq = np.vstack([a_eq, np.concatenate([np.ones(len(plus)), np.zeros(len(minus))])])
    b_eq = np.zeros(a_eq.shape[0])
    b_eq[-1] = 1.0  # row 0 (constant monomial) already makes both sides' masses equal
    res = linprog(np.zeros(a_eq.shape[1]), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return res.status == 0

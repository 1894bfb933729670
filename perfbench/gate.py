"""Correctness gate: one invocation's output against the stored reference.

An operation is one output row: a check row of a ``verify`` report or a
row of the ``ode`` trajectory CSV.  A row fails when it is an ERROR row, a
REQUIRED row that does not pass, or a row that disagrees with the reference:

* the row keys ``(id, tier, n, t, z)``, the status and ``pass`` match
  exactly; ``z`` is compared only at the reference seed, since the seed
  picks the z samples;
* every REQUIRED residual is within the tolerance of its identity;
* a value agrees with the reference within ``VALUE_MULTIPLE`` times its
  error scale: ``rel_tol`` for quadrature values, ``--ode-tol`` for
  trajectory values, each divided by h^2 (h the t-stencil step) for values
  formed by finite differences in t.  Values are compared wherever they do
  not depend on the z samples: every row at the reference seed, the rows
  without z on any seed.
"""

import csv
import json
import math
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation, localcontext

#: tolerances of the REQUIRED tier (the contract, restated independently of
#: the program); None means 10 * rel_tol
REQUIRED_TOL = {
    "S1_FUNC": 1e-15, "S2_FUNC": 1e-15, "S2P_FUNC": 1e-15,
    "LOWER_FUNC": 1e-20, "RAISE_FUNC": 1e-20, "A_FORM": 1e-20, "B_FORM": 1e-20,
    "BETA_ROUTES": None, "TELE_BETA": None,
    "DLNH": 1e-10, "DBETA": 1e-10, "DP": 1e-10,
}

#: identities whose residuals are formed from t-stencil differences
STENCIL_IDS = frozenset({"DLNH", "DBETA", "DP", "RIC_R", "RIC_BIGR", "FACTOR_PROD",
                         "ODE_RN", "PV_PHI"})

#: the trajectory CSV column formed from t-stencil differences of the dense output
STENCIL_COLUMN = "pv_residual"

#: allowed disagreement with the reference, in units of the error scale
VALUE_MULTIPLE = 100

#: decimal digits of the 256-bit working precision; the margin's cap
PRECISION_DIGITS = 256 * math.log10(2)

_MAX_PROBLEMS = 5


@dataclass
class Verdict:
    """Rows attempted and failed in one invocation, with the REQUIRED margin."""

    rows: int
    failed: int = 0
    margin_digits: float = PRECISION_DIGITS
    problems: list = field(default_factory=list)

    def fail(self, why):
        self.failed += 1
        if len(self.problems) < _MAX_PROBLEMS:
            self.problems.append(why)

    def fail_all(self, why):
        self.failed = self.rows
        self.problems.append(why)


def _num(text):
    try:
        return Decimal(text)
    except (InvalidOperation, TypeError):
        return None


def _status(residual):
    if residual == "SKIPPED":
        return "skipped"
    if isinstance(residual, str) and residual.startswith("ERROR"):
        return "error"
    return "ok"


def _stencil_step(t):
    return Decimal("1e-6") * max(t, Decimal(1))


def _agrees(got, ref, scale):
    """|got - ref| <= VALUE_MULTIPLE * scale * (1 + |ref|)."""
    return abs(got - ref) <= VALUE_MULTIPLE * scale * (1 + abs(ref))


def _required_tol(identity, rel_tol):
    tol = REQUIRED_TOL[identity]
    return Decimal(tol) if tol is not None else 10 * rel_tol


def _row_problem(got, ref, rel_tol, same_seed):
    for key in ("id", "tier", "n", "t"):
        if got.get(key) != ref[key]:
            return f"{key} {got.get(key)!r} != reference {ref[key]!r}"
    z_fixed = same_seed or ref["z"] is None
    if z_fixed and got.get("z") != ref["z"]:
        return f"z {got.get('z')!r} != reference {ref['z']!r}"
    if (got.get("z") is None) != (ref["z"] is None):
        return "z present where the reference has none, or missing"
    status = _status(got.get("residual"))
    if status == "error":
        return got["residual"]
    if status != _status(ref["residual"]):
        return f"status {status} != reference {_status(ref['residual'])}"
    if got.get("pass") != ref["pass"]:
        return f"pass {got.get('pass')!r} != reference {ref['pass']!r}"
    if status != "ok":
        return None
    value = _num(got["residual"])
    if value is None:
        return f"residual {got['residual']!r} is not a number"
    if ref["tier"] == "required":
        tol = _required_tol(ref["id"], rel_tol)
        if value > tol:
            return f"REQUIRED residual {value:.3e} above tolerance {tol:.0e}"
    if z_fixed:
        scale = rel_tol
        if ref["id"] in STENCIL_IDS:
            scale = rel_tol / _stencil_step(Decimal(ref["t"])) ** 2
        if not _agrees(value, Decimal(ref["residual"]), scale):
            return f"residual {value:.6e} disagrees with reference {Decimal(ref['residual']):.6e}"
    return None


def check_report(path, reference, rel_tol, same_seed):
    """Gate a ``verify`` JSON report against the reference report."""
    ref_rows = reference["checks"]
    verdict = Verdict(rows=len(ref_rows))
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        verdict.fail_all(f"unreadable report: {exc}")
        return verdict
    rows = doc.get("checks")
    if doc.get("schema") != reference["schema"] or not isinstance(rows, list):
        verdict.fail_all(f"schema {doc.get('schema')!r} != reference {reference['schema']!r}")
        return verdict
    if len(rows) != len(ref_rows):
        verdict.fail_all(f"{len(rows)} rows, reference has {len(ref_rows)}")
        return verdict
    if doc.get("summary", {}).get("required_pass") is not True:
        verdict.problems.append("summary.required_pass is not true")
    rel_tol = Decimal(rel_tol)
    with localcontext() as ctx:
        ctx.prec = 100
        for got, ref in zip(rows, ref_rows):
            why = _row_problem(got, ref, rel_tol, same_seed)
            if why:
                verdict.fail(f"{ref['id']} n={ref['n']} t={ref['t']}: {why}")
            elif ref["tier"] == "required" and _status(ref["residual"]) == "ok":
                value = Decimal(got["residual"])
                if value > 0:
                    digits = float((_required_tol(ref["id"], rel_tol) / value).log10())
                    verdict.margin_digits = min(verdict.margin_digits, digits)
    return verdict


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_trajectory(path, reference, ode_tol):
    """Gate an ``ode`` trajectory CSV against the reference CSV.

    The trajectory has no REQUIRED rows, so the margin stays at its cap.
    """
    header, ref_rows = reference[0], reference[1:]
    verdict = Verdict(rows=len(ref_rows))
    try:
        table = read_csv(path)
    except OSError as exc:
        verdict.fail_all(f"unreadable CSV: {exc}")
        return verdict
    if not table or table[0] != header or len(table) - 1 != len(ref_rows):
        verdict.fail_all(f"CSV header or row count differs from the reference ({len(table)} lines)")
        return verdict
    ode_tol = Decimal(ode_tol)
    with localcontext() as ctx:
        ctx.prec = 100
        for got, ref in zip(table[1:], ref_rows):
            if got[0] != ref[0]:
                verdict.fail(f"t {got[0]!r} != reference {ref[0]!r}")
                continue
            scale_fd = ode_tol / _stencil_step(Decimal(ref[0])) ** 2
            for name, g, r in zip(header[1:], got[1:], ref[1:]):
                value = _num(g)
                scale = scale_fd if name == STENCIL_COLUMN else ode_tol
                if value is None or not _agrees(value, Decimal(r), scale):
                    verdict.fail(f"t={ref[0]} {name} {g!r} disagrees with reference {r!r}")
                    break
    return verdict

"""JSON and CSV emission for check reports and trajectory tables, and the
summary block of a check report (``summarize``).

Numbers are serialized as decimal strings at full working precision (the
values exceed what binary64 JSON numbers can carry).  Check rows contain
exactly the keys id, tier, n, t, z, residual, pass; a skipped or failed
check carries the literal string "SKIPPED" or "ERROR: <reason>" in its
residual field so that no check is ever silently omitted.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timezone

from mpmath import mp
from mpmath.libmp import prec_to_dps

from .model import GUARD_BITS

SCHEMA = "pv5-jacobi-lab/1"


def numstr(x, bits: int) -> str:
    """Decimal string with the full significant digits of ``bits`` mantissa.

    Conversion happens at working precision: re-rounding through the
    caller's ambient context would silently truncate to its mantissa.
    """
    with mp.workprec(bits + GUARD_BITS):
        return mp.nstr(mp.mpf(x), prec_to_dps(bits), strip_zeros=True)


def check_rows(reports, bits: int):
    text = {}  # each distinct t and z is formatted once

    def num(x):
        if x not in text:
            text[x] = numstr(x, bits)
        return text[x]

    rows = []
    for r in reports:
        if r.status == "ok":
            residual = numstr(r.residual, bits)
        elif r.status == "skipped":
            residual = "SKIPPED"
        else:
            residual = f"ERROR: {r.message}"
        rows.append({
            "id": r.id.value,
            "tier": r.tier.value,
            "n": r.n,
            "t": num(r.t),
            "z": None if r.z is None else num(r.z),
            "residual": residual,
            "pass": r.passed,
        })
    return rows


def summarize(reports):
    """Aggregate a report list into the summary block used by the emitters."""
    required = [r for r in reports if r.tier.value == "required"]
    required_ok = [r for r in required if r.status == "ok"]
    max_required = max((r.residual for r in required_ok), default=mp.mpf(0))
    # skipped-by-configuration rows do not fail the suite; errors do
    required_pass = all(r.passed for r in required_ok) and not any(
        r.status == "error" for r in required)
    diag = {}
    for r in reports:
        if r.status != "ok":
            continue
        name = r.id.value
        cur = diag.get(name)
        if cur is None or r.residual > cur:
            diag[name] = r.residual
    ratios = {}
    for r in reports:
        if r.halving_ratio is not None and r.status == "ok":
            ratios.setdefault(r.id.value, []).append(r.halving_ratio)
    return {
        "required_pass": required_pass,
        "max_required_residual": max_required,
        "diagnostics": {
            "max_residual_by_id": diag,
            "halving_ratio_range": {
                k: (min(v), max(v)) for k, v in ratios.items()
            },
            "skipped": sum(1 for r in reports if r.status == "skipped"),
            "errors": sum(1 for r in reports if r.status == "error"),
        },
    }


def _jsonable_summary(summary, bits: int):
    diag = summary["diagnostics"]
    return {
        "required_pass": summary["required_pass"],
        "max_required_residual": numstr(summary["max_required_residual"], bits),
        "diagnostics": {
            "max_residual_by_id": {
                k: numstr(v, bits) for k, v in diag["max_residual_by_id"].items()
            },
            "halving_ratio_range": {
                k: [numstr(v[0], bits), numstr(v[1], bits)]
                for k, v in diag["halving_ratio_range"].items()
            },
            "skipped": diag["skipped"],
            "errors": diag["errors"],
        },
    }


def build_document(reports, summary, params_block, bits: int):
    return {
        "schema": SCHEMA,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "params": params_block,
        "checks": check_rows(reports, bits),
        "summary": _jsonable_summary(summary, bits),
    }


def emit_report(reports, summary, path, params_block, bits: int):
    """Write the JSON document; returns the document dict."""
    doc = build_document(reports, summary, params_block, bits)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc


def load_report(path, bits: int = 256):
    """Re-read a report; finite residuals come back as mpf at ``bits``."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unexpected schema {doc.get('schema')!r}")
    with mp.workprec(bits):
        for row in doc["checks"]:
            res = row["residual"]
            if isinstance(res, str) and not res.startswith(("SKIPPED", "ERROR")):
                row["residual_value"] = mp.mpf(res)
    return doc


def checks_csv(reports, bits: int, fh):
    writer = csv.writer(fh)
    writer.writerow(["id", "tier", "n", "t", "z", "residual", "pass"])
    for row in check_rows(reports, bits):
        writer.writerow([
            row["id"], row["tier"], row["n"], row["t"],
            "" if row["z"] is None else row["z"],
            row["residual"],
            "" if row["pass"] is None else str(row["pass"]).lower(),
        ])


def csv_text(header, rows, bits: int) -> str:
    """The table as CSV text: the header, then one line per row with every
    number but an int at the full digits of ``bits``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([
            cell if isinstance(cell, (str, int)) else numstr(cell, bits)
            for cell in row
        ])
    return buf.getvalue()


#: column schema for trajectory exports (header row mandatory)
TRAJECTORY_HEADER = ["t", "R_n", "r_n", "beta_n", "phi_n", "pv_residual"]

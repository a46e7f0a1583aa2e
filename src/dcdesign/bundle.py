"""Self-describing JSON bundles for generated designs.

A bundle stores the design matrices as exact integer row arrays (no floats),
the certificate arrays when present, the verification summary it was saved
with, and enough metadata to regenerate it: method, parameters, seed, a
digest of the permutation plan, and the tool version; in memory its four
matrices are integer ndarrays.  Loading re-verifies; a bundle whose stored
summary disagrees with re-verification on any key, or whose stored witness
is not the certificate of its d2, is rejected.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

from . import __version__
from .arrays import _matrix_text
from .design import CoupledDesign, DesignWitness, PermutationPlan
from .errors import ParseError
from .verify import VerificationReport, full_report

FORMAT = "dcd-bundle/1"


def _plan_payload(plan: PermutationPlan | None):
    if plan is None:
        return None
    return {"seed": plan.seed, **{name: field.tolist() for name, field in plan.fields().items()}}


def plan_digest(plan: PermutationPlan | None) -> str:
    canonical = json.dumps(_plan_payload(plan), sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def report_summary(report: VerificationReport) -> dict:
    return {
        "passed": report.passed,
        "omega": report.omega_checked,
        "d1_is_oa": report.d1_is_oa,
        "d2_is_lh": report.d2_is_lh,
        "condition_a": report.condition_a,
        "condition_b": report.condition_b,
        "croa_partition": report.croa_partition,
        "witness_check": report.witness_check,
    }


def design_to_bundle(
    design: CoupledDesign,
    report: VerificationReport,
    method: str,
    parameters: dict,
    seed: int,
    extra: dict | None = None,
) -> dict:
    metadata = {
        "method": method,
        "parameters": parameters,
        "seed": seed,
        "plan_digest": plan_digest(design.witness.plan if design.witness else None),
        "tool_version": __version__,
    }
    if extra:
        metadata.update(extra)
    bundle = {
        "format": FORMAT,
        "metadata": metadata,
        "s": design.s,
        "d1": design.d1,
        "d2": design.d2,
        "witness": None,
        "report": report_summary(report),
    }
    if design.witness is not None:
        bundle["witness"] = {"b": design.witness.b, "c": design.witness.c}
    return bundle


def _indented(value, pad: str, out: list) -> None:
    """Append `value` as `json.dumps(value, indent=2, sort_keys=True)` lays
    it out at indentation `pad`.  A 2-D integer ndarray with entries is
    written as its `tolist()`, row by row through `_matrix_text`; keys and
    every other scalar or empty container go through `json.dumps`, which
    keeps its escaping, NaN and Infinity, and its TypeError on non-JSON
    types, other ndarrays and numpy scalars among them."""
    if isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype.kind in "iu":
        if value.size:
            inner = pad + "  "
            head, tail = "[\n" + inner + "  ", "\n" + inner + "]"
            out.append("[\n" + inner + head)
            out.append((tail + ",\n" + inner + head).join(_matrix_text(value, ",\n" + inner + "  ")))
            out.append(tail + "\n" + pad + "]")
            return
        value = value.tolist()  # [] or rows of []
    if not isinstance(value, (dict, list, tuple)) or not value:
        out.append(json.dumps(value))
        return
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        out.append("{\n" + inner)
        for index, (key, item) in enumerate(sorted(value.items())):
            # the encoder's key coercion: non-str keys read as their JSON text, quoted
            out.append(("" if index == 0 else sep) + json.dumps({key: None})[1:-7] + ": ")
            _indented(item, inner, out)
        out.append("\n" + pad + "}")
    else:
        out.append("[\n" + inner)
        for index, item in enumerate(value):
            if index:
                out.append(sep)
            _indented(item, inner, out)
        out.append("\n" + pad + "]")


def save_bundle(bundle: dict, path) -> None:
    """Write `json.dumps(bundle, indent=2, sort_keys=True)` and a newline,
    byte for byte, each 2-D integer ndarray read as its `tolist()`, without
    the standard library's pure-Python indenting encoder, one piece at a
    time rather than as one joined string."""
    out: list[str] = []
    _indented(bundle, "", out)
    out.append("\n")
    with open(path, "w") as fh:
        fh.writelines(out)


def _int_matrix(rows, name: str) -> np.ndarray:
    """An exact integer matrix: a non-empty list (or tuple) of equal-length
    rows of plain ints.  Floats, booleans, ragged or deeper rows and entries
    beyond int64 are refused rather than truncated or cast; the type scans
    run at C level."""
    if (
        not isinstance(rows, (list, tuple))
        or not rows
        or not set(map(type, rows)) <= {list, tuple}
        or len(set(map(len, rows))) != 1
        or not set(map(type, itertools.chain.from_iterable(rows))) <= {int}
    ):
        raise ParseError(f"{name} must be a matrix of integers")
    try:
        return np.array(rows, dtype=int)
    except OverflowError as exc:
        raise ParseError(f"{name} has an entry outside int64: {exc}") from exc


def parse_bundle(data: dict) -> tuple[CoupledDesign, dict]:
    """The design a loaded bundle holds, and the bundle with its four
    matrices as the parsed arrays and every other value as loaded."""
    if not isinstance(data, dict) or data.get("format") != FORMAT:
        raise ParseError(f"not a {FORMAT} bundle")
    try:
        s = data["s"]
        if type(s) is not int or s < 2:
            raise ParseError(f"s must be an integer >= 2, got {s!r}")
        d1 = _int_matrix(data["d1"], "d1")
        d2 = _int_matrix(data["d2"], "d2")
        witness = None
        if data.get("witness"):
            witness = DesignWitness(b=_int_matrix(data["witness"]["b"], "b"), c=_int_matrix(data["witness"]["c"], "c"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed bundle: {exc}") from exc
    if d1.shape[0] != d2.shape[0]:
        raise ParseError("bundle matrices have inconsistent shapes")
    if d1.shape[1] < 1 or s > d1.shape[0]:
        raise ParseError(f"d1 must have a column and at least s={s} rows")
    report = data.get("report", {})
    if not isinstance(report, dict) or not (report.get("omega") is None or (type(report["omega"]) is int and report["omega"] >= 0)):
        raise ParseError("bundle report must be an object with a nonnegative integer or null omega")
    parsed = {**data, "d1": d1, "d2": d2}
    if witness is not None:
        parsed["witness"] = {**data["witness"], "b": witness.b, "c": witness.c}
    return CoupledDesign(d1=d1, d2=d2, s=s, witness=witness), parsed


def report_disagreement(data: dict, design: CoupledDesign, report: VerificationReport | None = None) -> str | None:
    """The first summary key on which the bundle's stored report disagrees
    with re-verification at the stored omega (2 when none is stored), then
    "witness" unless a stored (b, c) are the quotient and remainder of
    collapse(d2, s) by s (so collapse(d2, s) = s*b + c with 0 <= c < s), or
    None.  `report` is reused when it was checked at that omega."""
    stored = data.get("report", {})
    omega = 2 if stored.get("omega") is None else stored["omega"]
    if report is None or report.omega_checked != omega:
        report = full_report(design, omega=omega)
    for key, value in report_summary(report).items():
        if stored.get(key) is not None and stored[key] != value:
            return key
    if design.witness is not None:
        b, c = np.divmod(design.d2 // design.s, design.s)
        if not (np.array_equal(design.witness.b, b) and np.array_equal(design.witness.c, c)):
            return "witness"
    return None


def load_bundle(path, verify: bool = True) -> tuple[CoupledDesign, dict]:
    """Read a bundle; with verify=True, re-run verification at the stored
    omega and require agreement with the stored summary."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    design, data = parse_bundle(data)
    if verify:
        key = report_disagreement(data, design)
        if key is not None:
            raise ParseError(f"{path}: stored {key!r} disagrees with re-verification")
    return design, data

"""Executable checks for doubly coupled designs.

One counting kernel, ``arrays.balanced_columns``, decides every coupling
condition: it asks whether a qualitative key balances against all p
collapsed columns at once.  It counts over column-major arrays, which each
pass here builds once (d2.T or d1.T, then the collapses and pair codes
derived from it).  Two public entry points put it to use:

- ``check_coupling`` slices rows per level combination and, for coupling
  order omega, demands that every slice's collapsed quantitative values form
  a permutation (the definition, checked directly);
- ``check_projections`` tests the equivalent order-2 projection conditions:
  every (qualitative, once-collapsed) pair balanced at strength 2, and every
  (qualitative, qualitative, twice-collapsed) triple balanced at strength 3.

``full_report`` makes one order-2 pass, through ``check_coupling``, or
copies the report construction kept while the arrays stay read-only, and
reads the witness verdict off it.  The swap search, whose steps each
change one column of a verified design, checks just that column with
``_column_checker``: two calls of the kernel's unchecked entry point.  The
independent cross-checks are the loop-based routes in ``tests/oracles.py``
and the benchmark's ``perfbench/oracle.py``, not a second route here.
Reports list every offending index tuple, not just the first, so externally
loaded designs get usable diagnostics.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field

import numpy as np

from .arrays import _balanced, balanced_columns, is_latin_hypercube, is_orthogonal_array
from .design import CoupledDesign
from .errors import LevelOutOfRange, OmegaExceedsQ, RunSizeNotDivisible


@dataclass
class StratificationCheck:
    col_i: int
    col_j: int
    grid_x: int
    grid_y: int
    passed: bool


@dataclass
class VerificationReport:
    """Aggregated verdicts; a field left None was not checked.

    `passed` requires every checked condition to hold.  Two fields are
    descriptive and never gate the verdict: `stratification` (which grids a
    particular design family achieves) and `croa_partition` (the
    consecutive-block structure every construction here emits; a valid
    design with reordered rows may satisfy the coupling conditions while
    admitting only a non-consecutive partition).
    """

    n: int
    s: int
    q: int
    p: int
    omega_checked: int | None = None
    d1_is_oa: bool | None = None
    d2_is_lh: bool | None = None
    condition_a: bool | None = None
    condition_b: bool | None = None
    condition_a_failures: list = field(default_factory=list)
    condition_b_failures: list = field(default_factory=list)
    higher_order_failures: list = field(default_factory=list)
    croa_partition: bool | None = None
    witness_check: bool | None = None
    stratification: list[StratificationCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        checked = (self.d1_is_oa, self.d2_is_lh, self.condition_a, self.condition_b, self.witness_check)
        return all(c is not False for c in checked) and not self.higher_order_failures


def _d1_is_oa(design: CoupledDesign) -> bool:
    return is_orthogonal_array(design.d1, design.s, min(2, design.q))


def _failing(ok: np.ndarray, prefix: tuple) -> list:
    """(*prefix, k) for every column k whose balance check failed."""
    return [(*prefix, k) for k in np.flatnonzero(~ok).tolist()]


def check_coupling(design: CoupledDesign, omega: int = 2) -> VerificationReport:
    """Definition-based check at coupling order `omega`.

    For every l = 1..omega, every l-subset of qualitative columns, and every
    level combination: the rows of each quantitative column, collapsed by
    s^l, must form a permutation of 0..n/s^l-1.  omega=0 only checks that d2
    is a Latin hypercube; a negative omega raises ValueError.
    """
    n, s, q, p = design.n, design.s, design.q, design.p
    if omega < 0:
        raise ValueError(f"coupling order must be nonnegative, got {omega}")
    if omega > q:
        raise OmegaExceedsQ(f"omega={omega} exceeds {q} qualitative factors")
    if omega > 0 and n % s**omega:
        raise RunSizeNotDivisible(f"{n} rows not divisible by {s}^{omega}")
    report = VerificationReport(n=n, s=s, q=q, p=p, omega_checked=omega)
    report.d2_is_lh = is_latin_hypercube(design.d2)
    if omega == 0:
        return report
    report.d1_is_oa = _d1_is_oa(design)
    failures = {1: report.condition_a_failures, 2: report.condition_b_failures}
    failures.update({level: report.higher_order_failures for level in range(3, omega + 1)})
    collapsed = np.ascontiguousarray(design.d2.T)
    for level in range(1, omega + 1):
        runs = n // s**level
        collapsed = collapsed // s
        # each slice is a permutation of 0..runs-1 iff every (slice, value)
        # cell holds one row; values past runs-1 fail their column outright
        in_range = (collapsed < runs).all(axis=1)
        clipped = np.minimum(collapsed, runs - 1)
        for cols in itertools.combinations(range(q), level):
            keys = np.ravel_multi_index(tuple(design.d1[:, c] for c in cols), (s,) * level)
            # in range: is_latin_hypercube and _d1_is_oa raised on any entry that is not
            ok = in_range & _balanced(keys, s**level, clipped, runs)
            failures[level] += _failing(ok, cols if level <= 2 else (cols,))
    report.condition_a = not report.condition_a_failures
    if omega >= 2:
        report.condition_b = not report.condition_b_failures
    return report


def check_projections(design: CoupledDesign) -> VerificationReport:
    """Projection-condition check, equivalent to coupling order 2.

    Condition (a): each (qualitative column, once-collapsed quantitative
    column) pair hits every (level, value) combination exactly once.
    Condition (b): each (qualitative, qualitative, twice-collapsed) triple
    hits every combination exactly once.
    """
    n, s, q = design.n, design.s, design.q
    if n % s**2:
        raise RunSizeNotDivisible(f"{n} rows not divisible by {s}^2")
    report = VerificationReport(n=n, s=s, q=q, p=design.p, omega_checked=2)
    report.d1_is_oa = _d1_is_oa(design)
    report.d2_is_lh = is_latin_hypercube(design.d2)
    z, once = design.d1, design.d2 // s
    for i in range(q):
        report.condition_a_failures += _failing(balanced_columns(z[:, i], s, once, n // s), (i,))
    for i, j in itertools.combinations(range(q), 2):
        ok = balanced_columns(z[:, i] * s + z[:, j], s * s, once // s, n // s**2)
        report.condition_b_failures += _failing(ok, (i, j))
    report.condition_a = not report.condition_a_failures
    report.condition_b = not report.condition_b_failures
    return report


def _certificate_balanced(design: CoupledDesign) -> bool:
    """Whether the certificate arrays b, c with collapse(d2, s) == s*b + c
    are balanced: every column of b takes each of its n/s^2 values, and
    every column of c each of its s values, equally often.  A d2 entry of n
    or more puts b out of range and raises LevelOutOfRange."""
    n, s = design.n, design.s
    b, c = np.divmod(np.ascontiguousarray(design.d2.T) // s, s)
    one_key = np.zeros(n, dtype=int)
    return not design.p or bool(balanced_columns(one_key, 1, b.T, n // s**2).all() and _balanced(one_key, 1, c, s).all())


def _column_checker(design: CoupledDesign):
    """check(col, certificate) for a new column of `design`, a design that
    passed the order-2 conditions and whose d1 stays fixed.  It raises the
    RuntimeError construction raises unless col // s == certificate, col is
    a permutation of 0..n-1, and (one unchecked kernel call each) col // s
    balances every d1 column and col // s^2 every pair code z_i*s + z_j."""
    n, s, z = design.n, design.s, np.ascontiguousarray(design.d1.T)
    i, j = np.triu_indices(design.q, 1)
    codes, rows = z[i] * s + z[j], np.arange(n)

    def check(col: np.ndarray, certificate: np.ndarray) -> None:
        if not np.array_equal(col // s, certificate):
            raise RuntimeError("internal error: expansion broke the certificate identity")
        if not (np.array_equal(np.sort(col), rows) and _balanced(col // s, n // s, z, s).all() and _balanced(col // s**2, n // s**2, codes, s * s).all()):
            raise RuntimeError("internal error: construction output failed verification")

    return check


def croa_partition(d1, s: int) -> bool:
    """True iff every consecutive block of s^2 rows is completely resolvable
    (consecutive-block convention): each holds every pair code z_i*s + z_j
    once, and each block of s rows every level once per column (one
    unchecked kernel call each).  As when blocks were checked in turn,
    entries above s-1 fail, and a negative one raises LevelOutOfRange
    unless an earlier block fails."""
    m = np.asarray(d1, dtype=int)
    n, q = m.shape
    if n % s**2:
        return False
    negative = np.flatnonzero((m < 0).any(axis=1))
    if negative.size and croa_partition(m[: negative[0] // s**2 * s**2], s):
        raise LevelOutOfRange("matrix entries must be nonnegative")
    if negative.size or not n or m.max() >= s:
        return not n
    i, j = np.triu_indices(q, 1)
    m = np.ascontiguousarray(m.T)
    return bool(_balanced(np.arange(n) // s**2, n // s**2, m[i] * s + m[j], s * s).all() and _balanced(np.arange(n) // s, n // s, m, s).all())


def max_qualitative_factors(s: int) -> int:
    """Upper bound on the number of s-level qualitative factors a doubly
    coupled design can carry: q <= s."""
    if s < 2:
        raise ValueError(f"need s >= 2, got {s}")
    return s


def stratification_report(design: CoupledDesign) -> VerificationReport:
    """Report which two-dimensional grid stratifications each quantitative
    pair achieves.

    Grids tried per pair (when the divisibility applies): g x g on the
    twice-collapsed columns with g = n/s^2 (only when the certificate array
    b has strength 2, so every pair passes it), s^2 x s and s x s^2 on the
    once-collapsed columns, and s x s on the twice-collapsed columns.  The
    last three apply exactly when s^3 divides n.  The two finer grids take
    one kernel call per column; the s x s grid merges s adjacent cells of
    either of them, so it holds wherever one of them does, and only the
    pairs where both fail are counted.  Entries are descriptive and do not
    affect the pass verdict.
    """
    n, s, p = design.n, design.s, design.p
    report = VerificationReport(n=n, s=s, q=design.q, p=p)
    if p < 2 or n % s**2:
        return report
    once = np.ascontiguousarray(design.d2.T) // s
    b = once // s
    g = n // s**2

    def pairs_balanced(x, gx, y, gy, first=0):
        """Per column i < p-1 from `first` on: whether each pair (i, j > i)
        balances."""
        return (_balanced(x[i], gx, y[i + 1 :], gy) for i in range(first, p - 1))

    # the one range-checked call (column 0 against the rest) covers every
    # column of b, and so of d2 and of each collapse of it below
    b_strength2 = g >= 2 and balanced_columns(b[0], g, b[1:].T, g).all() and all(ok.all() for ok in pairs_balanced(b, g, b, g, 1))
    grids, results = [], []
    if b_strength2:
        grids.append((g, g))
        results.append([np.ones(p - 1 - i, dtype=bool) for i in range(p - 1)])
    if g % s == 0:
        lv_once = n // s
        for gx, gy in ((s**2, s), (s, s**2)):
            grids.append((gx, gy))
            results.append(list(pairs_balanced(once // (lv_once // gx), gx, once // (lv_once // gy), gy)))
        coarse = b // (g // s)
        coarse_ok = []
        for i, (ok_x, ok_y) in enumerate(zip(results[-2], results[-1])):
            ok = ok_x | ok_y
            both_fail = np.flatnonzero(~ok)
            if both_fail.size:
                ok[both_fail] = _balanced(coarse[i], s, coarse[i + 1 + both_fail], s)
            coarse_ok.append(ok)
        grids.append((s, s))
        results.append(coarse_ok)
    by_column = [[ok[i].tolist() for ok in results] for i in range(p - 1)]
    for i, j in itertools.combinations(range(p), 2):
        for (gx, gy), ok in zip(grids, by_column[i]):
            report.stratification.append(StratificationCheck(i, j, gx, gy, ok[j - i - 1]))
    return report


def full_report(design: CoupledDesign, omega: int = 2) -> VerificationReport:
    """Everything at once: coupling at `omega`, the witness verdict (an
    order-2 property, so only set when omega >= 2, from the same pass's
    order-2 fields and the certificate balance), the consecutive-block
    partition of d1, and the stratification survey.  A built design's kept
    report is copied if at `omega`, while d1, d2, b and c are read-only."""
    kept = design.witness.report if design.witness is not None else None
    frozen = kept is not None and kept.omega_checked == omega and not any(a.flags.writeable for a in (design.d1, design.d2, design.witness.b, design.witness.c))
    report = copy.deepcopy(kept) if frozen else check_coupling(design, omega)
    report.croa_partition = croa_partition(design.d1, design.s)
    if omega >= 2:
        order2 = (report.d1_is_oa, report.d2_is_lh, report.condition_a, report.condition_b)
        report.witness_check = _certificate_balanced(design) and all(order2)
    report.stratification = stratification_report(design).stratification
    return report

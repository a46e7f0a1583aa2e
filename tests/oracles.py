"""Loop-based and tensor reference routes, kept as test oracles.

These are the verification routes, the c3 precondition and the level
expansion as they were written before the counting kernel
(``arrays.balanced_columns``) replaced their per-column loops: one
``column_stack`` + ``is_orthogonal_array`` (or one ``grid_stratification``,
the one-pair grid check the library once exported) per index tuple, and one
``permutation`` call per level.  ``croa_partition`` is the one ``is_croa``
call per block of s^2 rows that two whole-array kernel calls replaced.  ``full_report`` assembles them as the library's report did when
it ran the coupling and witness routes apart.  ``balanced_columns`` is the
kernel itself as one tally per column, with no blocks and no layout, and
``grid_stratification`` counts through it.
The two space-filling criteria are kept as they were before row blocking:
one (n, n, p) tensor each.  The swap search is the one that rebuilt,
re-expanded, re-verified and re-scored every column of every candidate
(and, under ``--shuffle-split``, re-split the inputs) through
``construct_from_plan`` and ``score``.  The bundle text is the standard
library's indenting encoder (a 2-D integer ndarray read as its list), the
CSV and array-text exports the per-entry writers they were before one
decimal-table writer replaced them, and the bundle matrix reader the
per-entry type check it had before its scans moved to C.  The differential tests hold the library
routes to the reports, exceptions, random streams, criterion floats and
bytes of these.
"""

import itertools
import json
from collections import Counter
from dataclasses import replace

import numpy as np

from dcdesign.arrays import as_matrix, is_latin_hypercube, is_orthogonal_array, to_continuous
from dcdesign.errors import (
    DesignError,
    LevelOutOfRange,
    OmegaExceedsQ,
    ParseError,
    PreconditionFailed,
    RunSizeNotDivisible,
    UnbalancedColumn,
)
from dcdesign.construct import _family_inputs, construct_from_plan, sample_family_plan
from dcdesign.criteria import CRITERIA, TIE_TOLERANCE, best_index, score
from dcdesign.rng import as_generator, derive_seed
from dcdesign.verify import StratificationCheck, VerificationReport


class NonDivisibleGrid(DesignError):
    """Grid cell count does not divide the column's level count."""


def _d1_is_oa(design):
    return is_orthogonal_array(design.d1, design.s, min(2, design.q))


def check_coupling(design, omega=2):
    n, s, q, p = design.n, design.s, design.q, design.p
    if omega > q:
        raise OmegaExceedsQ(f"omega={omega} exceeds {q} qualitative factors")
    if omega > 0 and n % s**omega:
        raise RunSizeNotDivisible(f"{n} rows not divisible by {s}^{omega}")
    report = VerificationReport(n=n, s=s, q=q, p=p, omega_checked=omega)
    report.d2_is_lh = is_latin_hypercube(design.d2)
    if omega == 0:
        return report
    report.d1_is_oa = _d1_is_oa(design)
    for level in range(1, omega + 1):
        runs = n // s**level
        collapsed = design.d2 // s**level
        expected = np.arange(runs)
        for cols in itertools.combinations(range(q), level):
            keys = np.ravel_multi_index(tuple(design.d1[:, c] for c in cols), (s,) * level)
            groups = [np.flatnonzero(keys == g) for g in range(s**level)]
            for k in range(p):
                ok = all(np.array_equal(np.sort(collapsed[rows, k]), expected) for rows in groups)
                if not ok:
                    if level == 1:
                        report.condition_a_failures.append((cols[0], k))
                    elif level == 2:
                        report.condition_b_failures.append((cols[0], cols[1], k))
                    else:
                        report.higher_order_failures.append((cols, k))
    report.condition_a = not report.condition_a_failures
    if omega >= 2:
        report.condition_b = not report.condition_b_failures
    return report


def check_projections(design):
    n, s, q, p = design.n, design.s, design.q, design.p
    if n % s**2:
        raise RunSizeNotDivisible(f"{n} rows not divisible by {s}^2")
    report = VerificationReport(n=n, s=s, q=q, p=p, omega_checked=2)
    report.d1_is_oa = _d1_is_oa(design)
    report.d2_is_lh = is_latin_hypercube(design.d2)
    once = design.d2 // s
    twice = design.d2 // s**2
    for i in range(q):
        zi = design.d1[:, i]
        for k in range(p):
            pair = np.column_stack([zi, once[:, k]])
            if not is_orthogonal_array(pair, (s, n // s), 2):
                report.condition_a_failures.append((i, k))
    for i, j in itertools.combinations(range(q), 2):
        cols = (design.d1[:, i], design.d1[:, j])
        for k in range(p):
            triple = np.column_stack([*cols, twice[:, k]])
            if not is_orthogonal_array(triple, (s, s, n // s**2), 3):
                report.condition_b_failures.append((i, j, k))
    report.condition_a = not report.condition_a_failures
    report.condition_b = not report.condition_b_failures
    return report


def witness_decomposition(design):
    n, s, q, p = design.n, design.s, design.q, design.p
    if n % s**2:
        raise RunSizeNotDivisible(f"{n} rows not divisible by {s}^2")
    once = design.d2 // s
    b = once // s
    c = once - s * b
    report = VerificationReport(n=n, s=s, q=q, p=p, omega_checked=2)
    report.d1_is_oa = _d1_is_oa(design)
    report.d2_is_lh = is_latin_hypercube(design.d2)
    balanced = True
    if p:
        balanced = is_orthogonal_array(b, n // s**2, 1) and is_orthogonal_array(c, s, 1)
    for i in range(q):
        zi = design.d1[:, i]
        for k in range(p):
            triple = np.column_stack([zi, c[:, k], b[:, k]])
            if not is_orthogonal_array(triple, (s, s, n // s**2), 3):
                report.condition_a_failures.append((i, k))
    for i, j in itertools.combinations(range(q), 2):
        cols = (design.d1[:, i], design.d1[:, j])
        for k in range(p):
            triple = np.column_stack([*cols, b[:, k]])
            if not is_orthogonal_array(triple, (s, s, n // s**2), 3):
                report.condition_b_failures.append((i, j, k))
    report.condition_a = not report.condition_a_failures
    report.condition_b = not report.condition_b_failures
    report.witness_check = balanced and report.passed
    return b, c, report


def balanced_columns(key, n_keys, y, n_levels):
    """The balance kernel as one (key, value) tally per column, with the
    checks and exceptions of its public entry point."""
    key, y = np.asarray(key), np.asarray(y)
    if key.shape != (y.shape[0],) or n_keys < 1 or n_levels < 1:
        raise ValueError("need one key per row and positive counts")
    if key.size and (key.min() < 0 or key.max() >= n_keys):
        raise LevelOutOfRange("key entries outside range")
    if y.size and (y.min() < 0 or y.max() >= n_levels):
        raise LevelOutOfRange("column entries outside range")
    n, cells = len(key), n_keys * n_levels
    out = []
    for k in range(y.shape[1]):
        tally = Counter(zip(key.tolist(), y[:, k].tolist()))
        out.append(n % cells == 0 and all(tally[a, v] == n // cells for a in range(n_keys) for v in range(n_levels)))
    return np.array(out, dtype=bool)


def grid_stratification(x, y, lx, ly, gx, gy):
    """True iff collapsing x to gx cells and y to gy cells puts equally many
    points in every cell of the gx-by-gy grid."""
    if gx < 1 or gy < 1 or lx % gx or ly % gy:
        raise NonDivisibleGrid(f"grid {gx}x{gy} does not divide levels {lx}x{ly}")
    cx = np.asarray(x, dtype=int)
    cy = np.asarray(y, dtype=int)
    if cx.shape != cy.shape or cx.ndim != 1:
        raise ValueError("x and y must be 1-D of equal length")
    if cx.size and (cx.min() < 0 or cx.max() >= lx or cy.min() < 0 or cy.max() >= ly):
        raise LevelOutOfRange("column entries outside declared level range")
    return bool(balanced_columns(cx // (lx // gx), gx, (cy // (ly // gy))[:, None], gy)[0])


def stratification_report(design):
    n, s, p = design.n, design.s, design.p
    report = VerificationReport(n=n, s=s, q=design.q, p=p)
    if p < 2 or n % s**2:
        return report
    once = design.d2 // s
    b = design.d2 // s**2
    g = n // s**2
    b_strength2 = g >= 2 and is_orthogonal_array(b, g, 2)
    lv_once = n // s
    for i, j in itertools.combinations(range(p), 2):
        checks = []
        if b_strength2:
            checks.append((b[:, i], b[:, j], g, g, g, g))
        if lv_once % s**2 == 0:
            checks.append((once[:, i], once[:, j], lv_once, lv_once, s**2, s))
            checks.append((once[:, i], once[:, j], lv_once, lv_once, s, s**2))
        if g % s == 0:
            checks.append((b[:, i], b[:, j], g, g, s, s))
        for x, y, lx, ly, gx, gy in checks:
            try:
                ok = grid_stratification(x, y, lx, ly, gx, gy)
            except NonDivisibleGrid:
                continue
            report.stratification.append(StratificationCheck(i, j, gx, gy, ok))
    return report


def is_croa(matrix, s):
    """Completely resolvable check with the consecutive-block convention,
    as the library exported it before croa_partition stopped calling it.

    True iff the matrix is an orthogonal array of strength min(2, n_cols) at
    s levels and every consecutive block of s rows contains each level
    exactly once in every column.
    """
    m = as_matrix(matrix)
    n, n_cols = m.shape
    if n == 0 or n % s or (m.size and int(m.max()) >= s):
        return False
    if not is_orthogonal_array(m, s, min(2, n_cols)):
        return False
    blocks = m.reshape(n // s, s, n_cols)
    return bool(np.all(np.sort(blocks, axis=1) == np.arange(s)[None, :, None]))


def croa_partition(d1, s):
    """One ``is_croa`` call per consecutive block of s^2 rows, in row order."""
    m = np.asarray(d1, dtype=int)
    n = m.shape[0]
    if n % s**2:
        return False
    return all(is_croa(m[b * s**2 : (b + 1) * s**2], s) for b in range(n // s**2))


def full_report(design, omega=2):
    """The coupling oracle at `omega`, with the witness oracle's verdict at
    omega >= 2, the block partition and the survey oracle."""
    report = check_coupling(design, omega)
    report.croa_partition = croa_partition(design.d1, design.s)
    if omega >= 2:
        report.witness_check = witness_decomposition(design)[2].witness_check
    report.stratification = stratification_report(design).stratification
    return report


def selection_precondition(a, b):
    """The c3 precondition: every (a_i, a_j, b_k) triple over distinct pool
    columns fully balanced at strength 3."""
    s, n = a.levels[0], a.n_rows
    for i in range(a.n_cols):
        for j in range(i + 1, a.n_cols):
            for k in range(b.n_cols):
                triple = np.column_stack([a.matrix[:, i], a.matrix[:, j], b.matrix[:, k]])
                if not is_orthogonal_array(triple, (s, s, n // s**2), 3):
                    raise PreconditionFailed(f"triple (a{i}, a{j}, b{k}) is not fully balanced")


def level_expand(matrix, rng):
    gen = as_generator(rng)
    m = as_matrix(matrix)
    n = m.shape[0]
    out = np.empty_like(m)
    for j in range(m.shape[1]):
        col = m[:, j]
        n_levels = int(col.max()) + 1 if n else 0
        if n_levels == 0 or n % n_levels:
            raise UnbalancedColumn(f"column {j}: {n} rows cannot split into {n_levels} levels")
        block = n // n_levels
        if not np.all(np.bincount(col, minlength=n_levels) == block):
            raise UnbalancedColumn(f"column {j}: levels do not occur {block} times each")
        for lev in range(n_levels):
            pos = np.flatnonzero(col == lev)
            out[pos, j] = lev * block + gen.permutation(block)
    return out


def _midpoints(d2):
    m = np.asarray(d2, dtype=float)
    return (m + 0.5) / m.shape[0]


def maximin_distance(d2):
    x = _midpoints(d2)
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least two rows")
    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    return float(dist[np.triu_indices(n, k=1)].min())


def centered_l2_discrepancy(d2):
    x = _midpoints(d2)
    n, m = x.shape
    dev = np.abs(x - 0.5)
    term1 = (13.0 / 12.0) ** m
    term2 = np.prod(1.0 + 0.5 * dev - 0.5 * dev**2, axis=1).sum() * (2.0 / n)
    cross = np.abs(x[:, None, :] - x[None, :, :])
    prod = np.prod(1.0 + 0.5 * dev[:, None, :] + 0.5 * dev[None, :, :] - 0.5 * cross, axis=2)
    term3 = prod.sum() / n**2
    return float(term1 - term2 + term3)


def swap_climb(family, inputs, plan, criterion, steps, rng):
    design = construct_from_plan(family, inputs, plan)
    best = score(design.d2, criterion)
    for _ in range(steps):
        trial = replace(plan, **{name: field.copy() for name, field in plan.fields().items()})
        cells = [row for field in trial.fields().values() for row in field.reshape(-1, field.shape[-1])]
        if not cells:
            break
        cell = cells[rng.integers(len(cells))]
        if cell.shape[0] < 2:
            continue
        i, j = rng.choice(cell.shape[0], size=2, replace=False)
        cell[i], cell[j] = cell[j], cell[i]
        candidate = construct_from_plan(family, inputs, trial)
        value = score(candidate.d2, criterion)
        if value.value > best.value + TIE_TOLERANCE if value.sense == "maximize" else value.value < best.value - TIE_TOLERANCE:
            plan, design, best = trial, candidate, value
    return design, best


def optimize_d2(family, criterion="maximin", restarts=10, seed=0, swap_steps=0):
    inputs = _family_inputs(family)
    results = []
    for r in range(restarts):
        child = derive_seed(seed, r)
        plan = sample_family_plan(family, child)
        results.append(swap_climb(family, inputs, plan, criterion, swap_steps, as_generator(derive_seed(child, 3))))
    trajectory = [best.value for _, best in results]
    return results[best_index(trajectory, CRITERIA[criterion])][0], trajectory


def _matrix_list(value):
    """The encoder's `default`: a 2-D integer ndarray reads as its list."""
    if isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype.kind in "iu":
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def bundle_text(bundle):
    """The text `bundle.save_bundle` writes."""
    return json.dumps(bundle, indent=2, sort_keys=True, default=_matrix_list) + "\n"


def csv_text(design, continuous=False, seed=0):
    """The text `dcd export --format csv` writes, one entry at a time."""
    header = [f"z{i + 1}" for i in range(design.q)] + [f"x{i + 1}" for i in range(design.p)]
    lines = [",".join(header)]
    if continuous:
        cont = to_continuous(design.d2, seed)
        quant_rows = [[f"{v:.17g}" for v in row] for row in cont]
    else:
        quant_rows = [[str(v) for v in row] for row in design.d2]
    for i in range(design.n):
        lines.append(",".join([str(v) for v in design.d1[i]] + quant_rows[i]))
    return "\n".join(lines) + "\n"


def oa_text(a):
    """The text `oabuild.save_oa` writes, one entry at a time."""
    if len(set(a.levels)) == 1:
        levels = str(a.levels[0])
    else:
        levels = ",".join(str(v) for v in a.levels)
    lines = [f"{a.n_rows} {a.n_cols} {levels} {a.strength}"]
    lines += [" ".join(str(v) for v in row) for row in a.matrix]
    return "\n".join(lines) + "\n"


def int_matrix(rows, name):
    m = np.array(rows, dtype=object)
    if m.ndim != 2 or any(type(v) is not int for v in m.flat):
        raise ParseError(f"{name} must be a matrix of integers")
    return m.astype(int)

"""Core matrix operations: orthogonal-array and Latin-hypercube predicates,
the balance-counting kernel behind every coupling check and stratification
count, and level collapse and expansion.

The kernel counts over a column-major (p, n) array, a block of columns at a
time within ``BLOCK_ENTRIES`` scratch entries, so each column's counts stay
in cache; ``balanced_columns`` takes the (n, p) layout and range-checks.

All structural checks use exact integer arithmetic; no tolerances exist here.
Levels are always 0-indexed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import LevelOutOfRange, StrengthMismatch, UnbalancedColumn
from .rng import as_generator

# entries per block of a blocked kernel (512 KiB of 8-byte entries): each of
# the balance kernel's flat block, offset keys and count table, and the
# criteria's row blocks
BLOCK_ENTRIES = 1 << 16


def as_matrix(matrix) -> np.ndarray:
    """Coerce to a 2-D integer array with nonnegative entries."""
    m = np.asarray(matrix, dtype=int)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if m.size and m.min() < 0:
        raise LevelOutOfRange("matrix entries must be nonnegative")
    return m


def _matrix_text(m: np.ndarray, sep: str) -> list[str]:
    """Each row of the 2-D integer array `m` as its entries in decimal,
    joined by `sep`: read from a table of the decimals of min..max when that
    range holds fewer values than `m` has entries, else one str each."""
    low, high = (int(m.min()), int(m.max())) if m.size else (0, 0)
    if high - low + 1 < m.size:
        digits = list(map(str, range(low, high + 1))).__getitem__
        return [sep.join(map(digits, row.tolist())) for row in m - low]
    return [sep.join(map(str, row.tolist())) for row in m]


def _column_levels(levels, n_cols: int) -> tuple[int, ...]:
    if np.isscalar(levels):
        return (int(levels),) * n_cols
    out = tuple(int(v) for v in levels)
    if len(out) != n_cols:
        raise ValueError(f"got {len(out)} level counts for {n_cols} columns")
    return out


def is_orthogonal_array(matrix, levels, strength: int) -> bool:
    """True iff every `strength`-column projection contains each level
    combination equally often.

    `levels` is one count for all columns or a per-column sequence.  The
    common frequency must be n divided by the product of the chosen level
    counts; if that is not an integer the answer is False.  Entries outside
    their column's range raise LevelOutOfRange.
    """
    m = as_matrix(matrix)
    n, n_cols = m.shape
    lv = _column_levels(levels, n_cols)
    for j, s_j in enumerate(lv):
        if s_j < 1:
            raise ValueError(f"column {j} has level count {s_j}")
        if n and int(m[:, j].max()) >= s_j:
            raise LevelOutOfRange(f"column {j} has entries outside 0..{s_j - 1}")
    if not 1 <= strength <= n_cols:
        raise ValueError(f"strength must be in 1..{n_cols}, got {strength}")
    for cols in itertools.combinations(range(n_cols), strength):
        dims = tuple(lv[c] for c in cols)
        cells = math.prod(dims)
        if n % cells:
            return False
        keys = np.ravel_multi_index(tuple(m[:, c] for c in cols), dims)
        counts = np.bincount(keys, minlength=cells)
        if not np.all(counts == n // cells):
            return False
    return True


def balanced_columns(key, n_keys: int, y, n_levels: int) -> np.ndarray:
    """For every column of `y` at once: True iff each (key, value) cell,
    key in 0..n_keys-1 and value in 0..n_levels-1, holds n/(n_keys*n_levels)
    rows (never when that is not an integer).  Entries outside their range
    raise LevelOutOfRange rather than alias into a neighbouring cell.
    """
    key = np.asarray(key)
    y = np.asarray(y)
    if key.shape != (y.shape[0],) or n_keys < 1 or n_levels < 1:
        raise ValueError(f"need one key per row and positive counts, got {key.shape}, {n_keys}, {n_levels}")
    if key.size and (key.min() < 0 or key.max() >= n_keys):
        raise LevelOutOfRange(f"key entries outside 0..{n_keys - 1}")
    if y.size and (y.min() < 0 or y.max() >= n_levels):
        raise LevelOutOfRange(f"column entries outside 0..{n_levels - 1}")
    return _balanced(key, n_keys, y.T, n_levels)


def _balanced(key: np.ndarray, n_keys: int, columns: np.ndarray, n_levels: int) -> np.ndarray:
    """balanced_columns without its checks, for entries known to be in
    range, over the column-major (p, n) `columns`: row k is column k.  Rows
    are counted in blocks of at most BLOCK_ENTRIES entries (one row when n is
    larger), one bincount per block, row k of a block in cells
    k*n_keys*n_levels + key*n_levels + value, so the block, its offset keys
    and its count table stay in cache.  When the cells cannot hold n rows
    equally, every column fails uncounted."""
    p, n = columns.shape
    cells = n_keys * n_levels
    ok = np.zeros(p, dtype=bool)
    if n % cells:
        return ok
    rows = max(1, BLOCK_ENTRIES // max(n, cells))
    flat = np.empty((min(rows, p), n), dtype=np.int64)
    keys = key * n_levels + (cells * np.arange(len(flat)))[:, None]
    for lo in range(0, p, rows):
        block = flat[: min(rows, p - lo)]
        np.add(columns[lo : lo + rows], keys[: len(block)], out=block)
        ok[lo : lo + rows] = (np.bincount(block.ravel(), minlength=cells * len(block)).reshape(-1, cells) == n // cells).all(axis=1)
    return ok


def is_latin_hypercube(matrix) -> bool:
    """True iff every column is a permutation of 0..n-1."""
    m = as_matrix(matrix)
    n = m.shape[0]
    if m.shape[1] == 0:
        return True
    return bool(np.array_equal(np.sort(m, axis=0), np.broadcast_to(np.arange(n)[:, None], m.shape)))


def level_collapse(matrix, s: int) -> np.ndarray:
    """Entrywise floor division by s, merging each run of s levels into one."""
    if s < 2:
        raise ValueError(f"collapse factor must be at least 2, got {s}")
    return as_matrix(matrix) // s


def _expansion_draws(m: np.ndarray, gen):
    """Per column of `m`, in turn: the values level_expand gives it, in
    level order.  They depend only on the column's level count."""
    n = m.shape[0]
    for j in range(m.shape[1]):
        col = m[:, j]
        n_levels = int(col.max()) + 1 if n else 0
        if n_levels == 0 or n % n_levels:
            raise UnbalancedColumn(f"column {j}: {n} rows cannot split into {n_levels} levels")
        block = n // n_levels
        if not np.all(np.bincount(col, minlength=n_levels) == block):
            raise UnbalancedColumn(f"column {j}: levels do not occur {block} times each")
        perms = gen.permuted(np.tile(np.arange(block), (n_levels, 1)), axis=1)
        yield (perms + block * np.arange(n_levels)[:, None]).ravel()


def _expand_column(col: np.ndarray, values: np.ndarray) -> np.ndarray:
    """`col` expanded by its draws: its rows of level i, in row order, take
    block i of `values`."""
    out = np.empty_like(values)
    out[np.argsort(col, kind="stable")] = values
    return out


def level_expand(matrix, rng) -> np.ndarray:
    """Randomized inverse of level_collapse, one column at a time.

    Each column must have some number L of levels, every level occurring
    exactly n/L times; the positions of level i, in row order, receive a
    random permutation of i*(n/L)..(i+1)*(n/L)-1.  The block size n/L is
    inferred per column, so columns with different level counts are fine.
    Collapsing the result by n/L restores the input.  One permuted call per
    column draws as L sequential permutation(n/L) calls would.
    """
    m = as_matrix(matrix)
    out = np.empty_like(m)
    for j, values in enumerate(_expansion_draws(m, as_generator(rng))):
        out[:, j] = _expand_column(m[:, j], values)
    return out


def to_continuous(lh, rng) -> np.ndarray:
    """Map integer Latin-hypercube levels l to points (l+u)/n, u uniform on
    [0,1), giving one point per 1/n interval per column."""
    m = as_matrix(lh)
    if not is_latin_hypercube(m):
        raise UnbalancedColumn("input is not a Latin hypercube")
    gen = as_generator(rng)
    return (m + gen.random(m.shape)) / m.shape[0]


@dataclass(frozen=True)
class OrthogonalArray:
    """An orthogonal array: matrix, per-column level counts, and strength."""

    matrix: np.ndarray
    levels: tuple[int, ...]
    strength: int

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]


def make_oa(matrix, levels=None, strength: int = 2) -> OrthogonalArray:
    """Build an OrthogonalArray after verifying the claimed strength.

    Levels default to one plus the per-column maximum.  Raises
    StrengthMismatch when verification fails.
    """
    m = as_matrix(matrix)
    if levels is None:
        lv = tuple(int(m[:, j].max()) + 1 for j in range(m.shape[1]))
    else:
        lv = _column_levels(levels, m.shape[1])
    if not 1 <= strength <= m.shape[1]:
        raise StrengthMismatch(f"claimed strength {strength} impossible for {m.shape[1]} columns")
    if not is_orthogonal_array(m, lv, strength):
        raise StrengthMismatch(f"array fails verification at strength {strength}")
    return OrthogonalArray(m, lv, strength)

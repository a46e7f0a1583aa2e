"""Orthogonal-array raw material.

Full factorials, linear columns over GF(s), the polynomial-evaluation
construction of saturated strength-2 and strength-3 arrays, block-form row
normalization, and a text format for arrays taken from external catalogues.
Catalogue files are untrusted: strength is always re-verified on load.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .arrays import OrthogonalArray, _matrix_text, as_matrix, make_oa
from .errors import (
    AllZeroSpec,
    DimensionMismatch,
    ParseError,
    StrengthMismatch,
    StrengthUnsupported,
    TooLarge,
)
from .gf import GaloisField

FULL_FACTORIAL_MAX = 10**7
_INTEGER = re.compile(r"-?[0-9]+")


def full_factorial(s: int, u: int) -> OrthogonalArray:
    """All length-u tuples over 0..s-1 in counting order, most significant
    digit first; strength u by construction."""
    if s < 2 or u < 1:
        raise ValueError(f"need s >= 2 and u >= 1, got s={s}, u={u}")
    if s**u > FULL_FACTORIAL_MAX:
        raise TooLarge(f"{s}^{u} rows exceed the bound {FULL_FACTORIAL_MAX}")
    r = np.arange(s**u)
    mat = (r[:, None] // s ** np.arange(u - 1, -1, -1)) % s
    return OrthogonalArray(mat, (s,) * u, u)


def base_digit(s: int, u: int, position: int) -> np.ndarray:
    """Column of length s^u holding digit `position` (0 = most significant)
    of the row index written in base s."""
    r = np.arange(s**u)
    return (r // s ** (u - 1 - position)) % s


def linear_column(field: GaloisField, u: int, coeffs) -> np.ndarray:
    """Column of length s^u whose r-th entry is the GF(s) combination
    sum_j coeffs[j] * digit_j(r), digits most significant first."""
    mu = [int(c) for c in coeffs]
    if len(mu) != u:
        raise ValueError(f"need {u} coefficients, got {len(mu)}")
    if not any(mu):
        raise AllZeroSpec("all coefficients are zero")
    s = field.order
    if s**u > FULL_FACTORIAL_MAX:
        raise TooLarge(f"{s}^{u} rows exceed the bound {FULL_FACTORIAL_MAX}")
    acc = np.zeros(s**u, dtype=int)
    for j, c in enumerate(mu):
        if c:
            acc = field.add_table[acc, field.mul_table[c, base_digit(s, u, j)]]
    return acc


def bush_oa(field: GaloisField, t: int) -> OrthogonalArray:
    """Saturated strength-t array OA(s^t, s+1, s, t) by polynomial evaluation.

    Rows are the polynomials of degree < t over GF(s); one column per field
    element alpha holds poly(alpha), the final column holds the leading
    coefficient.  With the leading coefficient as the most significant row
    digit, the final column comes out in consecutive block form.
    """
    if t not in (2, 3):
        raise StrengthUnsupported(f"strength {t} not supported, use 2 or 3")
    s = field.order
    if s < t:
        raise StrengthUnsupported(f"needs field order >= {t}, got {s}")
    rows = np.arange(s**t)
    coeff = [(rows // s**i) % s for i in range(t)]
    columns = []
    for alpha in range(s):
        val = coeff[0].copy()
        power = 1
        for i in range(1, t):
            power = field.mul(power, alpha)
            val = field.add_table[val, field.mul_table[power, coeff[i]]]
        columns.append(val)
    columns.append(coeff[t - 1])
    return make_oa(np.column_stack(columns), s, t)


def is_block_form(matrix, s: int) -> bool:
    """True iff the last column is (0 repeated s, 1 repeated s, ...)."""
    m = as_matrix(matrix)
    if m.shape[0] % s:
        return False
    return bool(np.array_equal(m[:, -1], np.repeat(np.arange(m.shape[0] // s), s)))


def normalize_block_form(a: OrthogonalArray) -> OrthogonalArray:
    """Stably reorder rows so the last column is the consecutive block
    pattern; the row multiset is unchanged."""
    s = a.levels[-1]
    if a.n_rows != s * s:
        raise DimensionMismatch(f"expected {s * s} rows, got {a.n_rows}")
    order = np.argsort(a.matrix[:, -1], kind="stable")
    return OrthogonalArray(a.matrix[order], a.levels, a.strength)


def _int(token: str) -> int:
    """An ASCII decimal integer, optionally negative; int() alone would also
    take '+2', '1_0' and non-ASCII digits."""
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _parse_levels(token: str, m: int):
    parts = token.split(",")
    if len(parts) > 1 and len(parts) != m:
        raise ParseError(f"header lists {len(parts)} level counts for {m} columns")
    levels = tuple(_int(p) for p in parts)
    if min(levels) < 1:
        raise ParseError(f"level counts must be positive, got {token!r}")
    return levels if len(parts) > 1 else levels[0]


def _data_lines(path) -> list[str]:
    """The stripped lines of a text file that are neither blank nor '#'
    comments; a file that does not decode, or has no such line, is a
    ParseError."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file: {exc}") from exc
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError(f"{path}: empty file")
    return lines


def _int_rows(path, lines: list[str]) -> np.ndarray:
    """Whitespace-separated integer rows of one width as an int64 matrix;
    entries that are not integers or do not fit int64 are a ParseError."""
    try:
        rows = [[_int(v) for v in ln.split()] for ln in lines]
    except ValueError as exc:
        raise ParseError(f"{path}: non-integer entry: {exc}") from exc
    if len({len(r) for r in rows}) != 1:
        raise ParseError(f"{path}: ragged rows")
    try:
        return np.array(rows, dtype=int)
    except OverflowError as exc:
        raise ParseError(f"{path}: entry outside int64: {exc}") from exc


def load_oa(path) -> OrthogonalArray:
    """Read an array in the text format and re-verify its claimed strength.

    Format: first non-comment line is "n m s t" (or "n m s1,...,sm t" for
    mixed levels), then n lines of m space-separated integers.  Lines
    starting with '#' are comments.
    """
    lines = _data_lines(path)
    header = lines[0].split()
    if len(header) != 4:
        raise ParseError(f"{path}: header must be 'n m s t', got {lines[0]!r}")
    try:
        n, m, t = _int(header[0]), _int(header[1]), _int(header[3])
        levels = _parse_levels(header[2], m)
    except ValueError as exc:
        raise ParseError(f"{path}: bad header: {exc}") from exc
    body = lines[1:]
    if n < 1 or len(body) != n:
        raise ParseError(f"{path}: header declares {n} data rows, found {len(body)}")
    mat = _int_rows(path, body)
    if mat.shape != (n, m):
        raise ParseError(f"{path}: expected shape {(n, m)}, got {mat.shape}")
    try:
        return make_oa(mat, levels, t)
    except StrengthMismatch as exc:
        raise StrengthMismatch(f"{path}: header claims strength {t} but verification fails") from exc


def save_oa(a: OrthogonalArray, path) -> None:
    """Write an array in the text format accepted by load_oa."""
    if len(set(a.levels)) == 1:
        levels = str(a.levels[0])
    else:
        levels = ",".join(str(v) for v in a.levels)
    lines = [f"{a.n_rows} {a.n_cols} {levels} {a.strength}"]
    lines += _matrix_text(a.matrix, " ")
    Path(path).write_text("\n".join(lines) + "\n")


def load_matrix(path) -> np.ndarray:
    """Read a plain whitespace-separated integer matrix ('#' comments ok)."""
    return _int_rows(path, _data_lines(path))

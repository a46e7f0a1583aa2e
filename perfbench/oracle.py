"""Output checks that share no code with ``dcdesign.verify``.

A bundle is re-parsed from its JSON text and judged with plain ``bincount``
tallies: ``d1`` must be an orthogonal array of strength 2 (strength 1 when
q = 1), ``d2`` a Latin hypercube, and the two coupling conditions must hold:

(a) for every qualitative column z_i and quantitative column d_k, the pair
    (z_i, d_k // s) takes every (level, value) combination exactly once;
(b) for every pair of qualitative columns and every d_k, the triple
    (z_i, z_j, d_k // s^2) takes every combination exactly once.

Also here: the tampering applied to verify-corpus bundles, and the two
criteria recomputed without the library's (n, n, p) tensors.
"""

from __future__ import annotations

import itertools
import json

import numpy as np


def _int_matrix(rows, what: str) -> np.ndarray:
    m = np.array(rows)
    if m.ndim != 2 or m.dtype.kind != "i":
        raise ValueError(f"{what} is not an integer matrix")
    return m.astype(np.int64)


def parse(text: str) -> tuple[int, np.ndarray, np.ndarray, dict]:
    data = json.loads(text)
    s = data["s"]
    if type(s) is not int or s < 2:
        raise ValueError("s is not an integer >= 2")
    d1 = _int_matrix(data["d1"], "d1")
    d2 = _int_matrix(data["d2"], "d2")
    if d1.shape[0] != d2.shape[0]:
        raise ValueError("d1 and d2 disagree on the run count")
    return s, d1, d2, data


def _each_once(keys: np.ndarray, size: int) -> bool:
    """True iff every column of `keys` (values in 0..size-1) holds each
    value exactly once; all columns are tallied in one bincount."""
    n, p = keys.shape
    if n != size:
        return False
    if keys.size == 0:
        return True
    if keys.min() < 0 or keys.max() >= size:
        return False
    offsets = np.arange(p, dtype=np.int64) * size
    return bool((np.bincount((keys + offsets).ravel(), minlength=size * p) == 1).all())


def check(s: int, d1: np.ndarray, d2: np.ndarray) -> list[str]:
    """Names of the failed checks; empty when the design is doubly coupled."""
    n, q = d1.shape
    failed = []
    if n % (s * s):
        return [f"run count {n} not divisible by s^2={s * s}"]
    if d1.min(initial=0) < 0 or d1.max(initial=0) >= s:
        return ["d1 level out of range"]
    strength = min(2, q)
    per_cell = n // s**strength
    for cols in itertools.combinations(range(q), strength):
        key = np.zeros(n, dtype=np.int64)
        for c in cols:
            key = key * s + d1[:, c]
        if not (np.bincount(key, minlength=s**strength) == per_cell).all():
            failed.append(f"d1 strength {strength} on columns {cols}")
            break
    if not _each_once(d2, n):
        return failed + ["d2 Latin hypercube"]
    once = d2 // s
    for i in range(q):
        if not _each_once(d1[:, i : i + 1] * (n // s) + once, n):
            failed.append(f"condition (a) on factor {i}")
    twice = d2 // (s * s)
    for i, j in itertools.combinations(range(q), 2):
        cell = d1[:, i : i + 1] * s + d1[:, j : j + 1]
        if not _each_once(cell * (n // (s * s)) + twice, n):
            failed.append(f"condition (b) on factors ({i}, {j})")
    return failed


def check_text(text: str) -> list[str]:
    s, d1, d2, _ = parse(text)
    return check(s, d1, d2)


def tamper(data: dict) -> dict:
    """Swap the minimum and maximum entries of one d2 column.

    d2 stays a Latin hypercube.  The column is the first whose two rows
    differ in some qualitative factor: the swap then moves the top
    collapsed value into the slice that held 0, which now holds it twice,
    so condition (a) fails.
    """
    d1 = np.array(data["d1"])
    d2 = np.array(data["d2"])
    for k in range(d2.shape[1]):
        lo, hi = int(np.argmin(d2[:, k])), int(np.argmax(d2[:, k]))
        if (d1[lo] != d1[hi]).any():
            d2[lo, k], d2[hi, k] = d2[hi, k], d2[lo, k]
            return {**data, "d2": d2.tolist()}
    raise ValueError("no column whose extreme rows differ in d1")


def maximin(d2: np.ndarray) -> float:
    """Smallest pairwise distance of the midpoint-scaled rows.  Squared
    level distances are integers; the float64 Gram form computes them
    exactly while every partial sum stays below 2**53."""
    x = d2.astype(np.float64)
    n = x.shape[0]
    norms = (x * x).sum(axis=1)
    best = np.inf
    for start in range(0, n, 512):
        stop = min(start + 512, n)
        dist = norms[start:stop, None] + norms[None, :] - 2.0 * (x[start:stop] @ x.T)
        dist[np.arange(stop - start), np.arange(start, stop)] = np.inf
        best = min(best, float(dist.min()))
    return float(np.sqrt(best) / n)


def cl2(d2: np.ndarray) -> float:
    """Squared centered L2 discrepancy, summed over row blocks."""
    n, p = d2.shape
    x = (d2.astype(np.float64) + 0.5) / n
    dev = np.abs(x - 0.5)
    total = 0.0
    for start in range(0, n, 32):
        a, da = x[start : start + 32, None, :], dev[start : start + 32, None, :]
        total += np.prod(1.0 + 0.5 * da + 0.5 * dev[None] - 0.5 * np.abs(a - x[None]), axis=2).sum()
    term2 = np.prod(1.0 + 0.5 * dev - 0.5 * dev**2, axis=1).sum() * (2.0 / n)
    return float((13.0 / 12.0) ** p - term2 + total / n**2)


CRITERIA = {"maximin": maximin, "cl2": cl2}

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcdesign import arrays
from dcdesign.arrays import (
    is_latin_hypercube,
    is_orthogonal_array,
    level_collapse,
    level_expand,
    make_oa,
    to_continuous,
)
from dcdesign.errors import (
    LevelOutOfRange,
    StrengthMismatch,
    UnbalancedColumn,
)
from dcdesign.oabuild import full_factorial

import refdesigns as ref
from conftest import naive_oa_check
from oracles import NonDivisibleGrid, grid_stratification, is_croa


def test_reference_d1_is_strength2():
    assert is_orthogonal_array(ref.D1_8RUN, 2, 2)


def test_full_factorial_has_maximal_strength():
    assert is_orthogonal_array(full_factorial(2, 3).matrix, 2, 3)


def test_frequency_must_divide():
    # 6 rows cannot hold 4 pairs equally often
    m = np.array([[0, 0], [0, 1], [1, 0], [1, 1], [0, 0], [1, 1]])
    assert not is_orthogonal_array(m, 2, 2)


def test_out_of_range_entry_raises():
    with pytest.raises(LevelOutOfRange):
        is_orthogonal_array(np.array([[0, 2]]), 2, 1)


def test_random_binary_matrices_agree_with_naive_counter():
    rng = np.random.default_rng(42)
    for _ in range(100):
        m = rng.integers(0, 2, size=(8, 3))
        expected = naive_oa_check(m, 2, 2)
        assert is_orthogonal_array(m, 2, 2) == expected


def test_latin_hypercube_predicate():
    assert is_latin_hypercube(ref.D2_8RUN)
    assert not is_latin_hypercube(np.array([[0], [0], [1], [2]]))
    assert is_latin_hypercube(np.empty((4, 0), dtype=int))


def test_collapse_matches_reference_tables():
    assert np.array_equal(level_collapse(ref.D2_8RUN, 2), ref.D2_8RUN_ONCE)
    assert np.array_equal(level_collapse(ref.D2_8RUN_ONCE, 2), ref.D2_8RUN_TWICE)


def test_collapse_whole_column_to_single_block():
    col = np.arange(8).reshape(-1, 1)
    assert np.array_equal(level_collapse(col, 8), np.zeros((8, 1), dtype=int))


def test_expand_round_trip_on_reference():
    for seed in range(25):
        lh = level_expand(ref.D2_8RUN_ONCE, seed)
        assert is_latin_hypercube(lh)
        assert np.array_equal(level_collapse(lh, 2), ref.D2_8RUN_ONCE)


def test_expand_round_trip_1000_seeds_on_27run_collapsed():
    once = 3 * ref.B_27RUN_REPLICATED + ref.C_27RUN_REPLICATED
    for seed in range(1000):
        lh = level_expand(once, seed)
        assert np.array_equal(level_collapse(lh, 3), once)


def test_expand_identity_when_column_is_permutation():
    m = np.random.default_rng(3).permutation(6).reshape(-1, 1)
    assert np.array_equal(level_expand(m, 0), m)


def test_expand_rejects_unbalanced_column():
    with pytest.raises(UnbalancedColumn):
        level_expand(np.array([[0], [0], [0], [1]]), 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 4), st.integers(1, 3))
def test_expand_collapse_round_trip_property(seed, levels, block, cols):
    rng = np.random.default_rng(seed)
    n = levels * block
    m = np.column_stack([rng.permutation(np.repeat(np.arange(levels), block)) for _ in range(cols)])
    lh = level_expand(m, rng)
    assert is_latin_hypercube(lh)
    assert np.array_equal(level_collapse(lh, block), m)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([4, 6, 8, 9, 12]), st.integers(1, 4))
def test_collapsed_latin_hypercube_is_balanced(seed, n, cols):
    rng = np.random.default_rng(seed)
    lh = np.column_stack([rng.permutation(n) for _ in range(cols)])
    for s in (d for d in (2, 3, 4) if n % d == 0):
        assert is_orthogonal_array(level_collapse(lh, s), n // s, 1)


def test_balance_kernel_memory_is_one_block_of_scratch():
    """At n=4096, p=128 a kernel call holds one block's flat entries and
    offset keys and one count table, each of at most BLOCK_ENTRIES int64
    entries, plus that table's comparison: under 1.8 MB, where the unblocked
    flat array alone took 4 MB."""
    n, p, n_keys, n_levels = 4096, 128, 8, 512
    rng = np.random.default_rng(0)
    key = np.arange(n) // n_levels
    columns = rng.permuted(np.tile(np.arange(n_levels), (p, n_keys, 1)), axis=2).reshape(p, n)
    tracemalloc.start()
    try:
        ok = arrays._balanced(key, n_keys, columns, n_levels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok.all()
    assert peak < (3 * 8 + 1) * arrays.BLOCK_ENTRIES + 16 * n < 8 * n * p // 2


def test_kernel_fails_grids_that_cannot_balance_without_counting():
    """2^20 x 2^20 cells over 8 rows: no cell can hold n/cells rows, so
    every column fails at once, without a count table of 2^40 entries."""
    key = np.zeros(8, dtype=int)
    ok = arrays._balanced(key, 2**20, np.zeros((3, 8), dtype=int), 2**20)
    assert ok.dtype == bool and ok.shape == (3,) and not ok.any()
    assert not arrays.balanced_columns(key, 2**20, np.zeros((8, 3), dtype=int), 2**20).any()


def test_continuous_two_interval_case():
    pts = to_continuous(np.array([[0], [1]]), 7)
    assert 0.0 <= pts[0, 0] < 0.5 <= pts[1, 0] < 1.0


def test_continuous_interval_occupancy():
    pts = to_continuous(ref.D2_8RUN, 11)
    for j in range(pts.shape[1]):
        assert np.array_equal(np.sort(np.floor(pts[:, j] * 8).astype(int)), np.arange(8))


def test_continuous_deterministic_under_seed():
    a = to_continuous(ref.D2_8RUN, 5)
    b = to_continuous(ref.D2_8RUN, 5)
    assert np.array_equal(a, b)


def test_croa_on_reference_half():
    assert is_croa(ref.D1_8RUN[:4], 2)
    assert is_croa(ref.D1_8RUN[4:], 2)


def test_croa_rejects_sorted_factorial_order():
    m = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    assert not is_croa(m, 2)


def test_croa_consecutive_verdicts_match_naive_loops():
    base = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])

    def naive(mat, s):
        n, m = mat.shape
        if n % s:
            return False
        if not naive_oa_check(mat, s, min(2, m)):
            return False
        for b in range(n // s):
            block = mat[b * s : (b + 1) * s]
            for j in range(m):
                if sorted(block[:, j]) != list(range(s)):
                    return False
        return True

    for perm in itertools.permutations(range(4)):
        m = base[list(perm)]
        assert is_croa(m, 2) == naive(m, 2)


def test_grid_stratification_reference_pair():
    assert grid_stratification(ref.D2_8RUN[:, 0], ref.D2_8RUN[:, 1], 8, 8, 2, 2)


def test_grid_single_cell_always_passes():
    col = ref.D2_8RUN[:, 2]
    assert grid_stratification(col, col, 8, 8, 1, 1)


def test_grid_rejects_non_divisible():
    with pytest.raises(NonDivisibleGrid):
        grid_stratification(ref.D2_8RUN[:, 0], ref.D2_8RUN[:, 1], 8, 8, 3, 2)


def test_make_oa_verifies_strength():
    with pytest.raises(StrengthMismatch):
        make_oa(np.array([[0, 0], [0, 0], [1, 1], [1, 1]]), 2, 2)
    oa = make_oa(ref.D1_8RUN, 2, 2)
    assert oa.levels == (2, 2)


INT64 = np.iinfo(np.int64)


@st.composite
def int_matrices(draw):
    """int64 matrices up to 6x6, zero rows or columns included, whose
    entries span 0..40 from an offset at zero, below it or at either int64
    bound: on both sides of the decimal table's condition."""
    shape = (draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    spread = draw(st.integers(0, 40))
    low = draw(st.sampled_from([0, -3, -spread // 2, INT64.min, INT64.max - spread]))
    entries = draw(st.lists(st.integers(0, spread), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    return np.array([low + v for v in entries], dtype=np.int64).reshape(shape)


@settings(max_examples=200, deadline=None)
@given(int_matrices(), st.sampled_from([",", " ", ",\n    "]))
def test_matrix_text_equals_one_str_per_entry(m, sep):
    assert arrays._matrix_text(m, sep) == [sep.join(str(v) for v in row) for row in m.tolist()]

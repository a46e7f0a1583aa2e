import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcdesign.construct import DesignFamily, build_design
from dcdesign.criteria import (
    best_index,
    centered_l2_discrepancy,
    maximin_distance,
    optimize_d2,
    score,
)
from dcdesign.rng import derive_seed
from dcdesign.verify import check_projections

import oracles
import refdesigns as ref


def maximin_brute_force(d2):
    x = (np.asarray(d2, float) + 0.5) / len(d2)
    return min(
        float(np.sqrt(((x[i] - x[j]) ** 2).sum()))
        for i in range(len(x))
        for j in range(i + 1, len(x))
    )


def cl2_projection_oracle(d2):
    """Squared centered L2 discrepancy straight from its definition: for
    every nonempty subset of coordinates, integrate the squared difference
    between the empirical and uniform mass of the box spanned by a point and
    its nearest corner of the projected unit cube.  The per-dimension
    integrals are exact, so no sampling error enters."""
    x = (np.asarray(d2, float) + 0.5) / len(d2)
    n, m = x.shape
    g = 1 / 8 - np.minimum(x, 1 - x) ** 2 / 2
    h = np.maximum(0.5 - np.maximum(x[:, None, :], x[None, :, :]), 0.0) + np.maximum(
        np.minimum(x[:, None, :], x[None, :, :]) - 0.5, 0.0
    )
    total = 0.0
    for r in range(1, m + 1):
        for cols in itertools.combinations(range(m), r):
            box_volume_sq = (1 / 12) ** r
            cross_point = np.prod(g[:, cols], axis=1).sum() / n
            cross_pair = np.prod(h[:, :, cols], axis=2).sum() / n**2
            total += box_volume_sq - 2 * cross_point + cross_pair
    return total


def test_two_point_single_column():
    assert maximin_distance(np.array([[0], [1]])) == pytest.approx(0.5)


def test_reference_design_matches_pairwise_scan():
    assert maximin_distance(ref.D2_8RUN) == pytest.approx(maximin_brute_force(ref.D2_8RUN))


def test_duplicate_rows_give_zero_distance():
    assert maximin_distance(np.array([[0, 1], [0, 1], [1, 0]])) == pytest.approx(0.0)


@pytest.mark.parametrize("rows", [0, 1])
def test_maximin_needs_two_rows(rows):
    with pytest.raises(ValueError):
        maximin_distance(np.zeros((rows, 3), dtype=int))


@pytest.mark.parametrize(
    "d2",
    [np.zeros((1, 3), dtype=int), build_design(DesignFamily(method="c3-case1", s=3, q=2, p=0), 0).d2],
    ids=["one-row", "c3-case1-p0"],
)
def test_discrepancy_edge_designs_equal_tensor_oracle(d2):
    assert centered_l2_discrepancy(d2) == oracles.centered_l2_discrepancy(d2)


@pytest.mark.parametrize("criterion", [maximin_distance, centered_l2_discrepancy])
def test_criteria_memory_stays_bounded(criterion):
    """At n=1024, p=64 one (n, n, p) float tensor is 512 MB; CL2 holds one
    n x n matrix (8 MB) and both hold row-block scratch."""
    rng = np.random.default_rng(0)
    lh = np.column_stack([rng.permutation(1024) for _ in range(64)])
    tracemalloc.start()
    try:
        criterion(lh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_discrepancy_single_point_closed_form():
    # one point at the cell midpoint 0.5: each subset of size r contributes
    # (1/12)^r - 2*(1/12)^r + (1/4)^r ... with g(0.5)=0 and h(0.5,0.5)=0,
    # leaving sum over subsets of (1/12)^r
    for m in range(1, 4):
        val = centered_l2_discrepancy(np.zeros((1, m), dtype=int))
        expected = (13 / 12) ** m - 2 * 1 + 1
        assert val == pytest.approx(expected, abs=1e-15)


def test_discrepancy_reference_design_matches_projection_oracle():
    got = centered_l2_discrepancy(ref.D2_8RUN)
    assert got == pytest.approx(cl2_projection_oracle(ref.D2_8RUN), abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.integers(1, 4))
def test_discrepancy_random_hypercubes_match_oracle(seed, n, m):
    rng = np.random.default_rng(seed)
    lh = np.column_stack([rng.permutation(n) for _ in range(m)])
    assert centered_l2_discrepancy(lh) == pytest.approx(cl2_projection_oracle(lh), abs=1e-9)


def test_discrepancy_invariant_under_column_swap():
    swapped = ref.D2_8RUN[:, ::-1]
    assert centered_l2_discrepancy(swapped) == pytest.approx(centered_l2_discrepancy(ref.D2_8RUN))


def test_criteria_invariant_under_row_reorder():
    rng = np.random.default_rng(1)
    perm = rng.permutation(8)
    assert maximin_distance(ref.D2_8RUN[perm]) == pytest.approx(maximin_distance(ref.D2_8RUN))
    assert centered_l2_discrepancy(ref.D2_8RUN[perm]) == pytest.approx(
        centered_l2_discrepancy(ref.D2_8RUN)
    )


def test_single_restart_equals_direct_build():
    family = DesignFamily(method="c1", s=3, q=3, p=3, lam=3)
    best, trajectory = optimize_d2(family, criterion="maximin", restarts=1, seed=3)
    direct = build_design(family, derive_seed(3, 0))
    assert np.array_equal(best.d2, direct.d2)
    assert len(trajectory) == 1


def enumerate_single_column_designs():
    """Every quantitative column the two-copy stacked family can produce,
    by exhausting slice permutations, level permutations, and expansions."""
    s, lam = 2, 2
    columns = set()
    for v in itertools.permutations(range(lam)):
        b = np.repeat(v, s * s)
        for w0 in itertools.permutations(range(s)):
            for w1 in itertools.permutations(range(s)):
                c = np.concatenate([np.repeat(w0, s), np.repeat(w1, s)])
                once = s * b + c
                blocks = [list(itertools.permutations(range(i * s, (i + 1) * s))) for i in range(lam * s)]
                for choice in itertools.product(*blocks):
                    col = np.empty(lam * s * s, dtype=int)
                    for level, vals in enumerate(choice):
                        col[np.flatnonzero(once == level)] = vals
                    columns.add(tuple(col))
    return columns


def test_exhaustive_family_best_matches_optimizer():
    columns = enumerate_single_column_designs()
    assert len(columns) == 128
    best_maximin = max(maximin_distance(np.array(c).reshape(-1, 1)) for c in columns)
    best_cl2 = min(centered_l2_discrepancy(np.array(c).reshape(-1, 1)) for c in columns)
    family = DesignFamily(method="c1", s=2, q=2, p=1, lam=2)
    got_mm, _ = optimize_d2(family, criterion="maximin", restarts=40, seed=0)
    assert maximin_distance(got_mm.d2) == pytest.approx(best_maximin, abs=1e-12)
    got_cl2, _ = optimize_d2(family, criterion="cl2", restarts=200, seed=0)
    assert centered_l2_discrepancy(got_cl2.d2) == pytest.approx(best_cl2, abs=1e-12)


def test_more_restarts_never_hurt():
    family = DesignFamily(method="c1", s=3, q=3, p=3, lam=3)
    _, short = optimize_d2(family, criterion="maximin", restarts=1, seed=9)
    best, long = optimize_d2(family, criterion="maximin", restarts=20, seed=9)
    assert max(long) >= max(short)
    assert maximin_distance(best.d2) == pytest.approx(max(long))


def test_optimizer_output_always_verifies():
    family = DesignFamily(method="c2", s=2, q=2, p=3, lam=2)
    best, _ = optimize_d2(family, criterion="cl2", restarts=5, seed=4)
    assert check_projections(best).passed


def test_optimizer_bit_reproducible():
    family = DesignFamily(method="c3-case2", s=2, q=2, p=4, u=3)
    a, _ = optimize_d2(family, criterion="maximin", restarts=6, seed=21)
    b, _ = optimize_d2(family, criterion="maximin", restarts=6, seed=21)
    assert np.array_equal(a.d2, b.d2)


def test_swap_climbing_never_worsens():
    family = DesignFamily(method="c1", s=3, q=3, p=2, lam=2)
    plain, _ = optimize_d2(family, criterion="maximin", restarts=3, seed=5)
    climbed, _ = optimize_d2(family, criterion="maximin", restarts=3, seed=5, swap_steps=25)
    assert maximin_distance(climbed.d2) >= maximin_distance(plain.d2) - 1e-12
    assert check_projections(climbed).passed


def test_score_wrapper():
    s = score(ref.D2_8RUN, "maximin")
    assert s.sense == "maximize" and s.value > 0
    with pytest.raises(ValueError):
        score(ref.D2_8RUN, "nope")


def test_best_index_breaks_ties_toward_the_earlier_entry():
    assert best_index([1.0, 1.0 + 1e-13, 2.0, 2.0 + 1e-13, 1.5], "maximize") == 2
    assert best_index([2.0, 1.0, 1.0 - 1e-13, 3.0], "minimize") == 1
    assert best_index([5.0], "minimize") == 0

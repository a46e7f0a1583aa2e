"""The column-local swap search against the whole-design oracle.

Each swap step assembles the trial plan's certificate, re-expands and
verifies only the columns that changed, and (for maximin) scores the trial
from integer pair sums.  These tests hold every step to what rebuilding,
re-verifying and re-scoring the whole design gives (``oracles.swap_climb``,
the search as it was written before), and check that each step verifies
every column it changed and nothing more.
"""

import functools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcdesign import construct, criteria, verify
from dcdesign.construct import DesignFamily, _family_inputs, construct_from_plan, sample_family_plan
from dcdesign.criteria import maximin_distance, optimize_d2
from dcdesign.design import CoupledDesign

import oracles
import refdesigns as ref

FAMILIES = {
    "c1": dict(method="c1", s=3, q=3, p=3, lam=3),
    "c2": dict(method="c2", s=3, q=2, p=3, lam=2),
    "c3-case1": dict(method="c3-case1", s=3, q=1, p=2),
    "c3-case1-shuffled": dict(method="c3-case1", s=4, q=2, p=2, shuffle_split=True),
    "c3-case2": dict(method="c3-case2", s=3, q=3, p=9, u=3),
}


@functools.lru_cache(maxsize=None)
def family_inputs(name):
    family = DesignFamily(**FAMILIES[name])
    return family, _family_inputs(family)


def restart_state(family, inputs, plan):
    """What _swap_climb keeps for a restart: the verified start design, its
    expansion draws, its column checker and the inputs resolved for its
    seed."""
    design = construct_from_plan(family, inputs, plan)
    rng = criteria.as_generator(criteria.derive_seed(plan.seed, criteria._EXPAND_STREAM))
    seeded = construct.METHODS[family.method].seeded(family, inputs, plan.seed)
    return design, list(criteria._expansion_draws(design.d2 // design.s, rng)), verify._column_checker(design), seeded


def swapped(plan, cell_pick, i, j):
    trial = replace(plan, **{name: field.copy() for name, field in plan.fields().items()})
    cells = criteria._plan_cells(trial)
    cell = cells[cell_pick % len(cells)]
    i, j = i % cell.shape[0], j % cell.shape[0]
    cell[i], cell[j] = cell[j], cell[i]
    return trial, i != j


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(FAMILIES)),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 50), st.integers(0, 50), st.booleans()), min_size=1, max_size=12),
)
def test_every_column_local_step_equals_a_full_rebuild(name, seed, moves):
    """On every step of a random walk (accepting at random): the column-local
    trial is construct_from_plan's design, its changed columns are exactly
    those where d2 differs, and the incremental maximin is the kernel's
    float."""
    family, inputs = family_inputs(name)
    plan = sample_family_plan(family, seed)
    design, draws, check, seeded = restart_state(family, inputs, plan)
    pairs = criteria._PairSums(design.d2)
    for cell_pick, i, j, accept in moves:
        trial, moved = swapped(plan, cell_pick, i, j)
        got, changed = criteria._column_local(family, seeded, design, draws, check, trial)
        want = construct_from_plan(family, inputs, trial)
        assert np.array_equal(got.d2, want.d2) and np.array_equal(got.d1, want.d1)
        assert np.array_equal(got.witness.b, want.witness.b) and np.array_equal(got.witness.c, want.witness.c)
        assert changed.tolist() == np.flatnonzero((got.d2 != design.d2).any(axis=0)).tolist()
        assert len(changed) == moved
        assert pairs.distance(pairs.update(design.d2, got.d2, changed), got.d2) == maximin_distance(got.d2)
        if accept:
            plan, design = trial, got
            pairs.accept()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 70), st.integers(1, 12), st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_pair_sums_track_the_kernel_through_column_replacements(n, p, seed, steps):
    """Random Latin hypercubes, C-ordered like every library d2, with random
    columns replaced and accepted at random: the sums always equal the
    from-scratch integer sums and the float equals the kernel's."""
    rng = np.random.default_rng(seed)
    d2 = np.array([rng.permutation(n) for _ in range(p)]).T.copy()
    pairs = criteria._PairSums(d2)
    for _ in range(steps):
        new = d2.copy()
        cols = np.unique(rng.integers(p, size=rng.integers(1, 3)))
        for k in cols:
            new[:, k] = rng.permutation(n)
        sums = pairs.update(d2, new, cols)
        i, j = np.triu_indices(n, 1)
        assert np.array_equal(sums, ((new[i] - new[j]) ** 2).sum(axis=1))
        assert pairs.distance(sums, new) == maximin_distance(new) == oracles.maximin_distance(new)
        if rng.integers(2):
            d2 = new
            pairs.accept()


@pytest.mark.parametrize("criterion", ["maximin", "cl2"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_search_equals_the_whole_design_oracle(name, criterion, seed):
    family = DesignFamily(**FAMILIES[name])
    best, trajectory = optimize_d2(family, criterion, restarts=2, seed=seed, swap_steps=30)
    want, want_trajectory = oracles.optimize_d2(family, criterion, restarts=2, seed=seed, swap_steps=30)
    assert trajectory == want_trajectory
    assert np.array_equal(best.d2, want.d2) and best.witness.plan.fields().keys() == want.witness.plan.fields().keys()
    assert all(np.array_equal(f, g) for f, g in zip(best.witness.plan.fields().values(), want.witness.plan.fields().values()))


def test_search_above_the_exactness_bound_scores_with_the_kernel(monkeypatch):
    monkeypatch.setattr(criteria, "_pair_sums_exact", lambda n, p: False)
    monkeypatch.setattr(criteria, "_PairSums", None)
    family = DesignFamily(**FAMILIES["c3-case2"])
    got = optimize_d2(family, "maximin", restarts=2, seed=11, swap_steps=40)
    want = oracles.optimize_d2(family, "maximin", restarts=2, seed=11, swap_steps=40)
    assert got[1] == want[1] and np.array_equal(got[0].d2, want[0].d2)


def test_exactness_bound_is_a_function_of_n_and_p():
    assert criteria._pair_sums_exact(2**24, 1) and not criteria._pair_sums_exact(2**25, 1)
    assert criteria._pair_sums_exact(2**20, 62) and not criteria._pair_sums_exact(2**20, 63)
    assert criteria._pair_sums_exact(4096, 128)
    assert not criteria._pair_sums_exact(2**19, 128)
    for n, p in ((2, 1), (625, 50), (4096, 128)):
        assert criteria._pair_sums_exact(n, p) >= criteria._pair_sums_exact(n + 1, p) >= criteria._pair_sums_exact(n + 1, p + 1)


@pytest.mark.parametrize(
    "tamper, message",
    [
        ("swap-across-cells", "certificate identity"),
        ("out-of-range", "certificate identity"),
        ("duplicate-in-cell", "failed verification"),
        ("breaks-balance", "failed verification"),
    ],
)
def test_column_check_raises_on_a_tampered_column(tamper, message):
    design = construct_from_plan(*family_inputs("c1"), sample_family_plan(family_inputs("c1")[0], 3))
    check, s = verify._column_checker(design), design.s
    col = design.d2[:, 1].copy()
    certificate = col // s
    check(col, certificate)
    if tamper == "out-of-range":
        col[np.argmax(col)] = design.n
    elif tamper == "duplicate-in-cell":
        col[col == col[0] + 1 - 2 * (col[0] % s)] = col[0]
    else:
        # two rows in different collapsed cells; for breaks-balance also in
        # different levels of factor 0, with the certificate swapped alike
        r1 = 0
        other = (certificate != certificate[r1]) & (design.d1[:, 0] != design.d1[r1, 0])
        r2 = int(np.flatnonzero(other)[0])
        col[[r1, r2]] = col[[r2, r1]]
        if tamper == "breaks-balance":
            certificate[[r1, r2]] = certificate[[r2, r1]]
    with pytest.raises(RuntimeError, match=message):
        check(col, certificate)


@pytest.mark.parametrize("d2", [ref.D2_8RUN_SINGLE_ONLY, ref.D2_8RUN_PAIR_ONLY], ids=["fails-b", "fails-a"])
def test_column_check_agrees_with_check_projections_per_column(d2):
    check = verify._column_checker(CoupledDesign(d1=ref.D1_8RUN, d2=ref.D2_8RUN, s=2))
    report = verify.check_projections(CoupledDesign(d1=ref.D1_8RUN, d2=d2, s=2))
    failing = {f[-1] for f in report.condition_a_failures + report.condition_b_failures}
    assert failing
    for k in range(d2.shape[1]):
        if k in failing:
            with pytest.raises(RuntimeError, match="failed verification"):
                check(d2[:, k], d2[:, k] // 2)
        else:
            check(d2[:, k], d2[:, k] // 2)


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_steps_verify_each_changed_column_and_nothing_else(monkeypatch):
    """Full construction, expansion and verification (one order-2
    check_coupling pass, one unchecked kernel call per factor and factor
    pair) run once per restart; each step (every one changes one column
    here) makes exactly the two kernel calls of the column check."""
    coupling = count_calls(monkeypatch, construct, "check_coupling")
    projections = count_calls(monkeypatch, verify, "check_projections")
    expansions = count_calls(monkeypatch, construct, "level_expand")
    oa_checks = count_calls(monkeypatch, verify, "is_orthogonal_array")
    kernel = count_calls(monkeypatch, verify, "_balanced")
    restarts, steps = 2, 15
    optimize_d2(DesignFamily(**FAMILIES["c1"]), "maximin", restarts=restarts, seed=2, swap_steps=steps)
    assert len(coupling) == len(expansions) == len(oa_checks) == restarts
    assert not projections
    q = FAMILIES["c1"]["q"]
    assert len(kernel) == 2 * restarts * steps + restarts * (q + q * (q - 1) // 2)


def test_restarts_keep_only_the_incumbent_design():
    """Eight restarts hold at most one design more than one restart does,
    not one per restart: the incumbent, with its plan and report, while the
    next restart is built and scored.  Measured after a warm-up run, so
    caches filled on first use count in neither peak."""
    family = DesignFamily(method="c3-case2", s=5, q=5, p=50, u=4)
    optimize_d2(family, "cl2", restarts=1, seed=0)
    peaks = []
    for restarts in (1, 8):
        tracemalloc.start()
        try:
            design, _ = optimize_d2(family, "cl2", restarts=restarts, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    design_bytes = sum(a.nbytes for a in (design.d1, design.d2, design.witness.b, design.witness.c))
    assert peaks[1] - peaks[0] < 2 * design_bytes


def test_search_memory_is_the_pair_sums_and_block_scratch():
    """At n=1024 the two pair-sum vectors hold 8.4 MB; everything else the
    search holds at once stays within a few blocks of scratch, far below
    an n x n matrix or the pair index arrays."""
    family = DesignFamily(method="c3-case2", s=4, q=2, p=4, u=5)
    pair_bytes = 8 * 1024 * 1023 // 2
    optimize_d2(family, "maximin", restarts=1, seed=0, swap_steps=1)
    tracemalloc.start()
    try:
        optimize_d2(family, "maximin", restarts=1, seed=0, swap_steps=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 2 * pair_bytes < peak < 2 * pair_bytes + 8 * 8 * criteria.BLOCK_ENTRIES

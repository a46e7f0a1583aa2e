"""Differential tests: the kernel routes against the loop-based oracles.

Every verification route, the c3 precondition and the level expansion must
give the oracle's report (same failure tuples in the same order, same
stratification list), raise the same exception type, or, for the
expansion, produce the same matrix and leave the generator in the same
state.  Designs come from every construction method and are mutated by
swapped d2 entries, changed d1 levels and out-of-range d2 entries.  The
row-blocked criteria must return the tensor oracles' floats exactly, since
bundles pin search trajectories byte for byte.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcdesign import arrays, construct, criteria, verify
from dcdesign.arrays import OrthogonalArray, balanced_columns, level_expand
from dcdesign.construct import DesignFamily, build_design, regular_inputs, split_strength3_inputs
from dcdesign.design import CoupledDesign
from dcdesign.errors import LevelOutOfRange
from dcdesign.gf import GaloisField
from dcdesign.oabuild import bush_oa

import oracles

FAMILIES = {
    "c1-s2": dict(method="c1", s=2, q=2, p=3, lam=2),
    "c1-s3": dict(method="c1", s=3, q=3, p=2, lam=3),
    "c2-s2": dict(method="c2", s=2, q=2, p=3, lam=3),
    "c2-s3": dict(method="c2", s=3, q=3, p=3, lam=2),
    "c3-case1-s3": dict(method="c3-case1", s=3, q=1, p=2),
    "c3-case1-s4": dict(method="c3-case1", s=4, q=2, p=2),
    "c3-case2-s2u4": dict(method="c3-case2", s=2, q=2, p=8, u=4),
    "c3-case2-s3u3": dict(method="c3-case2", s=3, q=3, p=9, u=3),
}


# every method: the four above and c3-custom on explicit pool and companion arrays
DESIGNS = sorted(FAMILIES) + ["c3-custom-s3"]


def built_family(name: str) -> DesignFamily:
    if name == "c3-custom-s3":
        a, b = selection_inputs("regular-s3u3")
        return DesignFamily(method="c3-custom", s=3, q=3, p=4, a=a, b=b)
    return DesignFamily(**FAMILIES[name])


@functools.lru_cache(maxsize=None)
def family_design(name: str, seed: int) -> CoupledDesign:
    return build_design(built_family(name), seed)


@st.composite
def mutated_designs(draw):
    base = family_design(draw(st.sampled_from(DESIGNS)), draw(st.integers(0, 3)))
    d1, d2 = base.d1.copy(), base.d2.copy()
    n, s = base.n, base.s
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["swap", "d1", "d2-value"]))
        r = draw(st.integers(0, n - 1))
        if kind == "swap" and base.p:
            k = draw(st.integers(0, base.p - 1))
            r2 = draw(st.integers(0, n - 1))
            d2[[r, r2], k] = d2[[r2, r], k]
        elif kind == "d1":
            i = draw(st.integers(0, base.q - 1))
            d1[r, i] = (d1[r, i] + draw(st.integers(1, s - 1))) % s
        elif kind == "d2-value" and base.p:
            k = draw(st.integers(0, base.p - 1))
            d2[r, k] = draw(st.sampled_from([n, n + 9, -1, 10**6]))
    return CoupledDesign(d1=d1, d2=d2, s=s)


def outcome(fn, *args):
    """A comparable record of a call: its exception type, or its report
    (repr keeps plain ints apart from numpy scalars) and certificate."""
    try:
        result = fn(*args)
    except Exception as exc:
        return type(exc)
    if isinstance(result, tuple):
        b, c, report = result
        return b.tolist(), c.tolist(), repr(report)
    return repr(result)


@settings(max_examples=150, deadline=None)
@given(mutated_designs())
def test_verification_routes_match_loop_oracles(design):
    for omega in range(min(design.q, 3) + 1):
        assert outcome(verify.check_coupling, design, omega) == outcome(oracles.check_coupling, design, omega)
    assert outcome(verify.check_projections, design) == outcome(oracles.check_projections, design)
    assert outcome(verify.stratification_report, design) == outcome(oracles.stratification_report, design)
    for omega in range(min(design.q, 3) + 1):
        assert outcome(verify.full_report, design, omega) == outcome(oracles.full_report, design, omega)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", DESIGNS)
def test_kept_report_equals_a_fresh_pass_and_the_oracle(name, seed):
    """full_report on a built design (reusing its construction's report
    where omega matches) equals full_report on writeable copies of its
    arrays and the oracle, at every omega; the kept report is not changed,
    not even by edits to the report full_report returns."""
    design = family_design(name, seed)
    kept = repr(design.witness.report)
    copied = CoupledDesign(design.d1.copy(), design.d2.copy(), design.s)
    for omega in range(min(design.q, 3) + 1):
        got = outcome(verify.full_report, design, omega)
        assert got == outcome(verify.full_report, copied, omega) == outcome(oracles.full_report, copied, omega)
    verify.full_report(design, min(2, design.q)).condition_a_failures.append((0, 0))
    assert repr(design.witness.report) == kept


@pytest.mark.parametrize("array", ["d1", "d2", "b", "c"])
def test_built_design_arrays_are_read_only(array):
    design = build_design(built_family("c1-s3"), 0)
    owner = design.witness if array in ("b", "c") else design
    with pytest.raises(ValueError, match="read-only"):
        getattr(owner, array)[0, 0] = 1


def test_built_arrays_share_no_memory_with_the_plan():
    """With lam=1 the replicated method's b was a reshaped view of the
    plan's b_cells, which a read-only flag on the view does not protect."""
    design = build_design(DesignFamily(method="c2", s=3, q=2, p=2, lam=1), 0)
    for array in (design.d1, design.d2, design.witness.b, design.witness.c):
        assert not any(np.shares_memory(array, f) for f in design.witness.plan.fields().values())


@pytest.mark.parametrize("array", ["d1", "d2"])
def test_an_unfrozen_edit_is_re_verified(array):
    """Making an array writeable again drops the kept report: full_report
    runs a fresh pass and reports the edit's failure as the oracle does."""
    design = build_design(built_family("c1-s3"), 0)
    edited = getattr(design, array)
    edited.setflags(write=True)
    edited[0, 0] = (edited[0, 0] + 1) % design.s if array == "d1" else edited[1, 0]
    report = verify.full_report(design)
    assert not report.passed and not (report.d1_is_oa if array == "d1" else report.d2_is_lh)
    assert repr(report) == repr(oracles.full_report(design))


@settings(max_examples=150, deadline=None)
@given(mutated_designs(), st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from([-1, -7, 0, 1]), st.booleans()), max_size=3), st.integers(0, 2))
def test_block_partition_matches_the_per_block_oracle(design, edits, trim):
    """Two whole-array kernel calls give the per-block loop's verdict, or
    raise what it raises, with in-range edits, negative entries, entries of
    s and above (offset by s), and row counts that s^2 does not divide."""
    d1 = design.d1.copy()
    n, q = d1.shape
    for r, value, above in edits:
        d1[r % n, (r // n) % q] = value + design.s * above if value >= 0 else value
    d1 = d1[: n - trim]
    assert outcome(verify.croa_partition, d1, design.s) == outcome(oracles.croa_partition, d1, design.s)


def test_block_partition_and_certificate_take_two_kernel_calls_each(monkeypatch):
    """However many blocks of s^2 rows (lam) and quantitative columns."""
    kernel = count_calls(monkeypatch, verify, "balanced_columns")
    count_calls(monkeypatch, verify, "_balanced", kernel)
    for lam, p in ((1, 2), (3, 3), (2, 6)):
        design = build_design(DesignFamily(method="c1", s=3, q=3, p=p, lam=lam), 0)
        kernel.clear()
        assert verify.croa_partition(design.d1, design.s)
        assert len(kernel) == 2
        kernel.clear()
        assert verify._certificate_balanced(design)
        assert len(kernel) == 2


def test_higher_order_failures_match_oracle():
    design = family_design("c1-s3", 0)
    design = CoupledDesign(d1=design.d1, d2=design.d2.copy(), s=3)
    design.d2[[0, 5], 1] = design.d2[[5, 0], 1]
    report = verify.check_coupling(design, 3)
    assert report.higher_order_failures
    assert repr(report) == repr(oracles.check_coupling(design, 3))


def custom_family(a: OrthogonalArray, b: OrthogonalArray) -> DesignFamily:
    """The c3-custom family of pool `a` and companion `b`, selecting every
    pool column but the first: the one route that checks the precondition."""
    return DesignFamily(method="c3-custom", s=a.levels[0], q=a.n_cols - 1, p=b.n_cols, a=a, b=b)


@functools.lru_cache(maxsize=None)
def selection_inputs(kind: str):
    if kind == "regular-s2u4":
        return regular_inputs(GaloisField(2), 4)
    if kind == "regular-s3u3":
        return regular_inputs(GaloisField(3), 3)
    return split_strength3_inputs(bush_oa(GaloisField(4), 3), 2)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["regular-s2u4", "regular-s3u3", "split-s4"]),
    st.lists(st.tuples(st.sampled_from(["pool", "companion", "swap"]), st.integers(0, 10**6)), max_size=2),
)
def test_selection_precondition_matches_loop_oracle(kind, mutations):
    a, b = selection_inputs(kind)
    pool, comp = a.matrix.copy(), b.matrix.copy()
    n, s = a.n_rows, a.levels[0]
    for what, r in mutations:
        row, col = r % n, r // n
        if what == "pool":
            pool[row, col % pool.shape[1]] = (pool[row, col % pool.shape[1]] + 1) % s
        elif what == "companion":
            comp[row, col % comp.shape[1]] = (comp[row, col % comp.shape[1]] + 1) % (n // s**2)
        else:
            k = col % comp.shape[1]
            comp[[row, (row + col) % n], k] = comp[[(row + col) % n, row], k]
    a = OrthogonalArray(pool, a.levels, 2)
    b = OrthogonalArray(comp, b.levels, 1)

    def record(fn, *args):
        try:
            fn(*args)
        except Exception as exc:
            return type(exc), str(exc)
        return None

    assert record(construct._family_inputs, custom_family(a, b)) == record(oracles.selection_precondition, a, b)


@pytest.mark.parametrize("kind", ["regular-s2u4", "regular-s3u3", "split-s4"])
def test_selection_precondition_refuses_out_of_range_entries(kind):
    """Pool entries outside 0..s-1 and companion entries outside
    0..n/s^2-1 raise, as in the oracle, rather than count in a neighbouring
    cell: the companion's one range check covers every pair's kernel call."""
    a, b = selection_inputs(kind)
    n, s = a.n_rows, a.levels[0]
    for which, bad in (("pool", -1), ("pool", s), ("companion", -1), ("companion", n // s**2)):
        pool, comp = a.matrix.copy(), b.matrix.copy()
        (pool if which == "pool" else comp)[n - 1, -1] = bad
        args = OrthogonalArray(pool, a.levels, 2), OrthogonalArray(comp, b.levels, 1)
        with pytest.raises(LevelOutOfRange):
            construct._family_inputs(custom_family(*args))
        with pytest.raises(LevelOutOfRange):
            oracles.selection_precondition(*args)


@st.composite
def balanced_matrices(draw):
    n = draw(st.integers(1, 48))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    cols = [rng.permutation(np.repeat(np.arange(levels), n // levels)) for levels in draw(st.lists(st.sampled_from(divisors), max_size=5))]
    return np.column_stack(cols) if cols else np.zeros((n, 0), dtype=int)


@settings(max_examples=150, deadline=None)
@given(balanced_matrices(), st.integers(0, 2**32))
def test_level_expand_matches_per_level_oracle_and_stream(matrix, seed):
    gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(level_expand(matrix, gen), oracles.level_expand(matrix, ref_gen))
    assert gen.integers(2**62) == ref_gen.integers(2**62)


def test_level_expand_rejects_what_the_oracle_rejects():
    for bad in (np.array([[0], [0], [1]]), np.array([[0, 0], [1, 2], [2, 2]])):
        assert outcome(level_expand, bad, 0) == outcome(oracles.level_expand, bad, 0)


def test_kernel_counts_every_column_at_once():
    key = np.array([0, 0, 1, 1])
    y = np.array([[0, 0, 1], [1, 0, 1], [0, 1, 0], [1, 1, 0]])
    assert balanced_columns(key, 2, y, 2).tolist() == [True, False, False]
    # 2 x 3 cells do not divide 4 rows, so no column can balance
    assert balanced_columns(key, 2, y, 3).tolist() == [False] * 3


@pytest.mark.parametrize("column", [[0, 2, 0, 1], [0, -1, 1, 1]])
def test_kernel_range_checks_instead_of_aliasing(column):
    # a 2 in a 2-level column would alias into the next key's cell
    with pytest.raises(LevelOutOfRange):
        balanced_columns(np.array([0, 0, 1, 1]), 2, np.array(column)[:, None], 2)


@st.composite
def kernel_inputs(draw):
    """Keys and (n, p) columns for the balance kernel, and a block budget.

    Columns start balanced, every (key, value) cell holding `reps` rows, so
    entries 0 and n_levels-1 occur; edits swap two entries of a column or
    set one to a value from -1 to n_levels (out of range at both ends).  An
    extra row leaves n % cells != 0; reps = 0 gives n = 0, and p may be 0.
    Budgets give one column per block (n above the budget), a width that
    need not divide p, and the module's default."""
    n_keys, n_levels, reps, p = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(0, 3)), draw(st.integers(0, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = n_keys * n_levels
    key = np.repeat(np.arange(n_keys), n_levels * reps)
    y = np.array([np.concatenate([rng.permutation(np.repeat(np.arange(n_levels), reps)) for _ in range(n_keys)]) for _ in range(p)], dtype=int).reshape(p, len(key)).T.copy()
    if draw(st.booleans()):
        key, y = np.append(key, draw(st.integers(0, n_keys - 1))), np.vstack([y, rng.integers(0, n_levels, (1, p))])
    n = len(key)
    for _ in range(draw(st.integers(0, 3)) if n and p else 0):
        r, r2, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, p - 1))
        if draw(st.booleans()):
            y[[r, r2], k] = y[[r2, r], k]
        else:
            y[r, k] = draw(st.integers(-1, n_levels))
    budget = draw(st.sampled_from([1, max(n, cells) * draw(st.integers(1, 4)), arrays.BLOCK_ENTRIES]))
    return key, n_keys, y, n_levels, budget


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
def test_kernel_equals_per_column_loop_oracle(case):
    """The checked entry point and, on in-range entries, the column-major
    unchecked one give the loop oracle's verdicts or raise what it raises,
    whatever the block budget."""
    key, n_keys, y, n_levels, budget = case
    expected = outcome(oracles.balanced_columns, key, n_keys, y, n_levels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arrays, "BLOCK_ENTRIES", budget)
        assert outcome(balanced_columns, key, n_keys, y, n_levels) == expected
        if expected is not LevelOutOfRange:
            assert outcome(arrays._balanced, key, n_keys, np.ascontiguousarray(y.T), n_levels) == expected


@pytest.mark.parametrize(
    "key, n_keys, y, n_levels",
    [
        (np.zeros(3, dtype=int), 1, np.zeros((4, 2), dtype=int), 1),
        (np.zeros(4, dtype=int), 0, np.zeros((4, 2), dtype=int), 1),
        (np.zeros(4, dtype=int), 1, np.zeros((4, 2), dtype=int), 0),
        (np.zeros((4, 1), dtype=int), 1, np.zeros((4, 2), dtype=int), 1),
        (np.array([0, 1, 2, 0]), 2, np.zeros((4, 2), dtype=int), 1),
        (np.zeros(4, dtype=int), 1, np.array([[0, 10**6]] * 4), 4),
    ],
)
def test_kernel_raises_what_it_raised(key, n_keys, y, n_levels):
    expected = outcome(oracles.balanced_columns, key, n_keys, y, n_levels)
    assert expected in (ValueError, LevelOutOfRange)
    assert outcome(balanced_columns, key, n_keys, y, n_levels) == expected


def count_calls(monkeypatch, module, name, calls=None):
    """Count calls of module.name, appending `name` to `calls` (a new list
    unless one is given, so several names can share one list)."""
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def counted(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_verification_op_count_scales_with_factor_pairs_not_columns(monkeypatch):
    """The coupling routes make one kernel call per qualitative factor
    subset, however many quantitative columns there are.  full_report makes
    one order-2 pass, and none on a built
    design, whose construction's pass it reuses; the block partition and
    the certificate balance take two kernel calls each, and the only
    orthogonal-array check left is the coupling pass's one on d1, at p=9 and
    p=18 alike.  The pairwise stratification survey makes at most one kernel
    call per (grid, column), never one per column pair, and only its first
    call goes through the kernel's range-checked entry point."""
    import dcdesign.arrays

    kernel = count_calls(monkeypatch, verify, "balanced_columns")
    count_calls(monkeypatch, verify, "_balanced", kernel)
    oa_checks = count_calls(monkeypatch, verify, "is_orthogonal_array")
    count_calls(monkeypatch, dcdesign.arrays, "is_orthogonal_array", oa_checks)
    coupling_passes = count_calls(monkeypatch, verify, "check_coupling")
    q = 3
    coupling, survey = [], []
    for p in (9, 18):
        design = build_design(DesignFamily(method="c3-case2", s=3, q=q, p=p, u=4), seed=0)
        copied = CoupledDesign(design.d1.copy(), design.d2.copy(), design.s)
        for calls in (kernel, oa_checks, coupling_passes):
            calls.clear()
        verify.check_coupling(design, 2)
        coupling.append(len(kernel))
        kernel.clear()
        verify.stratification_report(design)
        survey.append(len(kernel))
        assert kernel.count("balanced_columns") == 1
        for calls in (kernel, oa_checks, coupling_passes):
            calls.clear()
        assert verify.full_report(design, omega=2).passed
        assert len(kernel) == survey[-1] + 2 + 2
        assert not oa_checks and not coupling_passes
        assert verify.full_report(copied, omega=2).passed
        assert len(kernel) == 2 * (survey[-1] + 2 + 2) + coupling[-1]
        assert len(oa_checks) == len(coupling_passes) == 1
    assert coupling == [q + q * (q - 1) // 2] * 2
    # n=81: the first pair pass over b (b is not of strength 2), then the
    # s^2 x s and s x s^2 grids, one call per column each, and the s x s
    # grid only for the columns with a pair that fails both finer grids
    assert survey == [21, 44]
    assert all(calls <= 1 + 3 * (p - 1) for calls, p in zip(survey, (9, 18)))


def test_generate_makes_one_order2_coupling_pass(monkeypatch, tmp_path):
    """dcd generate verifies at construction and reuses that report: one
    check_coupling call in all, and no check_projections call."""
    from dcdesign import cli

    passes = count_calls(monkeypatch, construct, "check_coupling")
    count_calls(monkeypatch, verify, "check_coupling", passes)
    count_calls(monkeypatch, verify, "check_projections", passes)
    argv = ["generate", "--method", "c3-case2", "--s", "3", "--u", "4", "--seed", "1", "-o", str(tmp_path / "g.json")]
    assert cli.main(argv) == 0
    assert passes == ["check_coupling"]


@st.composite
def latin_hypercubes_and_row_blocks(draw):
    """A random n x p Latin hypercube, C-ordered like every library d2, and
    block budgets giving one row per block, a row count dividing neither n
    (CL2 runs over n rows) nor n - 1 (maximin over n - 1), and one block
    (more than n^2 p entries)."""
    n, p = draw(st.integers(2, 70)), draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lh = np.array([rng.permutation(n) for _ in range(p)], dtype=int).reshape(p, n).T.copy()
    rows = draw(st.integers(2, n + 1).filter(lambda r: n % r and (n - 1) % r))
    cl2_blocks = (1, rows * n, n * n * max(p, 1) + 1)
    maximin_blocks = (1, rows * n * max(p, 1), n * n * max(p, 1) + 1)
    return lh, cl2_blocks, maximin_blocks


@settings(max_examples=120, deadline=None)
@given(latin_hypercubes_and_row_blocks())
def test_blocked_criteria_equal_tensor_oracles_exactly(case):
    lh, cl2_blocks, maximin_blocks = case
    cl2, maximin = oracles.centered_l2_discrepancy(lh), oracles.maximin_distance(lh)
    with pytest.MonkeyPatch.context() as mp:
        for block in cl2_blocks:
            mp.setattr(criteria, "BLOCK_ENTRIES", block)
            assert criteria.centered_l2_discrepancy(lh) == cl2
        for block in maximin_blocks:
            mp.setattr(criteria, "BLOCK_ENTRIES", block)
            assert criteria.maximin_distance(lh) == maximin
    # the blocked kernels lay out their own scratch, so the input's memory
    # order cannot change the rounding (the maximin oracle's can, for p >= 8)
    assert criteria.centered_l2_discrepancy(np.asfortranarray(lh)) == cl2
    assert criteria.maximin_distance(np.asfortranarray(lh)) == maximin


@pytest.mark.parametrize("n, p", [(40, 200), (125, 5), (200, 50)])
def test_blocked_criteria_equal_tensor_oracles_at_default_block(n, p):
    """Wide rows (p above numpy's 8-way and 128-entry pairwise-sum steps),
    search-swap's n=125, p=5 and several rows per block, with the module's
    block budget."""
    rng = np.random.default_rng(n * p)
    lh = np.column_stack([rng.permutation(n) for _ in range(p)])
    assert criteria.centered_l2_discrepancy(lh) == oracles.centered_l2_discrepancy(lh)
    assert criteria.maximin_distance(lh) == oracles.maximin_distance(lh)

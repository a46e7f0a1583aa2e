import itertools

import numpy as np
import pytest

from dcdesign.arrays import OrthogonalArray, is_orthogonal_array, level_collapse, make_oa
from dcdesign.construct import (
    DesignFamily,
    build_design,
    check_feasible,
    regular_inputs,
    sample_family_plan,
    split_strength3_inputs,
)
from dcdesign.design import PermutationPlan
from dcdesign.errors import (
    CellNotPermutation,
    DimensionMismatch,
    InfeasibleParameters,
    LevelOutOfRange,
    NotStrength3,
    PreconditionFailed,
    UTooSmall,
)
from dcdesign.gf import GaloisField
from dcdesign.oabuild import bush_oa
from dcdesign.rng import derive_seed
from dcdesign.verify import check_projections, croa_partition

import refdesigns as ref


def reference_stacked_plan():
    v = [np.array(x) for x in ref.V_27RUN_STACKED]
    w = [[np.array(p) for p in row] for row in ref.W_27RUN_STACKED]
    return PermutationPlan(seed=0, v=v, w=w)


def reference_replicated_plan():
    cells = np.empty((9, 3, 3), dtype=int)
    for i in range(9):
        for k in range(3):
            cells[i, k] = ref.B_27RUN_REPLICATED[i + 9 * np.arange(3), k]
    w = [np.array(p) for p in ref.W_27RUN_REPLICATED]
    return PermutationPlan(seed=0, b_cells=cells, w=w)


def stacked_arrays():
    return [make_oa(a, 3, 2) for a in (ref.A1_9RUN, ref.A2_9RUN, ref.A3_9RUN)]


def stacked_family(p=3):
    """The 27-run reference family: the three 9-run arrays, stacked."""
    return DesignFamily(method="c1", s=3, q=3, p=p, lam=3, arrays=stacked_arrays())


def replicated_family(lam=3, p=3):
    """Copies of the first 9-run reference array, replicated."""
    return DesignFamily(method="c2", s=3, q=3, p=p, lam=lam, arrays=[make_oa(ref.A1_9RUN, 3, 2)])


def test_stacked_reproduces_reference_certificate():
    design = build_design(stacked_family(), plan=reference_stacked_plan())
    assert np.array_equal(design.witness.b, ref.B_27RUN_STACKED)
    assert np.array_equal(design.witness.c, ref.C_27RUN_STACKED)
    assert np.array_equal(level_collapse(design.d2, 3), ref.D2_27RUN_STACKED // 3)


def test_stacked_single_copy_degenerates_to_level_pattern():
    a = make_oa(ref.A1_9RUN, 3, 2)
    plan = PermutationPlan(seed=0, v=[np.zeros(1, dtype=int)], w=[[np.arange(3)]])
    design = build_design(DesignFamily(method="c1", s=3, q=3, p=1, arrays=[a]), plan=plan)
    assert np.array_equal(level_collapse(design.d2, 3)[:, 0], np.repeat([0, 1, 2], 3))


def test_stacked_random_plans_all_verify():
    base = bush_oa(GaloisField(2), 2)
    for seed in range(50):
        design = build_design(DesignFamily(method="c1", s=2, q=2, p=4, lam=2, arrays=[base, base]), seed)
        assert check_projections(design).passed
        assert np.array_equal(design.d2 // 2, 2 * design.witness.b + design.witness.c)


def test_stacked_rejects_mismatched_arrays():
    a2 = bush_oa(GaloisField(2), 2)
    a3 = bush_oa(GaloisField(3), 2)
    a3 = OrthogonalArray(a3.matrix[:, [0, 1, 3]], (3, 3, 3), 2)  # q+1 columns, block column last
    with pytest.raises(DimensionMismatch):
        build_design(DesignFamily(method="c1", s=2, q=2, p=1, lam=2, arrays=[a2, a3]))


def test_stacked_normalizes_row_order_with_warning():
    a = make_oa(ref.A1_9RUN[::-1], 3, 2)
    with pytest.warns(UserWarning):
        design = build_design(DesignFamily(method="c1", s=3, q=3, p=2, arrays=[a]), 5)
    assert check_projections(design).passed


@pytest.mark.parametrize("method", ["c1", "c2"])
def test_block_form_warning_points_at_the_caller(method):
    from dcdesign.criteria import optimize_d2

    family = DesignFamily(method=method, s=3, q=3, p=2, lam=2 if method == "c2" else 1, arrays=[make_oa(ref.A1_9RUN[::-1], 3, 2)])
    for run in (lambda: build_design(family, 5), lambda: optimize_d2(family, restarts=1)):
        with pytest.warns(UserWarning, match="block form") as record:
            run()
        assert [w.filename for w in record] == [__file__]


def test_replicated_reproduces_reference_certificate():
    design = build_design(replicated_family(), plan=reference_replicated_plan())
    assert np.array_equal(design.witness.b, ref.B_27RUN_REPLICATED)
    assert np.array_equal(design.witness.c, ref.C_27RUN_REPLICATED)
    assert np.array_equal(level_collapse(design.d2, 3), ref.D2_27RUN_REPLICATED // 3)


def test_replicated_cells_must_be_permutations():
    plan = reference_replicated_plan()
    plan.b_cells[4, 1] = np.array([0, 0, 2])
    with pytest.raises(CellNotPermutation):
        build_design(replicated_family(), plan=plan)


def test_replicated_single_copy_has_zero_certificate():
    design = build_design(replicated_family(lam=1, p=2), 3)
    assert np.array_equal(design.witness.b, np.zeros((9, 2), dtype=int))
    assert check_projections(design).passed


def test_replicated_random_plans_all_verify():
    for seed in range(50):
        design = build_design(replicated_family(lam=2), seed)
        assert check_projections(design).passed
        assert np.array_equal(design.d2 // 3, 3 * design.witness.b + design.witness.c)


def test_selected_reference_inputs_reproduce_8run_design():
    plan = PermutationPlan(seed=1, c_perms=[np.arange(2)] * 4)
    design = build_design(DesignFamily(method="c3-case2", s=2, q=2, p=4, u=3), plan=plan)
    assert np.array_equal(design.d1, ref.D1_8RUN)
    assert np.array_equal(level_collapse(design.d2, 2), ref.D2_8RUN_ONCE)


def test_selected_empty_quantitative_part():
    a, b = regular_inputs(GaloisField(2), 3)
    empty = OrthogonalArray(np.empty((8, 0), dtype=int), (), 1)
    family = DesignFamily(method="c3-custom", s=2, q=2, p=0, a=a, b=empty, select=(1, 2))
    design = build_design(family, plan=PermutationPlan(seed=0, c_perms=[]))
    assert design.p == 0
    assert check_projections(design).passed


def test_selected_every_level_permutation_verifies():
    for perm in itertools.permutations(range(2)):
        plan = PermutationPlan(seed=0, c_perms=[np.array(perm)] * 4)
        design = build_design(DesignFamily(method="c3-case2", s=2, q=2, p=4, u=3), plan=plan)
        assert check_projections(design).passed


def test_selected_rejects_unbalanced_companion():
    a, _ = regular_inputs(GaloisField(2), 3)
    bad = OrthogonalArray(a.matrix[:, [0]], (2,), 1)  # reusing a pool column breaks the triples
    with pytest.raises(PreconditionFailed):
        build_design(DesignFamily(method="c3-custom", s=2, q=2, p=1, a=a, b=bad), plan=PermutationPlan(seed=0, c_perms=[np.arange(2)]))


def test_selected_inputs_refuse_a_bad_pool_without_quantitative_columns_and_zero_rows():
    a, _ = regular_inputs(GaloisField(2), 3)
    pool = a.matrix.copy()
    pool[0, 0] = 2
    no_columns = PermutationPlan(seed=0, c_perms=np.zeros((0, 2), dtype=int))
    with pytest.raises(LevelOutOfRange):
        family = DesignFamily(method="c3-custom", s=2, q=2, p=0, a=OrthogonalArray(pool, a.levels, 2), b=OrthogonalArray(np.zeros((8, 0), dtype=int), (), 1))
        build_design(family, plan=no_columns)
    empty = OrthogonalArray(np.zeros((0, 3), dtype=int), (2, 2, 2), 2)
    with pytest.raises(DimensionMismatch):
        build_design(DesignFamily(method="c3-custom", s=2, q=2, p=0, a=empty, b=OrthogonalArray(np.zeros((0, 0), dtype=int), (), 1)), plan=no_columns)


def test_split_inputs_default_and_exhaustive():
    g = bush_oa(GaloisField(3), 3)
    a, b = split_strength3_inputs(g, 1)
    assert a.n_cols == 2 and b.n_cols == 2
    for cols in itertools.combinations(range(4), 2):
        rest = [c for c in range(4) if c not in cols]
        a = OrthogonalArray(g.matrix[:, list(cols)], (3, 3), 2)
        b = OrthogonalArray(g.matrix[:, rest], (3, 3), 1)
        design = build_design(DesignFamily(method="c3-custom", s=3, q=1, p=2, a=a, b=b, select=(0,)), 11)
        assert check_projections(design).passed
        # qualitative part keeps strength min(q, 3); the twice-collapsed
        # part has full pairwise balance (p = 2)
        assert is_orthogonal_array(design.d1, 3, min(design.q, 3))
        assert is_orthogonal_array(design.d2 // 9, 3, 2)


def test_split_requires_strength_three():
    weak = bush_oa(GaloisField(3), 2)
    padded = OrthogonalArray(np.vstack([weak.matrix] * 3), weak.levels, 3)
    with pytest.raises(NotStrength3):
        split_strength3_inputs(padded, 1)


def test_regular_inputs_match_reference_matrices():
    a, b = regular_inputs(GaloisField(2), 3)
    assert np.array_equal(a.matrix, ref.A_8RUN_POOL)
    assert np.array_equal(b.matrix, ref.B_8RUN_COMPANION)


def test_regular_inputs_group_full_factorial_checks():
    # the weighted group columns encode two base-2 digit columns each; any
    # two pool columns plus the digit columns of one group form a full
    # factorial, and two digit columns from different groups stay balanced
    u = 4
    a, b = regular_inputs(GaloisField(2), u)
    assert b.n_cols == (u - 2) * 4 and set(b.levels) == {4}
    digits = {}
    for g in range(4):
        col = b.matrix[:, g * (u - 2)]
        digits[g] = (col // 2, col % 2)
        assert np.array_equal(b.matrix[:, g * (u - 2) + 1], digits[g][0] + 2 * digits[g][1])
    for i, j in itertools.combinations(range(a.n_cols), 2):
        for g in range(4):
            stack = np.column_stack([a.matrix[:, i], a.matrix[:, j], *digits[g]])
            assert is_orthogonal_array(stack, 2, 4)
    for g, l in itertools.permutations(range(4), 2):
        for extra in digits[l]:
            stack = np.column_stack([*digits[g], extra])
            assert is_orthogonal_array(stack, 2, 3)


def test_regular_inputs_rejects_small_u():
    with pytest.raises(UTooSmall):
        regular_inputs(GaloisField(2), 2)


def test_regular_inputs_three_level_companion_pairwise_balance():
    # u=3: the companion equals its single raw group, and any two of its
    # columns are linearly independent, hence pairwise balanced
    _, b = regular_inputs(GaloisField(3), 3)
    assert b.n_cols == 9
    for i, j in itertools.combinations(range(9), 2):
        assert is_orthogonal_array(b.matrix[:, [i, j]], 3, 2)


def test_regular_inputs_reach_bound_for_three_levels():
    design = build_design(DesignFamily(method="c3-case2", s=3, q=3, p=9, u=3), 2)
    assert design.q == 3 and design.p == 9
    assert check_projections(design).passed
    assert croa_partition(design.d1, 3)


def test_built_in_c3_inputs_meet_the_triple_precondition():
    """The runtime checks the triple precondition only for a user's pool
    and companion; the paper proves it for both built-in generators.  Held
    here for every prime power s and u >= 3 with s^u <= 1024, the
    benchmark's (8, 4), and every split of the built-in strength-3 arrays,
    agreeing with the loop oracle where n <= 125."""
    from dcdesign import construct

    import oracles

    cases = [regular_inputs(GaloisField(s), u) for s in (2, 3, 4, 5, 7, 8, 9) for u in range(3, 11) if s**u <= 1024]
    cases.append(regular_inputs(GaloisField(8), 4))
    for s in (3, 4, 5, 7, 8, 9):
        cases += [split_strength3_inputs(bush_oa(GaloisField(s), 3), q) for q in range(1, s + 1)]
    assert len(cases) == 20 + 1 + 36
    for a, b in cases:
        construct._check_triples(a, b)
        if a.n_rows <= 125:
            oracles.selection_precondition(a, b)


def test_feasibility_bound_cited():
    family = DesignFamily(method="c3-case2", s=3, q=4, p=9)
    with pytest.raises(InfeasibleParameters, match="q <= s"):
        check_feasible(family)


@pytest.mark.parametrize("s,q,lam", [(2, 2, 2), (3, 2, 3), (4, 3, 2), (5, 4, 2)])
def test_any_bush_column_subset_feeds_replicated_construction(s, q, lam):
    # q+1 saturated-array columns (block column kept last) always make a
    # valid replicated input
    base = bush_oa(GaloisField(s), 2)
    cols = list(range(q)) + [s]
    a = OrthogonalArray(base.matrix[:, cols], (s,) * (q + 1), 2)
    design = build_design(DesignFamily(method="c2", s=s, q=q, p=2, lam=lam, arrays=[a]), 13)
    assert check_projections(design).passed
    assert croa_partition(design.d1, s)


def test_build_design_deterministic():
    family = DesignFamily(method="c1", s=3, q=3, p=3, lam=2)
    d1 = build_design(family, seed=12)
    d2 = build_design(family, seed=12)
    assert np.array_equal(d1.d2, d2.d2)
    assert derive_seed(12, 0) == derive_seed(12, 0)
    assert derive_seed(12, 0) != derive_seed(12, 1)


def loop_stacked_certificate(plan, s, lam, p):
    """Column-by-column assembly of (b, c) for the stacked route, as the
    definition reads: b repeats v[k] s^2 times per slice, c stacks w[k][j]
    with each level repeated s times."""
    b = np.column_stack([np.repeat(plan.v[k], s * s) for k in range(p)])
    c = np.column_stack([np.concatenate([np.repeat(plan.w[k][j], s) for j in range(lam)]) for k in range(p)])
    return b, c


def loop_replicated_certificate(plan, s, lam, p):
    b = np.empty((lam * s * s, p), dtype=int)
    for j in range(lam):
        for i in range(s * s):
            for k in range(p):
                b[j * s * s + i, k] = plan.b_cells[i, k, j]
    c = np.column_stack([np.tile(np.repeat(plan.w[k], s), lam) for k in range(p)])
    return b, c


@pytest.mark.parametrize("seed", range(5))
def test_vectorized_certificates_match_loop_assembly(seed):
    base = bush_oa(GaloisField(3), 2)
    design = build_design(DesignFamily(method="c1", s=3, q=3, p=3, lam=2, arrays=[base] * 2), seed)
    b, c = loop_stacked_certificate(design.witness.plan, 3, 2, 3)
    assert np.array_equal(design.witness.b, b) and np.array_equal(design.witness.c, c)
    design = build_design(DesignFamily(method="c2", s=3, q=3, p=3, lam=4, arrays=[base]), seed)
    b, c = loop_replicated_certificate(design.witness.plan, 3, 4, 3)
    assert np.array_equal(design.witness.b, b) and np.array_equal(design.witness.c, c)
    a, comp = regular_inputs(GaloisField(3), 3)
    design = build_design(DesignFamily(method="c3-case2", s=3, q=3, p=9, u=3), seed)
    astar = a.matrix[:, 0]
    c = np.column_stack([design.witness.plan.c_perms[k][astar] for k in range(comp.n_cols)])
    assert np.array_equal(design.witness.c, c)


def test_sampled_plans_are_regular_arrays():
    stacked = sample_family_plan(DesignFamily(method="c1", s=3, q=3, p=4, lam=2), 1)
    assert stacked.v.shape == (4, 2) and stacked.w.shape == (4, 2, 3)
    replicated = sample_family_plan(DesignFamily(method="c2", s=3, q=3, p=4, lam=2), 1)
    assert replicated.b_cells.shape == (9, 4, 2) and replicated.w.shape == (4, 3)
    assert sample_family_plan(DesignFamily(method="c3-case2", s=3, q=3, p=4), 1).c_perms.shape == (4, 3)
    empty = sample_family_plan(DesignFamily(method="c3-case2", s=3, q=3, p=0), 1)
    assert empty.c_perms.shape == (0, 3)


def test_plan_fields_are_coerced_and_ragged_input_rejected():
    plan = PermutationPlan(seed=0, v=[[0, 1], [1, 0]], w=[[[0, 1], [1, 0]], [[1, 0], [0, 1]]])
    assert isinstance(plan.v, np.ndarray) and plan.w.shape == (2, 2, 2)
    assert list(plan.fields()) == ["v", "w"]
    with pytest.raises(DimensionMismatch):
        PermutationPlan(seed=0, c_perms=[[0, 1], [0]])


def test_plan_of_wrong_shape_is_rejected():
    plan = sample_family_plan(replicated_family(p=2), 0)
    with pytest.raises(DimensionMismatch):
        build_design(replicated_family(), plan=plan)
    with pytest.raises(DimensionMismatch):
        build_design(stacked_family(), plan=PermutationPlan(seed=0, v=[[0, 1, 2]] * 3))


def test_family_path_matches_direct_constructor():
    """A seed's design is rebuilt from its plan, and from the same inputs
    given explicitly on the custom route."""
    family = DesignFamily(method="c3-case2", s=3, q=3, p=9, u=3)
    design = build_design(family, seed=5)
    assert np.array_equal(design.d2, build_design(family, seed=0, plan=design.witness.plan).d2)
    a, b = regular_inputs(GaloisField(3), 3)
    direct = build_design(DesignFamily(method="c3-custom", s=3, q=3, p=9, a=a, b=b, select=(1, 2, 3)), plan=design.witness.plan)
    assert np.array_equal(design.d2, direct.d2)


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_inputs_resolved_once_per_search(monkeypatch):
    from dcdesign import construct
    from dcdesign.criteria import optimize_d2

    fields = count_calls(monkeypatch, construct, "GaloisField")
    selections = count_calls(monkeypatch, construct, "_selection_inputs")
    checks = count_calls(monkeypatch, construct, "_balanced")
    optimize_d2(DesignFamily(method="c3-case2", s=2, q=2, p=4, u=3), restarts=3, seed=1, swap_steps=4)
    assert len(fields) == len(selections) == 1
    assert not checks  # built-in inputs meet the triple precondition by theorem: no precondition pass


def test_shuffled_split_is_drawn_per_seed(monkeypatch):
    from dcdesign import construct
    from dcdesign.criteria import optimize_d2

    splits = count_calls(monkeypatch, construct, "split_strength3_inputs")
    selections = count_calls(monkeypatch, construct, "_selection_inputs")
    checks = count_calls(monkeypatch, construct, "_balanced")
    fields = count_calls(monkeypatch, construct, "GaloisField")
    family = DesignFamily(method="c3-case1", s=5, q=2, p=3, shuffle_split=True)
    best, _ = optimize_d2(family, restarts=3, seed=2, swap_steps=2)
    assert len(fields) == 1
    # one split and one validation per restart: its swap candidates keep its
    # seed; a split of a strength-3 array needs no precondition pass
    assert len(splits) == len(selections) == 3
    assert not checks
    assert check_projections(best).passed

import numpy as np
import pytest

from dcdesign.arrays import level_expand, make_oa
from dcdesign.construct import DesignFamily, build_design, regular_inputs
from dcdesign.design import CoupledDesign, PermutationPlan
from dcdesign.errors import OmegaExceedsQ, RunSizeNotDivisible
from dcdesign.gf import GaloisField
from dcdesign.verify import (
    check_coupling,
    check_projections,
    croa_partition,
    full_report,
    max_qualitative_factors,
    stratification_report,
)

import oracles
import refdesigns as ref
from oracles import grid_stratification


@pytest.fixture
def single_only(design_8run):
    return CoupledDesign(d1=ref.D1_8RUN.copy(), d2=ref.D2_8RUN_SINGLE_ONLY.copy(), s=2)


@pytest.fixture
def pair_only():
    return CoupledDesign(d1=ref.D1_8RUN.copy(), d2=ref.D2_8RUN_PAIR_ONLY.copy(), s=2)


def test_reference_design_couples_at_order_two(design_8run):
    report = check_coupling(design_8run, 2)
    assert report.passed
    assert report.condition_a and report.condition_b


def test_order_zero_only_checks_latin_hypercube(design_8run):
    assert check_coupling(design_8run, 0).passed
    broken = CoupledDesign(d1=design_8run.d1, d2=design_8run.d2.copy(), s=2)
    broken.d2[0, 0] = broken.d2[1, 0]
    assert not check_coupling(broken, 0).passed


def test_omega_bounds(design_8run):
    with pytest.raises(OmegaExceedsQ):
        check_coupling(design_8run, 3)
    with pytest.raises(ValueError):
        check_coupling(design_8run, -1)
    skinny = CoupledDesign(
        d1=np.array([[0, 0], [1, 1], [0, 1], [1, 0], [0, 0], [1, 1]]),
        d2=np.arange(6).reshape(-1, 1),
        s=2,
    )
    with pytest.raises(RunSizeNotDivisible):
        check_coupling(skinny, 2)


def test_counterexample_split_verdicts(single_only, pair_only):
    ra = check_projections(single_only)
    assert ra.condition_a and not ra.condition_b
    assert ra.condition_b_failures
    rb = check_projections(pair_only)
    assert rb.condition_b and not rb.condition_a
    assert rb.condition_a_failures


def test_three_routes_agree_on_counterexamples(single_only, pair_only):
    for design in (single_only, pair_only):
        verdicts = {
            check_coupling(design, 2).passed,
            check_projections(design).passed,
            full_report(design, 2).witness_check,
        }
        assert verdicts == {False}


def test_non_coupled_expansion_fails_with_named_cell():
    # first column is balanced but repeats values within a level slice
    bad_once = np.column_stack([[0, 1, 0, 1, 2, 3, 2, 3], np.repeat([3, 2, 1, 0], 2)])
    design = CoupledDesign(d1=ref.D1_8RUN.copy(), d2=level_expand(bad_once, 4), s=2)
    report = check_coupling(design, 2)
    assert not report.passed
    assert report.condition_a_failures or report.condition_b_failures
    other = check_projections(design)
    assert report.passed == other.passed
    assert set(report.condition_a_failures) == set(other.condition_a_failures)


def test_croa_partition_on_references(design_27run_stacked):
    assert croa_partition(ref.D1_8RUN, 2)
    assert croa_partition(design_27run_stacked.d1, 3)
    swapped = ref.D1_8RUN.copy()
    swapped[[1, 4]] = swapped[[4, 1]]
    assert not croa_partition(swapped, 2)


def test_witness_recovers_reference_certificate(design_8run):
    b, c, _ = oracles.witness_decomposition(design_8run)
    assert full_report(design_8run, 2).witness_check
    assert np.array_equal(b, ref.D2_8RUN_TWICE)
    assert np.array_equal(b, ref.B_8RUN_COMPANION[:, [0, 1, 2, 3]])
    # every certificate column repeats the leftover pool column
    astar = ref.A_8RUN_POOL[:, 0]
    assert np.array_equal(c, np.column_stack([astar] * 4))


def test_witness_recovers_stacked_certificate(design_27run_stacked):
    b, c, _ = oracles.witness_decomposition(design_27run_stacked)
    assert full_report(design_27run_stacked, 2).witness_check
    assert np.array_equal(b, ref.B_27RUN_STACKED)
    assert np.array_equal(c, ref.C_27RUN_STACKED)


def test_witness_reports_offending_triple(single_only):
    report = full_report(single_only, 2)
    assert not report.witness_check
    assert report.condition_b_failures


def test_qualitative_factor_bound():
    assert max_qualitative_factors(2) == 2
    assert max_qualitative_factors(3) == 3
    assert max_qualitative_factors(5) == 5


def test_bound_attained_for_five_levels():
    design = build_design(DesignFamily(method="c3-case2", s=5, q=5, p=25, u=3), 1)
    assert design.q == 5
    assert check_projections(design).passed


def test_stratification_reference_pairs_all_two_by_two(design_8run):
    report = stratification_report(design_8run)
    two_by_two = [c for c in report.stratification if (c.grid_x, c.grid_y) == (2, 2)]
    assert len(two_by_two) >= 6
    assert all(c.passed for c in two_by_two)


def test_stratification_single_column_is_empty():
    a, b = regular_inputs(GaloisField(2), 3)
    plan = PermutationPlan(seed=0, c_perms=[np.arange(2)])
    single = build_design(DesignFamily(method="c3-custom", s=2, q=2, p=1, a=a, b=make_oa(b.matrix[:, :1], 2, 1)), plan=plan)
    assert stratification_report(single).stratification == []


def test_same_and_cross_group_grids_for_u4():
    design = build_design(DesignFamily(method="c3-case2", s=3, q=3, p=18, u=4), 4)
    twice = design.d2 // 9
    blocks = 4 - 2
    for i in range(design.p):
        for j in range(i + 1, design.p):
            same = i // blocks == j // blocks
            if same:
                assert grid_stratification(twice[:, i], twice[:, j], 9, 9, 3, 3)
            else:
                assert grid_stratification(twice[:, i], twice[:, j], 9, 9, 9, 3)
                assert grid_stratification(twice[:, i], twice[:, j], 9, 9, 3, 9)


def test_order_three_coupling_via_strength_three_part(design_27run_stacked):
    # the stacked qualitative part has strength 3, so the single-row slices
    # of any three factors make the identity column couple at order 3
    design = CoupledDesign(d1=design_27run_stacked.d1, d2=np.arange(27).reshape(-1, 1), s=3)
    report = check_coupling(design, 3)
    assert report.passed
    assert report.omega_checked == 3


def test_order_three_failures_are_recorded():
    # three copies of one array give only strength 2: triple slices collide
    d1 = np.vstack([ref.A1_9RUN[:, :3]] * 3)
    design = CoupledDesign(d1=d1, d2=ref.D2_27RUN_REPLICATED.copy(), s=3)
    assert check_coupling(design, 2).passed
    report = check_coupling(design, 3)
    assert not report.passed
    assert report.higher_order_failures
    assert all(len(cols) == 3 for cols, _ in report.higher_order_failures)


def test_monotone_order_and_mcd(design_8run, design_27run_stacked):
    for design in (design_8run, design_27run_stacked):
        assert check_coupling(design, 2).passed
        assert check_coupling(design, 1).passed


def test_combined_projection_assertions(design_8run, design_27run_stacked):
    # the per-column conditions imply balance of the whole qualitative part
    # joined with each collapsed column, at both collapse depths
    for design in (design_8run, design_27run_stacked):
        n, s, q = design.n, design.s, design.q
        once = design.d2 // s
        twice = design.d2 // s**2
        for k in range(design.p):
            joined = np.column_stack([design.d1, once[:, k]])
            assert make_oa(joined, (s,) * q + (n // s,), 2)
            joined = np.column_stack([design.d1, twice[:, k]])
            assert make_oa(joined, (s,) * q + (n // s**2,), 2)


def test_marginal_only_design_passes_at_order_one(single_only):
    assert full_report(single_only, omega=1).passed
    assert not full_report(single_only, omega=2).passed


def test_full_report_merges_everything(design_8run):
    report = full_report(design_8run, omega=2)
    assert report.passed
    assert report.croa_partition is True
    assert report.witness_check is True
    assert report.stratification


def test_routes_agree_when_expansion_is_degenerate(design_8run):
    # doubling the collapsed values keeps every balance condition but the
    # result is no longer a hypercube; all three routes must still agree
    degenerate = CoupledDesign(d1=ref.D1_8RUN.copy(), d2=2 * ref.D2_8RUN_ONCE, s=2)
    a = check_coupling(degenerate, 2)
    b = check_projections(degenerate)
    c = full_report(degenerate, 2)
    assert a.passed == b.passed == c.witness_check == False  # noqa: E712
    assert a.d2_is_lh is False and b.d2_is_lh is False
    assert b.condition_a and b.condition_b


def test_routes_agree_on_random_mutations(design_8run):
    rng = np.random.default_rng(7)
    for _ in range(25):
        design = CoupledDesign(d1=ref.D1_8RUN.copy(), d2=ref.D2_8RUN.copy(), s=2)
        k = rng.integers(4)
        i, j = rng.choice(8, size=2, replace=False)
        design.d2[[i, j], k] = design.d2[[j, i], k]
        a = check_coupling(design, 2).passed
        b = check_projections(design).passed
        c = full_report(design, 2).witness_check
        assert a == b == c

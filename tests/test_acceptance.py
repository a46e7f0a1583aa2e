"""Acceptance suite.

Each test exercises one release criterion end to end and prints a PASS line
on success (run with `pytest tests/test_acceptance.py -v -s` to see them).
All equality assertions on reference designs are exact; the only tolerances
are the documented criterion tie tolerance and float comparisons at 1e-9.
"""

import itertools

import numpy as np
import pytest

from dcdesign.arrays import (
    is_orthogonal_array,
    level_collapse,
)
from dcdesign.cli import main
from dcdesign.construct import (
    DesignFamily,
    build_design,
    regular_inputs,
)
from dcdesign.design import CoupledDesign, PermutationPlan
from dcdesign.gf import GaloisField
from dcdesign.oabuild import bush_oa, full_factorial
from dcdesign.verify import (
    check_coupling,
    check_projections,
    croa_partition,
    full_report,
    stratification_report,
)

import refdesigns as ref
from conftest import naive_oa_check
from oracles import grid_stratification
from test_construct import reference_replicated_plan, reference_stacked_plan, replicated_family, stacked_family
from test_gf import axioms_hold


def _pass(message):
    print(f"[PASS] {message}")


def test_8run_reference_design_verifies_and_collapses_exactly(design_8run):
    report = full_report(design_8run, omega=2)
    assert report.passed
    assert np.array_equal(level_collapse(design_8run.d2, 2), ref.D2_8RUN_ONCE)
    assert np.array_equal(level_collapse(ref.D2_8RUN_ONCE, 2), ref.D2_8RUN_TWICE)
    _pass("8-run reference design couples at order 2; collapsed forms match the reference tables entrywise")


def test_counterexamples_split_the_two_conditions():
    single = CoupledDesign(d1=ref.D1_8RUN.copy(), d2=ref.D2_8RUN_SINGLE_ONLY.copy(), s=2)
    pair = CoupledDesign(d1=ref.D1_8RUN.copy(), d2=ref.D2_8RUN_PAIR_ONLY.copy(), s=2)
    ra = check_projections(single)
    assert ra.condition_a is True and ra.condition_b is False
    rb = check_projections(pair)
    assert rb.condition_b is True and rb.condition_a is False
    _pass("counterexample designs satisfy exactly one balance condition each, as expected")


def test_stacked_construction_reproduces_27run_reference():
    design = build_design(stacked_family(), plan=reference_stacked_plan())
    assert np.array_equal(design.witness.b, ref.B_27RUN_STACKED)
    assert np.array_equal(design.witness.c, ref.C_27RUN_STACKED)
    assert np.array_equal(3 * design.witness.b + design.witness.c, ref.D2_27RUN_STACKED // 3)
    assert check_coupling(design, 2).passed
    assert is_orthogonal_array(design.d1, 3, 3)
    _pass("stacked construction reproduces the 27-run reference certificate; d1 reaches strength 3")


def test_replicated_construction_reproduces_27run_reference():
    design = build_design(replicated_family(), plan=reference_replicated_plan())
    assert np.array_equal(design.witness.b, ref.B_27RUN_REPLICATED)
    assert np.array_equal(3 * design.witness.b + design.witness.c, ref.D2_27RUN_REPLICATED // 3)
    cells = reference_replicated_plan().b_cells
    assert all(
        sorted(cells[i, k]) == [0, 1, 2] for i in range(9) for k in range(3)
    )
    assert check_coupling(design, 2).passed
    _pass("replicated construction reproduces the 27-run reference certificate; cell permutations check out")


def test_regular_8run_inputs_and_design_match_reference():
    a, b = regular_inputs(GaloisField(2), 3)
    assert np.array_equal(a.matrix, ref.A_8RUN_POOL)
    assert np.array_equal(b.matrix, ref.B_8RUN_COMPANION)
    plan = PermutationPlan(seed=0, c_perms=[np.arange(2)] * 4)
    design = build_design(DesignFamily(method="c3-case2", s=2, q=2, p=4, u=3), plan=plan)
    assert np.array_equal((design.d2 // 2)[:, 0], [0, 0, 3, 3, 2, 2, 1, 1])
    report = stratification_report(design)
    two_by_two = [c for c in report.stratification if (c.grid_x, c.grid_y) == (2, 2)]
    pairs = {(c.col_i, c.col_j) for c in two_by_two}
    assert pairs == set(itertools.combinations(range(4), 2))
    assert all(c.passed for c in two_by_two)
    _pass("linear-column inputs match the printed 8-run pool and companion; 2x2 grids hold for all pairs")


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_qualitative_factor_bound_enforced(s, tmp_path):
    ok = tmp_path / f"ok{s}.json"
    code = main(["generate", "--method", "c3-case2", "--s", str(s), "--u", "3", "--q", str(s), "--seed", "1", "-o", str(ok)])
    assert code == 0
    code = main(["generate", "--method", "c3-case2", "--s", str(s), "--u", "3", "--q", str(s + 1), "--seed", "1", "-o", str(tmp_path / "no.json")])
    assert code == 3
    _pass(f"s={s}: q=s generates and verifies, q=s+1 is rejected with exit code 3")


def _randomized_corpus():
    designs = []
    counter = itertools.count(1000)
    for s in (2, 3, 4):
        for lam in (1, 2, 3):
            for q in range(2, s + 1):
                for _ in range(2 if s < 4 else 1):
                    seed = next(counter)
                    designs.append(build_design(DesignFamily(method="c1", s=s, q=q, p=3, lam=lam), seed))
                    designs.append(build_design(DesignFamily(method="c2", s=s, q=q, p=3, lam=lam), seed))
    for s in (3, 4):
        for q in range(2, s):
            for _ in range(6):
                seed = next(counter)
                p = (s + 1) - q - 1
                designs.append(build_design(DesignFamily(method="c3-case1", s=s, q=q, p=p), seed))
    for s, u in itertools.product((2, 3, 4), (3, 4)):
        for q in (2, s):
            for _ in range(4):
                seed = next(counter)
                p = min((u - 2) * s * s, 4)
                designs.append(build_design(DesignFamily(method="c3-case2", s=s, q=q, p=p, u=u), seed))
    return designs


def test_verification_routes_agree_on_randomized_designs():
    designs = _randomized_corpus()
    while len(designs) < 200:
        seed = 9000 + len(designs)
        designs.append(build_design(DesignFamily(method="c1", s=3, q=3, p=3, lam=2), seed))
    designs = designs[:200]
    assert len(designs) == 200
    for design in designs:
        a = check_coupling(design, 2).passed
        b = check_projections(design).passed
        c = full_report(design, 2).witness_check
        assert a == b == c == True  # noqa: E712
        assert croa_partition(design.d1, design.s)
    _pass("200 randomized designs: all three verification routes agree and every d1 partitions into resolvable blocks")


def _exhaustive_matrices(n, m, s):
    for values in itertools.product(range(s), repeat=n * m):
        yield np.array(values, dtype=int).reshape(n, m)


def test_orthogonal_array_check_matches_naive_counter():
    checked = 0
    for n, m, s in ((4, 2, 2), (4, 3, 2), (2, 4, 2), (6, 2, 2), (8, 2, 2), (3, 2, 3)):
        for mat in _exhaustive_matrices(n, m, s):
            for t in range(1, min(m, 3) + 1):
                assert is_orthogonal_array(mat, s, t) == naive_oa_check(mat, s, t)
                checked += 1
    structured = [
        (full_factorial(2, 4).matrix, 2),
        (full_factorial(3, 2).matrix, 3),
        (bush_oa(GaloisField(2), 2).matrix, 2),
        (bush_oa(GaloisField(3), 2).matrix, 3),
    ]
    for mat, s in structured:
        for t in range(1, min(mat.shape[1], 3) + 1):
            assert is_orthogonal_array(mat, s, t) == naive_oa_check(mat, s, t)
            mutated = mat.copy()
            mutated[0, 0] = (mutated[0, 0] + 1) % s
            assert is_orthogonal_array(mutated, s, t) == naive_oa_check(mutated, s, t)
            checked += 2
    rng = np.random.default_rng(77)
    base27 = np.vstack([bush_oa(GaloisField(3), 2).matrix] * 3)
    for i in range(500):
        if i % 16 == 0:
            mat, s = base27[rng.permutation(27)], 3
        else:
            n = int(rng.integers(17, 33))
            m = int(rng.integers(2, 6))
            s = int(rng.integers(2, 5))
            mat = rng.integers(0, s, size=(n, m))
        t = int(rng.integers(1, min(mat.shape[1], 3) + 1))
        assert is_orthogonal_array(mat, s, t) == naive_oa_check(mat, s, t)
        checked += 1
    assert checked > 10_000
    _pass(f"orthogonal-array predicate agrees with the naive tuple counter on {checked} matrices")


def test_split_and_regular_outputs_achieve_grid_stratification():
    g = bush_oa(GaloisField(3), 3)
    for seed in range(20):
        family = DesignFamily(method="c3-case1", s=3, q=1, p=2, shuffle_split=True)
        design = build_design(family, seed)
        once = design.d2 // 3
        assert grid_stratification(once[:, 0], once[:, 1], 9, 9, 9, 3)
        assert grid_stratification(once[:, 0], once[:, 1], 9, 9, 3, 9)
    for seed in range(20):
        design = build_design(DesignFamily(method="c3-case2", s=3, q=3, p=18, u=4), seed)
        twice = design.d2 // 9
        for i, j in itertools.combinations(range(design.p), 2):
            if i // 2 == j // 2:
                assert grid_stratification(twice[:, i], twice[:, j], 9, 9, 3, 3)
            else:
                assert grid_stratification(twice[:, i], twice[:, j], 9, 9, 9, 3)
                assert grid_stratification(twice[:, i], twice[:, j], 9, 9, 3, 9)
    assert g.strength == 3
    _pass("grid stratification claims hold over 20 seeds for both input generators (zero failures)")


def test_single_column_enumeration_count():
    from test_criteria import enumerate_single_column_designs

    columns = enumerate_single_column_designs()
    s, lam = 2, 2
    expected = 2 ** (lam * s) * 2**lam * 2  # (s!)^(lam*s) * (s!)^lam * lam! for s = lam = 2
    assert len(columns) == expected == 128
    _pass("two-copy stacked family produces exactly 128 distinct quantitative columns")


@pytest.mark.parametrize("s", [4, 8, 9])
def test_field_axioms_exhaustive(s):
    assert axioms_hold(GaloisField(s))
    _pass(f"GF({s}) passes exhaustive associativity, distributivity, and inverse checks")

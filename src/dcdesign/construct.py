"""Constructions of doubly coupled designs.

``build_design(family, seed, plan)`` is the one way to build a design
(d1, d2) with its certificate arrays (b, c), where collapse(d2, s) = s*b + c.
``METHODS`` maps each command-line method name to its route's steps:
feasibility check, default p, input arrays and their per-seed part, plan
sampler and assembly.  The routes (c1, c2 and the three c3 input sources)
are described at their entries.

Input generators for the c3 routes: ``split_strength3_inputs`` splits a
strength-3 array column-wise, ``regular_inputs`` builds the pool from
linear columns over GF(s) for any prime power s (see the functions for the
canonical column order).  Both satisfy the c3 triple precondition by the
paper's theorems, so only a user-supplied pool and companion (c3-custom)
are checked for it.

Every design is verified once (``check_coupling`` at order min(2, q)) and
returned read-only, keeping that report for ``full_report``.
``build_design`` and ``optimize_d2`` resolve a family's inputs once per call
through ``_family_inputs``; each plan then only validates, assembles and expands.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .arrays import OrthogonalArray, _balanced, is_orthogonal_array, level_expand, make_oa
from .design import CoupledDesign, DesignWitness, PermutationPlan
from .errors import (
    CellNotPermutation,
    DimensionMismatch,
    InfeasibleParameters,
    LevelOutOfRange,
    NotStrength3,
    PreconditionFailed,
    UnbalancedColumn,
    UTooSmall,
)
from .gf import MAX_ORDER, GaloisField, is_prime_power
from .oabuild import bush_oa, is_block_form, linear_column, normalize_block_form
from .rng import as_generator, derive_seed
from .verify import check_coupling, max_qualitative_factors

_EXPAND_STREAM = 1
_SPLIT_STREAM = 2


def _plan_perms(field, shape: tuple, what: str) -> np.ndarray:
    """The plan field, checked to have `shape` with every vector along its
    last axis a permutation of 0..shape[-1]-1."""
    if field is None:
        raise DimensionMismatch(f"plan must carry {what}s of shape {shape}")
    if field.size == 0 and math.prod(shape) == 0:
        field = field.reshape(shape)
    if field.shape != shape:
        raise DimensionMismatch(f"plan {what}s must have shape {shape}, got {field.shape}")
    if not (np.sort(field, axis=-1) == np.arange(shape[-1])).all():
        raise CellNotPermutation(f"a {what} is not a permutation of 0..{shape[-1] - 1}")
    return field


def _block_form_input(a: OrthogonalArray) -> OrthogonalArray:
    if is_block_form(a.matrix, a.levels[-1]):
        return a
    warnings.warn("input array reordered into block form", stacklevel=6)  # at the caller of build_design or optimize_d2
    fixed = normalize_block_form(a)
    if not is_block_form(fixed.matrix, a.levels[-1]):
        raise UnbalancedColumn("last column cannot be brought into consecutive block form")
    return fixed


def _finish(d1, b, c, s, plan) -> CoupledDesign:
    d2 = level_expand(s * b + c, as_generator(derive_seed(plan.seed, _EXPAND_STREAM)))
    design = CoupledDesign(d1=d1, d2=d2, s=s, witness=DesignWitness(b=b, c=c, plan=plan))
    if not np.array_equal(design.d2 // s, s * b + c):
        raise RuntimeError("internal error: expansion broke the certificate identity")
    design.witness.report = report = check_coupling(design, min(2, design.q))
    if not report.passed:
        raise RuntimeError("internal error: construction output failed verification")
    for array in (d1, d2, b, c):
        array.setflags(write=False)
    return design


def _stacked_inputs(arrays) -> list[OrthogonalArray]:
    if len(arrays) < 1:
        raise DimensionMismatch("need at least one input array")
    arrays = list(map(_block_form_input, arrays))  # no comprehension frame on 3.11
    s = arrays[0].levels[-1]
    shape = (arrays[0].n_rows, arrays[0].n_cols)
    if any((a.n_rows, a.n_cols) != shape or a.levels != arrays[0].levels for a in arrays):
        raise DimensionMismatch("input arrays must share run size, columns, and levels")
    if shape[0] != s * s:
        raise DimensionMismatch(f"expected {s * s} rows per array, got {shape[0]}")
    return arrays


def _assemble_stacked(arrays, p: int, plan: PermutationPlan) -> tuple:
    lam, s = len(arrays), arrays[0].levels[-1]
    v = _plan_perms(plan.v, (p, lam), "slice permutation")
    w = _plan_perms(plan.w, (p, lam, s), "level permutation")
    d1 = np.vstack([a.matrix[:, :-1] for a in arrays])
    b = np.repeat(v.T, s * s, axis=0)
    c = np.repeat(w.transpose(1, 2, 0).reshape(lam * s, p), s, axis=0)
    return d1, b, c, s


def _assemble_replicated(a: OrthogonalArray, lam: int, p: int, plan: PermutationPlan) -> tuple:
    s = a.levels[-1]
    cells = _plan_perms(plan.b_cells, (s * s, p, lam), "b cell")
    w = _plan_perms(plan.w, (p, s), "level permutation")
    d1 = np.vstack([a.matrix[:, :-1]] * lam)
    b = cells.transpose(2, 0, 1).reshape(lam * s * s, p).copy()
    c = np.tile(np.repeat(w.T, s, axis=0), (lam, 1))
    return d1, b, c, s


def _selection_inputs(a: OrthogonalArray, b: OrthogonalArray, select) -> tuple:
    s = a.levels[0]
    n = a.n_rows
    p = b.n_cols
    if b.n_rows != n:
        raise DimensionMismatch(f"pool has {n} rows but companion has {b.n_rows}")
    if not n or n % s**2:
        raise DimensionMismatch(f"{n} rows not a positive multiple of {s}^2")
    if p and set(b.levels) != {n // s**2}:
        raise DimensionMismatch(f"companion columns must have {n // s**2} levels")
    select = tuple(int(i) for i in select)
    if len(set(select)) != len(select) or len(select) != a.n_cols - 1:
        raise DimensionMismatch(f"select must name {a.n_cols - 1} distinct pool columns")
    if any(i < 0 or i >= a.n_cols for i in select):
        raise DimensionMismatch("select index out of range")
    if a.matrix.size and (a.matrix.min() < 0 or a.matrix.max() >= s):
        raise LevelOutOfRange(f"pool entries outside 0..{s - 1}")
    return a, b, select


def _check_triples(a: OrthogonalArray, b: OrthogonalArray) -> None:
    """The c3 precondition for a pool and companion that passed
    _selection_inputs: every (a_i, a_j, b_k) triple over distinct pool
    columns is fully balanced, one kernel call per pool pair."""
    s, n = a.levels[0], a.n_rows
    # range-checked once here, the companion serves every pair's kernel call
    companion = np.ascontiguousarray(b.matrix.T)
    if companion.size and (companion.min() < 0 or companion.max() >= n // s**2):
        raise LevelOutOfRange(f"column entries outside 0..{n // s**2 - 1}")
    for i, j in itertools.combinations(range(a.n_cols), 2):
        ok = _balanced(a.matrix[:, i] * s + a.matrix[:, j], s * s, companion, n // s**2)
        if not ok.all():
            raise PreconditionFailed(f"triple (a{i}, a{j}, b{int(np.argmin(ok))}) is not fully balanced")


def _assemble_selected(family: DesignFamily, inputs: tuple, plan: PermutationPlan) -> tuple:
    a, b, select = inputs
    s = a.levels[0]
    c_perms = _plan_perms(plan.c_perms, (b.n_cols, s), "level permutation")
    (astar_index,) = set(range(a.n_cols)) - set(select)
    c = c_perms[:, a.matrix[:, astar_index]].T
    return a.matrix[:, list(select)], b.matrix.copy(), c, s


def split_strength3_inputs(g: OrthogonalArray, q: int, rng=None, shuffle: bool = False):
    """Split a strength-3 array OA(s^3, m, s, 3) column-wise into a pool of
    q+1 columns and a companion of the remaining m-q-1 columns.

    Any three distinct columns of g are fully balanced, so the pair
    satisfies the c3 triple precondition unchecked; that needs every column
    at s levels.  The default split takes the first q+1 columns; pass
    shuffle=True for a random one.
    """
    s = g.levels[0]
    if g.strength < 3 or not is_orthogonal_array(g.matrix, g.levels, 3):
        raise NotStrength3("input array must have verified strength 3")
    if set(g.levels) != {s}:
        raise DimensionMismatch(f"strength-3 array columns must all have {s} levels")
    if g.n_rows != s**3:
        raise DimensionMismatch(f"expected {s**3} rows, got {g.n_rows}")
    m = g.n_cols
    if q < 1 or q + 1 > m:
        raise DimensionMismatch(f"need 1 <= q <= {m - 1}, got q={q}")
    order = as_generator(rng).permutation(m) if shuffle else np.arange(m)
    pool = g.matrix[:, order[: q + 1]]
    companion = g.matrix[:, order[q + 1 :]]
    a = OrthogonalArray(pool, (s,) * (q + 1), 2)
    b = OrthogonalArray(companion, (s,) * (m - q - 1), 1)
    return a, b


def regular_inputs(field: GaloisField, u: int):
    """Pool and companion arrays from linear columns over GF(s), u >= 3.

    Writing the row index in base s, digit d1 (weight s) is x1, digit d0
    (weight 1) is x2, and digit d_{v+1} (weight s^{v+1}) is x_{v+2}.  The
    pool A holds x1, x2, then x1 + mu*x2 for mu = 1..s-1: s+1 columns, any
    two linearly independent.  For each extra digit v there is a block
    R_v = (a_1 + mu*x_{v+2}, ..., a_{s+1} + mu*x_{v+2} for mu = 1..s-1,
    then x_{v+2}): s^2 columns, each involving x_{v+2}.

    The companion B concatenates s^2 groups of u-2 columns: group f combines
    the f-th column of every R_v through the circulant integer weight matrix
    whose first column is (s^{u-3}, ..., s, 1), turning each group into
    columns at s^{u-2} levels.  The weights act on digit positions, so this
    is plain integer arithmetic, not field arithmetic.
    """
    if u < 3:
        raise UTooSmall(f"need u >= 3, got {u}")
    s = field.order
    pos_x1, pos_x2 = u - 2, u - 1

    def spec(entries: dict[int, int]) -> np.ndarray:
        v = np.zeros(u, dtype=int)
        for pos, coef in entries.items():
            v[pos] = coef
        return v

    a_specs = [spec({pos_x1: 1}), spec({pos_x2: 1})]
    a_specs += [spec({pos_x1: 1, pos_x2: mu}) for mu in range(1, s)]
    a_mat = np.column_stack([linear_column(field, u, sp) for sp in a_specs])

    t_dim = u - 2
    weight = np.empty((t_dim, t_dim), dtype=int)
    for i in range(t_dim):
        for j in range(t_dim):
            weight[i, j] = s ** (u - 3 - ((i - j) % t_dim))

    groups = []
    r_blocks = []
    for v in range(1, u - 1):
        pos_extra = u - 2 - v
        cols = []
        for mu in range(1, s):
            for base in a_specs:
                shifted = base.copy()
                shifted[pos_extra] = mu
                cols.append(linear_column(field, u, shifted))
        cols.append(linear_column(field, u, spec({pos_extra: 1})))
        r_blocks.append(np.column_stack(cols))
    for f in range(s * s):
        stack = np.column_stack([r_blocks[v][:, f] for v in range(t_dim)])
        groups.append(stack @ weight)
    b_mat = np.hstack(groups)

    a = make_oa(a_mat, s, 2)
    b = make_oa(b_mat, s ** (u - 2), 1)
    return a, b


@dataclass
class DesignFamily:
    """Everything needed to sample one design: the method name (matching
    the command-line vocabulary), the design parameters, and any explicit
    input arrays.  Per-seed randomness is the permutation plan plus the
    level expansion, and for the split method the column split when
    shuffle_split is set."""

    method: str
    s: int
    q: int
    p: int
    lam: int = 1
    u: int = 3
    arrays: list | None = None
    g: OrthogonalArray | None = None
    a: OrthogonalArray | None = None
    b: OrthogonalArray | None = None
    select: tuple | None = None
    shuffle_split: bool = False


def _default_block_array(s: int, q: int) -> OrthogonalArray:
    base = bush_oa(GaloisField(s), 2)
    cols = list(range(q)) + [s]
    return OrthogonalArray(base.matrix[:, cols], (s,) * (q + 1), 2)


def _check_field(s: int, advice: str) -> None:
    if not is_prime_power(s) or s > MAX_ORDER:
        raise InfeasibleParameters(f"no built-in field of order s={s} (prime powers up to {MAX_ORDER}); {advice}")


def _check_stacked(family: DesignFamily) -> None:
    if family.lam < 1:
        raise InfeasibleParameters(f"need lam >= 1, got {family.lam}")
    if family.arrays is None:
        _check_field(family.s, "supply catalogue arrays for it")
    elif any(a.n_cols != family.q + 1 for a in family.arrays):
        raise InfeasibleParameters(f"input arrays must have q+1={family.q + 1} columns")


def _split_width(family: DesignFamily) -> int:
    return family.g.n_cols if family.g is not None else family.s + 1


def _check_split(family: DesignFamily) -> None:
    if family.g is None:
        if family.s < 3:
            raise InfeasibleParameters(f"no built-in strength-3 array for s={family.s}; supply one with --g")
        _check_field(family.s, "supply a strength-3 array with --g")
    m = _split_width(family)
    if family.q + 1 + family.p > m:
        raise InfeasibleParameters(f"q+1+p={family.q + 1 + family.p} exceeds the {m} available columns")


def _check_regular(family: DesignFamily) -> None:
    _check_field(family.s, "the linear-column method has no catalogue input")
    if family.u < 3:
        raise InfeasibleParameters(f"need u >= 3, got u={family.u}")
    if family.p > (family.u - 2) * family.s**2:
        raise InfeasibleParameters(f"p={family.p} exceeds the {(family.u - 2) * family.s**2} available columns")


def _check_custom(family: DesignFamily) -> None:
    if family.a is None or family.b is None:
        raise InfeasibleParameters("custom method needs explicit pool and companion arrays")
    if family.q + 1 != family.a.n_cols:
        raise InfeasibleParameters(f"pool has {family.a.n_cols} columns; q must be {family.a.n_cols - 1}")
    if set(family.a.levels) != {family.s}:
        raise InfeasibleParameters(f"pool columns have {'/'.join(map(str, sorted(set(family.a.levels))))} levels, not s={family.s}")


def _stacked_family_inputs(family: DesignFamily) -> list[OrthogonalArray]:
    if family.arrays is not None:
        return _stacked_inputs(family.arrays)
    return _stacked_inputs([_default_block_array(family.s, family.q)] * family.lam)


def _c3_inputs(family: DesignFamily, a: OrthogonalArray, b: OrthogonalArray, first: int) -> tuple:
    """Pool, companion cut to p columns and selection (by default the q
    pool columns from `first` on), validated by _selection_inputs but not
    checked for the triple precondition."""
    if family.p < b.n_cols:
        b = OrthogonalArray(b.matrix[:, : family.p], b.levels[: family.p], 1)
    select = family.select if family.select is not None else tuple(range(first, first + family.q))
    return _selection_inputs(a, b, select)


def _split(family: DesignFamily, g: OrthogonalArray, seed: int | None) -> tuple:
    rng = as_generator(derive_seed(seed, _SPLIT_STREAM)) if family.shuffle_split else None
    return _c3_inputs(family, *split_strength3_inputs(g, family.q, rng=rng, shuffle=family.shuffle_split), 0)


def _split_family_inputs(family: DesignFamily):
    """The strength-3 array, split at once unless the split is drawn per seed."""
    g = family.g if family.g is not None else bush_oa(GaloisField(family.s), 3)
    return g if family.shuffle_split else _split(family, g, None)


def _regular_family_inputs(family: DesignFamily) -> tuple:
    a, b = regular_inputs(GaloisField(family.s), family.u)
    pool = OrthogonalArray(a.matrix[:, : family.q + 1], (family.s,) * (family.q + 1), 2)
    return _c3_inputs(family, pool, b, 1)


def _sample(seed: int, **fields) -> PermutationPlan:
    """A random plan: each field, given as name=(shape, size) and drawn in
    that order from one stream of `seed`, has shape (*shape, size), filled
    in row-major order with one rng.permutation(size) per vector along the
    last axis (one permuted call draws them alike)."""
    rng = as_generator(derive_seed(seed, 0))
    return PermutationPlan(seed=seed, **{name: rng.permuted(np.tile(np.arange(size), (*shape, 1)), axis=-1) for name, (shape, size) in fields.items()})


def _sample_selected(f: DesignFamily, seed: int) -> PermutationPlan:
    return _sample(seed, c_perms=((f.p,), f.s))


def _custom_inputs(family: DesignFamily) -> tuple:
    a, b, select = _c3_inputs(family, family.a, family.b, 1)
    _check_triples(a, b)
    return a, b, select


@dataclass(frozen=True)
class Method:
    """The steps of one construction route on the family path.  `inputs`
    builds and validates everything that does not depend on the seed, and
    `seeded` what `assemble` receives with each plan of one seed.  `assemble`
    validates the plan and returns (d1, b, c, s), unexpanded and unverified.
    `default_p` is the p the command line uses when none is given."""

    check: Callable[[DesignFamily], None]
    inputs: Callable[[DesignFamily], object]
    sample: Callable[[DesignFamily, int], PermutationPlan]
    assemble: Callable[[DesignFamily, object, PermutationPlan], tuple]
    default_p: Callable[[DesignFamily], int] = lambda f: f.s
    seeded: Callable[[DesignFamily, object, int], object] = lambda f, inputs, seed: inputs


METHODS = {
    # Stack lam block-form arrays OA(s^2, q+1, s, 2) and drop the shared
    # block column to get d1 (distinct arrays can raise its strength).
    # Column k of b repeats plan.v[k], a permutation of the lam slices, s^2
    # times each; column k of c stacks plan.w[k, j], a level permutation per
    # slice, each level repeated s times.
    "c1": Method(
        check=_check_stacked,
        inputs=_stacked_family_inputs,
        sample=lambda f, seed: _sample(seed, v=((f.p,), f.lam), w=((f.p, f.lam), f.s)),
        assemble=lambda f, arrays, plan: _assemble_stacked(arrays, f.p, plan),
    ),
    # Stack lam copies of one block-form array; b is randomized cell-wise:
    # entry (i + j*s^2, k) is plan.b_cells[i, k, j], each cell vector a
    # permutation of 0..lam-1.  Column k of c tiles one level permutation
    # plan.w[k] across all copies.
    "c2": Method(
        check=_check_stacked,
        inputs=lambda f: _stacked_inputs(f.arrays[:1] if f.arrays else [_default_block_array(f.s, f.q)]),
        sample=lambda f, seed: _sample(seed, b_cells=((f.s * f.s, f.p), f.lam), w=((f.p,), f.s)),
        assemble=lambda f, arrays, plan: _assemble_replicated(arrays[0], f.lam, f.p, plan),
    ),
    # The c3 routes select q columns of a pool A = OA(n, q+1, s, 2) as d1,
    # take b from a companion B = OA(n, p, n/s^2, 1) whose (a_i, a_j, b_k)
    # triples are all fully balanced, and column k of c applies
    # plan.c_perms[k] to the levels of the one unselected pool column.
    # c3-case1 splits a strength-3 array (split_strength3_inputs).
    "c3-case1": Method(
        check=_check_split,
        inputs=_split_family_inputs,
        sample=_sample_selected,
        assemble=_assemble_selected,
        default_p=lambda f: max(_split_width(f) - f.q - 1, 0),
        seeded=lambda f, g, seed: _split(f, g, seed) if f.shuffle_split else g,
    ),
    # c3-case2 takes the linear-column pool and companion (regular_inputs).
    "c3-case2": Method(
        check=_check_regular,
        inputs=_regular_family_inputs,
        sample=_sample_selected,
        assemble=_assemble_selected,
        default_p=lambda f: (f.u - 2) * f.s**2,
    ),
    # c3-custom takes a user's pool and companion and checks their triples.
    "c3-custom": Method(
        check=_check_custom,
        inputs=_custom_inputs,
        sample=_sample_selected,
        assemble=_assemble_selected,
        default_p=lambda f: f.b.n_cols if f.b is not None else 0,
    ),
}


def check_feasible(family: DesignFamily) -> None:
    """Raise InfeasibleParameters when a bound or capacity is violated."""
    s, q, p = family.s, family.q, family.p
    if s < 2:
        raise InfeasibleParameters(f"need at least 2 levels, got s={s}")
    if q > max_qualitative_factors(s):
        raise InfeasibleParameters(f"q={q} exceeds the maximum number of qualitative factors for s={s} (q <= s)")
    if q < 1:
        raise InfeasibleParameters(f"need at least one qualitative factor, got q={q}")
    if p < 0:
        raise InfeasibleParameters(f"negative quantitative factor count p={p}")
    if family.method not in METHODS:
        raise InfeasibleParameters(f"unknown method {family.method!r}")
    METHODS[family.method].check(family)


def _family_inputs(family: DesignFamily):
    """Check the family and build its validated, seed-independent inputs;
    build_design and optimize_d2 call this once per call."""
    check_feasible(family)
    return METHODS[family.method].inputs(family)


def sample_family_plan(family: DesignFamily, seed: int) -> PermutationPlan:
    return METHODS[family.method].sample(family, seed)


def construct_from_plan(family: DesignFamily, inputs, plan: PermutationPlan) -> CoupledDesign:
    """Validate `plan`, then assemble, expand and verify its design from
    the `inputs` that _family_inputs resolved for `family`."""
    method = METHODS[family.method]
    return _finish(*method.assemble(family, method.seeded(family, inputs, plan.seed), plan), plan)


def build_design(family: DesignFamily, seed: int = 0, plan: PermutationPlan | None = None) -> CoupledDesign:
    """Run the family's construction with `plan`, or with a plan sampled
    from `seed` when none is given.  The plan's own seed drives the level
    expansion (and a shuffled split), so explicit plans reproduce
    reference designs exactly."""
    inputs = _family_inputs(family)
    return construct_from_plan(family, inputs, plan if plan is not None else sample_family_plan(family, seed))

"""Space-filling criteria and random-restart search over permutation plans.

Criterion values are computed on midpoint-scaled points (l + 0.5)/n so that
designs of different run sizes compare on the same [0,1) scale.  The
centered L2 discrepancy is returned squared, as produced by its closed-form
double sum.  Ties within 1e-12 are broken toward the earlier candidate, so a
fixed seed reproduces results bit for bit.

Both criteria run over row blocks of at most ``arrays.BLOCK_ENTRIES``
scratch floats, never over an (n, n, p) tensor, and return the same float,
bit for bit, as the direct tensor formulas (kept as test oracles) on
C-ordered ``d2``, the layout the library builds and loads:

- maximin takes, per row block, the squared distances to later rows only,
  summing each pair's p squares as ``sum(axis=-1)`` does over a C-ordered
  tensor, and one square root of the minimum at the end (``sqrt`` is
  correctly rounded and monotone, so the root of the minimum is the
  minimum of the roots).  Memory: O(n·block), at least one row's n×p
  differences.  (The tensor formula's rounding depended on the memory
  layout of ``d2`` for p >= 8; this kernel's does not.)
- CL2 fills its n×n matrix of pair products one row block and one column at
  a time, multiplying the columns in order as ``np.prod`` does.  Memory:
  O(n²), held by that matrix.  The matrix is summed in one call over all of
  it, because numpy's pairwise summation rounds differently over per-block
  partial sums, and the bundles pin the search trajectories' bytes.

Each swap step of the search changes one quantitative column of the
certificate s*b + c, never d1.  A restart builds and verifies its first
design in full and draws its expansion permutations once; a step then
re-expands and verifies only the changed column.  For maximin it updates
integer pair sums S_ij = sum_k (l_ik - l_jk)^2 in O(n^2) and scores only the
pairs at the smallest S, in the kernel's order, so the float is
maximin_distance's bit for bit.  Guard: p(p+4)n^2 < 2^52 (n=4096, p=128 is
at about 2.8e11); above it, and for CL2, a step scores from scratch.
Memory: two vectors of 8 B per pair (67 MB each at n=4096), built only with
swap steps and maximin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .arrays import BLOCK_ENTRIES, _expand_column, _expansion_draws
from .construct import _EXPAND_STREAM, METHODS, DesignFamily, _family_inputs, _finish, sample_family_plan
from .design import CoupledDesign, DesignWitness
from .rng import as_generator, derive_seed
from .verify import _column_checker

TIE_TOLERANCE = 1e-12

CRITERIA = {
    "maximin": "maximize",
    "cl2": "minimize",
}


@dataclass(frozen=True)
class CriterionScore:
    name: str
    value: float
    sense: str


def _midpoints(d2) -> np.ndarray:
    m = np.asarray(d2, dtype=float)
    return (m + 0.5) / m.shape[0]


def maximin_distance(d2) -> float:
    """Smallest pairwise Euclidean distance between midpoint-scaled rows;
    larger is better."""
    x = _midpoints(d2)
    n, m = x.shape
    if n < 2:
        raise ValueError("need at least two rows")
    rows = max(1, BLOCK_ENTRIES // (n * max(m, 1)))
    diff = np.empty((min(rows, n - 1), n - 1, m))
    sq = np.empty(diff.shape[:2])
    col = np.arange(n - 1)
    best = np.inf
    for i in range(0, n - 1, rows):
        k, w = min(rows, n - 1 - i), n - 1 - i
        d, s = diff[:k, :w], sq[:k, :w]
        np.subtract(x[i : i + k, None, :], x[i + 1 :], out=d)
        np.square(d, out=d)
        np.sum(d, axis=2, out=s)
        # block row r is row i + r; column c is row i + 1 + c, later iff c >= r
        best = min(best, s.min(where=col[:w] >= col[:k, None], initial=np.inf))
    return float(np.sqrt(best))


def centered_l2_discrepancy(d2) -> float:
    """Squared centered L2 discrepancy of the midpoint-scaled design, by the
    closed-form double sum; smaller is better."""
    x = _midpoints(d2)
    n, m = x.shape
    dev = np.abs(x - 0.5)
    term1 = (13.0 / 12.0) ** m
    term2 = np.prod(1.0 + 0.5 * dev - 0.5 * dev**2, axis=1).sum() * (2.0 / n)
    # pair (i, j), column t: ((1 + 0.5 dev_i) + 0.5 dev_j) - 0.5 |x_i - x_j|;
    # halving is exact, so |0.5 x_i - 0.5 x_j| is that last term
    half = np.ascontiguousarray((0.5 * dev).T)
    lead = 1.0 + half
    hx = np.ascontiguousarray((0.5 * x).T)
    rows = max(1, BLOCK_ENTRIES // n)
    prod = np.ones((n, n))
    entry = np.empty((min(rows, n), n))
    cross = np.empty_like(entry)
    for i in range(0, n, rows):
        k = min(rows, n - i)
        e, c, out = entry[:k], cross[:k], prod[i : i + k]
        for t in range(m):
            np.add(lead[t, i : i + k, None], half[t], out=e)
            np.subtract(hx[t, i : i + k, None], hx[t], out=c)
            np.abs(c, out=c)
            e -= c
            out *= e
    term3 = prod.sum() / n**2
    return float(term1 - term2 + term3)


def score(d2, criterion: str) -> CriterionScore:
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}; choose from {sorted(CRITERIA)}")
    value = maximin_distance(d2) if criterion == "maximin" else centered_l2_discrepancy(d2)
    return CriterionScore(name=criterion, value=value, sense=CRITERIA[criterion])


def _improves(candidate: float, incumbent: float, sense: str) -> bool:
    if sense == "maximize":
        return candidate > incumbent + TIE_TOLERANCE
    return candidate < incumbent - TIE_TOLERANCE


def best_index(trajectory, sense: str) -> int:
    """Index of the best score in `trajectory`: a later score wins only if
    it improves on the incumbent by more than TIE_TOLERANCE, so ties go to
    the earlier entry."""
    best = 0
    for r in range(1, len(trajectory)):
        if _improves(trajectory[r], trajectory[best], sense):
            best = r
    return best


def _plan_cells(plan):
    """The mutable permutation vectors inside a plan, for swap moves: the
    rows along the last axis of each set field, in field order."""
    return [row for field in plan.fields().values() for row in field.reshape(-1, field.shape[-1])]


def _pair_sums_exact(n: int, p: int) -> bool:
    """Whether pair sums fix maximin's float minimum.  To first order each
    midpoint difference d is off by 2^-53 (1 + |d|), so a pair's float sum
    is within 2^-53 p(p+4) of S/n^2: under half the 1/n^2 between sums."""
    return p * (p + 4) * n**2 < 2**52


class _PairSums:
    """S_ij = sum_k (l_ik - l_jk)^2 over the row pairs i < j of an integer
    design, as one int64 vector in row-major upper-triangle order."""

    def __init__(self, d2: np.ndarray):
        self.n = n = d2.shape[0]
        self.start = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
        self.sums, self.spare = np.zeros((2, self.start[-1]), dtype=np.int64)
        self.update(np.zeros_like(d2), d2, range(d2.shape[1]))
        self.accept()

    def update(self, d2: np.ndarray, new_d2: np.ndarray, cols) -> np.ndarray:
        """The spare vector, set to the sums of new_d2, which differs from
        the incumbent d2 in columns `cols` only: per row block of at most
        BLOCK_ENTRIES pairs, each column adds (new_i - new_j)^2 -
        (old_i - old_j)^2, factored."""
        sums, n = self.spare, self.n
        np.copyto(sums, self.sums)
        rows, col = max(1, BLOCK_ENTRIES // n), np.arange(n - 1)
        for j in cols:
            d, t = new_d2[:, j] - d2[:, j], new_d2[:, j] + d2[:, j]
            for i in range(0, n - 1, rows):
                k, w = min(rows, n - 1 - i), n - 1 - i
                delta = d[i : i + k, None] - d[i + 1 :]
                delta *= t[i : i + k, None] - t[i + 1 :]
                sums[self.start[i] : self.start[i + k]] += delta[col[:w] >= col[:k, None]]
        return sums

    def accept(self) -> None:
        """Make the spare vector's sums the incumbent's."""
        self.sums, self.spare = self.spare, self.sums

    def distance(self, sums: np.ndarray, d2: np.ndarray) -> float:
        """maximin_distance(d2), bit for bit, from d2's pair sums: only pairs
        at the smallest sum can hold the kernel's float minimum, so only
        they are scored as the kernel scores them, BLOCK_ENTRIES at a time."""
        ties = np.flatnonzero(sums == sums.min())
        best, size = np.inf, max(1, BLOCK_ENTRIES // max(d2.shape[1], 1))
        for lo in range(0, ties.size, size):
            pair = ties[lo : lo + size]
            a = np.searchsorted(self.start, pair, side="right") - 1
            x = (d2[a] + 0.5) / self.n - (d2[pair - self.start[a] + a + 1] + 0.5) / self.n
            np.square(x, out=x)
            best = min(best, x.sum(axis=1).min())
        return float(np.sqrt(best))


def _column_local(family, inputs, design, draws, check, plan):
    """construct_from_plan's design for `plan` from the incumbent `design`
    of the same restart and the `inputs` resolved for its seed: assemble,
    then expand with the restart's draws and verify only the columns whose
    certificate s*b + c changed.  Returns the design and those columns."""
    d1, b, c, s = METHODS[family.method].assemble(family, inputs, plan)
    x = s * b + c
    changed = np.flatnonzero((x != design.d2 // s).any(axis=0))
    d2 = design.d2.copy()
    for k in changed:
        d2[:, k] = _expand_column(x[:, k], draws[k])
        check(d2[:, k], x[:, k])
    return CoupledDesign(d1=d1, d2=d2, s=s, witness=DesignWitness(b=b, c=c, plan=plan)), changed


def _swap_climb(family, inputs, plan, criterion, steps, rng):
    """Pairwise-swap hill climbing inside the plan's permutation cells; with
    steps=0, just the plan's design and its score.

    Every move stays inside the construction family, so each candidate is a
    valid design by construction and no repair step exists.  Moves keep the
    seed, so the inputs are resolved for it once.
    """
    inputs = METHODS[family.method].seeded(family, inputs, plan.seed)
    design = _finish(*METHODS[family.method].assemble(family, inputs, plan), plan)
    best, sense = score(design.d2, criterion).value, CRITERIA[criterion]
    if steps:
        draws = list(_expansion_draws(design.d2 // design.s, as_generator(derive_seed(plan.seed, _EXPAND_STREAM))))
        check = _column_checker(design)
        pairs = _PairSums(design.d2) if criterion == "maximin" and _pair_sums_exact(*design.d2.shape) else None
    for _ in range(steps):
        trial = replace(plan, **{name: field.copy() for name, field in plan.fields().items()})
        cells = _plan_cells(trial)
        if not cells:
            break
        cell = cells[rng.integers(len(cells))]
        if cell.shape[0] < 2:
            continue
        i, j = rng.choice(cell.shape[0], size=2, replace=False)
        cell[i], cell[j] = cell[j], cell[i]
        candidate, changed = _column_local(family, inputs, design, draws, check, trial)
        if pairs is None:
            value = score(candidate.d2, criterion).value
        else:
            value = pairs.distance(pairs.update(design.d2, candidate.d2, changed), candidate.d2)
        if _improves(value, best, sense):
            plan, design, best = trial, candidate, value
            if pairs is not None:
                pairs.accept()
    return design, best


def optimize_d2(
    family: DesignFamily,
    criterion: str = "maximin",
    restarts: int = 10,
    seed: int = 0,
    swap_steps: int = 0,
) -> tuple[CoupledDesign, list[float]]:
    """Best design over `restarts` independently seeded plans.

    Restart r uses the child seed derive_seed(seed, r), so restarts=1
    reproduces build_design(family, derive_seed(seed, 0)) exactly.  Optional
    pairwise-swap climbing refines each restart.  Returns the winning design
    and the per-restart score trajectory; the winner is chosen
    deterministically (ties to the earlier restart).
    """
    if restarts < 1:
        raise ValueError(f"need restarts >= 1, got {restarts}")
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}; choose from {sorted(CRITERIA)}")

    inputs = _family_inputs(family)
    winner, best, trajectory = None, None, []
    for r in range(restarts):
        child = derive_seed(seed, r)
        plan = sample_family_plan(family, child)
        design, value = _swap_climb(family, inputs, plan, criterion, swap_steps, as_generator(derive_seed(child, 3)))
        # keep only the incumbent: in restart order this is best_index's pick
        if winner is None or _improves(value, best, CRITERIA[criterion]):
            winner, best = design, value
        trajectory.append(value)
        del design  # a losing design is freed before the next restart
    return winner, trajectory

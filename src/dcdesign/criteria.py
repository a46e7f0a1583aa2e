"""Space-filling criteria and random-restart search over permutation plans.

Criterion values are computed on midpoint-scaled points (l + 0.5)/n so that
designs of different run sizes compare on the same [0,1) scale.  The
centered L2 discrepancy is returned squared, as produced by its closed-form
double sum.  Ties within 1e-12 are broken toward the earlier candidate, so a
fixed seed reproduces results bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .construct import DesignFamily, _family_inputs, construct_from_plan, sample_family_plan
from .design import CoupledDesign
from .rng import as_generator, derive_seed

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
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least two rows")
    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    return float(dist[np.triu_indices(n, k=1)].min())


def centered_l2_discrepancy(d2) -> float:
    """Squared centered L2 discrepancy of the midpoint-scaled design, by the
    closed-form double sum; smaller is better."""
    x = _midpoints(d2)
    n, m = x.shape
    dev = np.abs(x - 0.5)
    term1 = (13.0 / 12.0) ** m
    term2 = np.prod(1.0 + 0.5 * dev - 0.5 * dev**2, axis=1).sum() * (2.0 / n)
    cross = np.abs(x[:, None, :] - x[None, :, :])
    prod = np.prod(1.0 + 0.5 * dev[:, None, :] + 0.5 * dev[None, :, :] - 0.5 * cross, axis=2)
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


def _plan_cells(plan):
    """The mutable permutation vectors inside a plan, for swap moves: the
    rows along the last axis of each set field, in field order."""
    return [row for field in plan.fields().values() for row in field.reshape(-1, field.shape[-1])]


def _swap_climb(family, inputs, plan, criterion, steps, rng):
    """Pairwise-swap hill climbing inside the plan's permutation cells; with
    steps=0, just the plan's design and its score.

    Every move stays inside the construction family, so each candidate is a
    valid design by construction and no repair step exists.
    """
    design = construct_from_plan(family, inputs, plan)
    best = score(design.d2, criterion)
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
        candidate = construct_from_plan(family, inputs, trial)
        value = score(candidate.d2, criterion)
        if _improves(value.value, best.value, value.sense):
            plan, design, best = trial, candidate, value
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
    results = []
    for r in range(restarts):
        child = derive_seed(seed, r)
        plan = sample_family_plan(family, child)
        results.append(_swap_climb(family, inputs, plan, criterion, swap_steps, as_generator(derive_seed(child, 3))))
    trajectory = [best.value for _, best in results]
    sense = CRITERIA[criterion]
    best_index = 0
    for r in range(1, restarts):
        if _improves(trajectory[r], trajectory[best_index], sense):
            best_index = r
    return results[best_index][0], trajectory

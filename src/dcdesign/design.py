"""Design objects shared by the construction and verification modules."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch

PLAN_FIELDS = ("v", "w", "b_cells", "c_perms")


@dataclass
class PermutationPlan:
    """Explicit permutation choices for a construction.

    The seed drives the level-expansion stream (and a shuffled split).  A
    plan must set every field its construction needs, or building raises
    DimensionMismatch.  Set fields are int arrays (lists are converted on
    construction), and which ones apply depends on the construction:

    - stacked-array method: `v` of shape (p, lam), each row a permutation of
      0..lam-1, and `w` of shape (p, lam, s), each row a permutation of
      0..s-1;
    - replicated-array method: `b_cells` of shape (s*s, p, lam), each cell a
      permutation of 0..lam-1, and `w` of shape (p, s);
    - column-selection method: `c_perms` of shape (p, s).
    """

    seed: int = 0
    v: np.ndarray | None = None
    w: np.ndarray | None = None
    b_cells: np.ndarray | None = None
    c_perms: np.ndarray | None = None

    def __post_init__(self):
        for name, value in self.fields().items():
            try:
                setattr(self, name, np.asarray(value, dtype=int))
            except ValueError as exc:
                raise DimensionMismatch(f"plan field {name} is not a regular integer array: {exc}") from exc

    def fields(self) -> dict:
        """The set permutation fields, in declaration order."""
        return {name: getattr(self, name) for name in PLAN_FIELDS if getattr(self, name) is not None}


@dataclass
class DesignWitness:
    """Decomposition certificate: collapse(d2, s) equals s*b + c.  `report`
    is a built design's verify.VerificationReport (never serialized)."""

    b: np.ndarray
    c: np.ndarray
    plan: PermutationPlan | None = None
    report: object = field(default=None, repr=False, compare=False)


@dataclass
class CoupledDesign:
    """A qualitative design d1 (n x q, s levels per column) paired with a
    quantitative Latin hypercube d2 (n x p, levels 0..n-1)."""

    d1: np.ndarray
    d2: np.ndarray
    s: int
    witness: DesignWitness | None = None

    @property
    def n(self) -> int:
        return self.d1.shape[0]

    @property
    def q(self) -> int:
        return self.d1.shape[1]

    @property
    def p(self) -> int:
        return self.d2.shape[1]

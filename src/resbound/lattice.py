"""Families of theories over a finite budget grid and their partial order.

Extension runs up the componentwise order: a bigger budget admits every
axiom the smaller one admits, allows every formula it allows, and affords
every proof it affords, so theorem sets grow monotonically along edges.
The middle step needs delta_e = 0 or two budgets with the same time
component: maintenance is paid for the whole time budget, so with
delta_e > 0 more time and no more energy can shrink N(r).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .expressions import CostParameters
from .resources import OrderRelation, ResourceVector, compare, pareto_min, sorted_vectors
from .statements import Statement, rendered_length
from .theory import AxiomCandidate, Theory, build_theory, is_theorem, theorems_up_to
from .world import World


class Quadrant(enum.Enum):
    EXTENSION = "Extension"
    RESTRICTION = "Restriction"
    EQUAL = "Equal"
    UNRELATED = "Unrelated"


def classify_pair(r: ResourceVector, r_prime: ResourceVector) -> Quadrant:
    """Where r' sits relative to r: Extension means r' strictly dominates."""
    rel = compare(r, r_prime)
    if rel is OrderRelation.EQUAL:
        return Quadrant.EQUAL
    if rel is OrderRelation.LESS_EQ:
        return Quadrant.EXTENSION
    if rel is OrderRelation.GREATER_EQ:
        return Quadrant.RESTRICTION
    return Quadrant.UNRELATED


@dataclass(frozen=True, eq=False)
class TheoryGrid:
    points: tuple[ResourceVector, ...]
    theories: dict[ResourceVector, Theory]

    @classmethod
    def build(
        cls,
        points: tuple[ResourceVector, ...],
        candidates: tuple[AxiomCandidate, ...],
        world: World,
        cost_params: CostParameters,
        max_proof_steps: int = 4,
    ) -> "TheoryGrid":
        distinct = sorted_vectors(set(points))
        theories = {
            p: build_theory(p, candidates, world, cost_params, max_proof_steps, name=f"T{i}")
            for i, p in enumerate(distinct)
        }
        return cls(tuple(distinct), theories)

    def theory_at(self, point: ResourceVector) -> Theory:
        return self.theories[point]


def extension_edges(grid: TheoryGrid) -> list[tuple[ResourceVector, ResourceVector]]:
    """Transitive reduction of the strict-extension relation over the grid."""
    pts = grid.points
    edges = []
    for a in pts:
        for b in pts:
            if classify_pair(a, b) is not Quadrant.EXTENSION:
                continue
            between = any(
                classify_pair(a, m) is Quadrant.EXTENSION
                and classify_pair(m, b) is Quadrant.EXTENSION
                for m in pts
            )
            if not between:
                edges.append((a, b))
    edges.sort(key=lambda e: (e[0].sort_key(), e[1].sort_key()))
    return edges


@dataclass(frozen=True)
class FirstAppearance:
    """The two minimal-budget notions for one statement over a grid: where it
    first becomes provable, and where it first becomes expressible at all.
    Both are grid-relative minima, not continuum minima."""

    statement: Statement
    theorem_points: tuple[ResourceVector, ...]
    expressible_points: tuple[ResourceVector, ...]


def first_appearance_theorem(
    s: Statement, grid: TheoryGrid, max_steps: Optional[int] = None
) -> FirstAppearance:
    theorem_at = []
    expressible_at = []
    length = rendered_length(s)
    for p in grid.points:
        theory = grid.theory_at(p)
        cap = theory.length_cap()
        if cap is None or length <= cap:
            expressible_at.append(p)
            if is_theorem(theory, s, max_steps):
                theorem_at.append(p)
    minimal = lambda pts: tuple(sorted_vectors(pareto_min(pts))) if pts else ()
    return FirstAppearance(s, minimal(theorem_at), minimal(expressible_at))


@dataclass(frozen=True)
class MonotonicityReport:
    edges_checked: int
    violations: tuple[tuple[ResourceVector, ResourceVector, Statement], ...]
    theorems: dict[ResourceVector, frozenset[Statement]]  # per grid point

    @property
    def ok(self) -> bool:
        return not self.violations


def check_extension_monotonicity(
    grid: TheoryGrid, size_bound: int, max_steps: Optional[int] = None
) -> MonotonicityReport:
    """Exhaustively confirm theorems(tail) <= theorems(head) on every edge;
    the report keeps each point's theorems for callers that need them."""
    edges = extension_edges(grid)
    theorem_sets = {
        p: frozenset(theorems_up_to(grid.theory_at(p), size_bound, max_steps))
        for p in grid.points
    }
    violations = []
    for tail, head in edges:
        for s in sorted(theorem_sets[tail] - theorem_sets[head], key=rendered_length):
            violations.append((tail, head, s))
    return MonotonicityReport(len(edges), tuple(violations), theorem_sets)

"""Exact-rational resource vectors and their componentwise partial order.

A budget vector has 2d+2 components: d space components, one time component,
d momentum components and one energy component, in that order.  All arithmetic
is over ``fractions.Fraction`` so order comparisons (and therefore theory and
domain membership downstream) are exact and deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, TypeVar, Union

from .errors import DimensionMismatch

RationalLike = Union[int, str, Fraction]
Vector = TypeVar("Vector")


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not a rational value: {value!r}")


class OrderRelation(enum.Enum):
    LESS_EQ = "LessEq"
    GREATER_EQ = "GreaterEq"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"


@dataclass(frozen=True)
class ResourceVector:
    """Nonnegative budget vector of length 2d+2 (d may be 0 for toy worlds)."""

    components: tuple[Fraction, ...]

    def __post_init__(self):
        comps = tuple(_as_fraction(c) for c in self.components)
        if len(comps) < 2 or len(comps) % 2 != 0:
            raise ValueError(f"component count must be even and >= 2, got {len(comps)}")
        if any(c < 0 for c in comps):
            raise ValueError(f"negative component in {comps}")
        object.__setattr__(self, "components", comps)

    @classmethod
    def of(cls, *values: RationalLike) -> "ResourceVector":
        return cls(tuple(values))

    @classmethod
    def zeros(cls, n_components: int) -> "ResourceVector":
        return cls((Fraction(0),) * n_components)

    @property
    def d(self) -> int:
        return (len(self.components) - 2) // 2

    @property
    def time(self) -> Fraction:
        return self.components[self.d]

    @property
    def energy(self) -> Fraction:
        return self.components[-1]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.components)

    def _check_dim(self, other: "ResourceVector") -> None:
        if len(self.components) != len(other.components):
            raise DimensionMismatch(
                f"{len(self.components)} vs {len(other.components)} components"
            )

    def leq(self, other: "ResourceVector") -> bool:
        self._check_dim(other)
        return all(a <= b for a, b in zip(self.components, other.components))

    def dominates(self, other: "ResourceVector") -> bool:
        """Strict Pareto dominance: self <= other componentwise and not equal."""
        return self.leq(other) and self != other

    def add(self, other: "ResourceVector") -> "ResourceVector":
        self._check_dim(other)
        return ResourceVector(tuple(a + b for a, b in zip(self.components, other.components)))

    def sub_saturating(self, other: "ResourceVector") -> "ResourceVector":
        self._check_dim(other)
        return ResourceVector(
            tuple(max(Fraction(0), a - b) for a, b in zip(self.components, other.components))
        )

    def join(self, other: "ResourceVector") -> "ResourceVector":
        self._check_dim(other)
        return ResourceVector(tuple(max(a, b) for a, b in zip(self.components, other.components)))

    def meet(self, other: "ResourceVector") -> "ResourceVector":
        self._check_dim(other)
        return ResourceVector(tuple(min(a, b) for a, b in zip(self.components, other.components)))

    def to_strings(self) -> list[str]:
        return [str(c) for c in self.components]

    @classmethod
    def from_strings(cls, values: Sequence[str]) -> "ResourceVector":
        return cls(tuple(Fraction(v) for v in values))

    def sort_key(self) -> tuple:
        return tuple(self.components)

    def __str__(self) -> str:
        return "[" + ", ".join(self.to_strings()) + "]"


def compare(a: ResourceVector, b: ResourceVector) -> OrderRelation:
    below = a.leq(b)
    above = b.leq(a)
    if below and above:
        return OrderRelation.EQUAL
    if below:
        return OrderRelation.LESS_EQ
    if above:
        return OrderRelation.GREATER_EQ
    return OrderRelation.INCOMPARABLE


def pareto_min(vectors: Iterable[Vector]) -> frozenset[Vector]:
    """The antichain of non-dominated vectors; every input is >= some member.

    Takes ResourceVectors or plain tuples of numbers.  A sorted scan (Kung,
    Luccio & Preparata, JACM 1975): a vector can be strictly dominated only by
    a lexicographically smaller one, and then also by a kept one, so in
    ascending order each vector is kept unless a kept vector is <= it."""
    by_comps = {v.components if isinstance(v, ResourceVector) else v: v for v in vectors}
    if not by_comps:
        raise ValueError("pareto_min of empty set")
    dims = {len(comps) for comps in by_comps}
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed component counts {sorted(dims)}")
    kept: list[tuple] = []
    for comps in sorted(by_comps):
        if not any(all(a <= b for a, b in zip(k, comps)) for k in kept):
            kept.append(comps)
    return frozenset(by_comps[comps] for comps in kept)


def sorted_vectors(vectors: Iterable[ResourceVector]) -> list[ResourceVector]:
    return sorted(vectors, key=ResourceVector.sort_key)


def vec(*values: RationalLike) -> ResourceVector:
    """Shorthand used heavily in tests and fixtures."""
    return ResourceVector.of(*values)

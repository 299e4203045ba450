"""Procedures, equipment, purposes, and the implementation operation.

A world is the metatheory's ground truth: what each atomic claim's truth value
is, and what every procedure and piece of equipment is actually for.  One
routine, ``price``, sums what running procedures costs: each implementation,
plus construction of each piece of equipment not yet built, once.
``strategy_cost`` and the spend ledger call it, so conjunctions of
verifications that share equipment cost less than the sum of their
standalone costs.  The frontier search in ``statements`` applies the same
rule to many strategies at once, over ``World.cost_tables``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Iterable, Optional, Sequence, Union

from .errors import (
    InsufficientResources,
    UnknownEquipment,
    UnknownProcedure,
    UnknownSubject,
)
from .expressions import Alphabet, Expression
from .resources import ResourceVector


# --- purposes -------------------------------------------------------------

class _Figures:
    """A purpose with an ``n_figures`` precision, which must be at least 1."""

    def __post_init__(self):
        if self.n_figures < 1:
            raise ValueError("n_figures must be >= 1")


@dataclass(frozen=True)
class MeasureProperty(_Figures):
    property_name: str
    n_figures: int


@dataclass(frozen=True)
class ComputePrediction(_Figures):
    property_name: str
    n_figures: int


@dataclass(frozen=True)
class MeasureSpaceTime(_Figures):
    n_figures: int


@dataclass(frozen=True)
class DetermineTruth:
    statement_id: str


@dataclass(frozen=True)
class NoPurpose:
    pass


@dataclass(frozen=True)
class Opaque:
    text: str


Purpose = Union[MeasureProperty, ComputePrediction, MeasureSpaceTime,
                DetermineTruth, NoPurpose, Opaque]


@dataclass(frozen=True)
class Location:
    """A (d+1)-tuple of n-figure coordinate strings."""

    coords: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))

    def is_valid(self, numerals: str = "01", n_figures: Optional[int] = None) -> bool:
        for c in self.coords:
            if not c or any(ch not in numerals for ch in c):
                return False
            if n_figures is not None and len(c) != n_figures:
                return False
        return True


@dataclass(frozen=True)
class Equipment:
    id: str
    construction_cost: ResourceVector
    purpose: Purpose = NoPurpose()


OutputFn = Callable[["World", Location], str]


@dataclass(frozen=True)
class Procedure:
    id: str
    equipment_used: frozenset[str]
    instructions: Expression
    implementation_cost: ResourceVector
    declared_purpose: Purpose
    output_fn: OutputFn

    def __post_init__(self):
        object.__setattr__(self, "equipment_used", frozenset(self.equipment_used))


class CostTables:
    """A world's costs as integer tuples, each component times ``scale``, the
    least common multiple of every cost denominator; and each atom's deciding
    procedures, sorted.  Strategy costing runs on these in exact integers."""

    __slots__ = ("scale", "implementation", "construction", "deciders")

    def __init__(self, world: World):
        implementation = {pid: p.implementation_cost for pid, p in world.procedures.items()}
        construction = {eq_id: e.construction_cost for eq_id, e in world.equipment.items()}
        costs = [*implementation.values(), *construction.values()]
        scale = math.lcm(*(c.denominator for cost in costs for c in cost.components))

        def scaled(cost: ResourceVector) -> tuple[int, ...]:
            return tuple(c.numerator * (scale // c.denominator) for c in cost.components)

        deciders: dict[str, list[str]] = {}
        for pid in sorted(world.procedures):
            purpose = world.true_purposes.get(pid)
            if isinstance(purpose, DetermineTruth):
                deciders.setdefault(purpose.statement_id, []).append(pid)
        self.scale = scale
        self.implementation = {pid: scaled(cost) for pid, cost in implementation.items()}
        self.construction = {eq_id: scaled(cost) for eq_id, cost in construction.items()}
        self.deciders = {atom_id: tuple(pids) for atom_id, pids in deciders.items()}


@dataclass(frozen=True)
class World:
    """Immutable after construction; ledgers carry all mutable spend state."""

    dimension: int
    alphabet: Alphabet
    equipment: dict[str, Equipment]
    procedures: dict[str, Procedure]
    ground_truth: dict[str, bool]
    true_purposes: dict[str, Purpose]
    verifier_of: tuple[tuple[str, str], ...] = ()

    def procedure(self, proc_id: str) -> Procedure:
        try:
            return self.procedures[proc_id]
        except KeyError:
            raise UnknownProcedure(proc_id) from None

    def equipment_item(self, eq_id: str) -> Equipment:
        try:
            return self.equipment[eq_id]
        except KeyError:
            raise UnknownEquipment(eq_id) from None

    def true_purpose(self, subject_id: str) -> Purpose:
        if subject_id not in self.procedures and subject_id not in self.equipment:
            raise UnknownSubject(subject_id)
        return self.true_purposes.get(subject_id, NoPurpose())

    def atoms(self) -> list[str]:
        return sorted(self.ground_truth)

    def verifiers_for(self, atom_id: str) -> list[str]:
        """Procedure ids whose actual purpose is deciding this atom."""
        return list(self.cost_tables.deciders.get(atom_id, ()))

    @functools.cached_property
    def cost_tables(self) -> CostTables:
        """Built on first use and kept: the registries never change."""
        return CostTables(self)

    def default_location(self) -> Location:
        return Location(("0",) * (self.dimension + 1))

    def extended(
        self,
        equipment: Sequence[Equipment] = (),
        procedures: Sequence[Procedure] = (),
        ground_truth: Optional[dict[str, bool]] = None,
        true_purposes: Optional[dict[str, Purpose]] = None,
    ) -> "World":
        """A copy with extra registry entries (reflection grows worlds this way)."""
        eq = dict(self.equipment)
        for e in equipment:
            eq[e.id] = e
        procs = dict(self.procedures)
        for p in procedures:
            procs[p.id] = p
        gt = dict(self.ground_truth)
        gt.update(ground_truth or {})
        tp = dict(self.true_purposes)
        tp.update(true_purposes or {})
        return World(self.dimension, self.alphabet, eq, procs, gt, tp, self.verifier_of)


def verifier_relation_is_acyclic(edges: Sequence[tuple[str, str]]) -> bool:
    graph: dict[str, list[str]] = {}
    for a, b in edges:
        graph.setdefault(a, []).append(b)
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[str, int] = {}

    def visit(node: str) -> bool:
        color[node] = GRAY
        for succ in graph.get(node, ()):
            state = color.get(succ, WHITE)
            if state == GRAY:
                return False
            if state == WHITE and not visit(succ):
                return False
        color[node] = BLACK
        return True

    return all(visit(n) for n in list(graph) if color.get(n, WHITE) == WHITE)


# --- spending -------------------------------------------------------------

def price(
    world: World, procedures: Iterable[Procedure], built: AbstractSet[str]
) -> tuple[ResourceVector, set[str]]:
    """Implementation of each procedure plus construction, once, of the
    equipment they use that is not in ``built``; and that new equipment."""
    total = ResourceVector.zeros(2 * world.dimension + 2)
    fresh: set[str] = set()
    for proc in procedures:
        total = total.add(proc.implementation_cost)
        for eq_id in sorted(proc.equipment_used - built - fresh):
            total = total.add(world.equipment_item(eq_id).construction_cost)
            fresh.add(eq_id)
    return total, fresh


@dataclass
class SpendLedger:
    """Single-owner record of resources spent against one world.

    ``cap`` bounds total spend when present; equipment construction is charged
    the first time any procedure using it is costed, and never again.
    """

    world: World
    cap: Optional[ResourceVector] = None
    spent: ResourceVector = None  # type: ignore[assignment]
    built: set[str] = field(default_factory=set)
    log: list[tuple[str, ResourceVector]] = field(default_factory=list)

    def __post_init__(self):
        if self.spent is None:
            self.spent = ResourceVector.zeros(2 * self.world.dimension + 2)

    def remaining(self) -> Optional[ResourceVector]:
        if self.cap is None:
            return None
        return self.cap.sub_saturating(self.spent)

    def can_spend(self, cost: ResourceVector) -> bool:
        if self.cap is None:
            return True
        return self.spent.add(cost).leq(self.cap)

    def charge(self, procedures: Sequence[Procedure], label: str) -> ResourceVector:
        """Run each procedure once and record the spend and the equipment
        built; InsufficientResources leaves no trace."""
        cost, fresh = price(self.world, procedures, self.built)
        if not self.can_spend(cost):
            raise InsufficientResources(label)
        self.spent = self.spent.add(cost)
        self.built |= fresh
        self.log.append((label, cost))
        return cost


def procedure_cost(proc: Procedure, ledger: SpendLedger) -> ResourceVector:
    """Implementation cost plus construction of not-yet-built equipment; the
    equipment is marked built so repeat calls charge implementation only."""
    cost, fresh = price(ledger.world, [proc], ledger.built)
    ledger.built |= fresh
    return cost


def implement(
    proc: Procedure,
    spacetime_proc: Procedure,
    location: Location,
    world: World,
    ledger: SpendLedger,
) -> Expression:
    """Actually carry out ``proc`` at ``location`` (as fixed by the space-time
    procedure), debiting the ledger; returns the output symbol string."""
    if proc.id not in world.procedures:
        raise UnknownProcedure(proc.id)
    if spacetime_proc.id not in world.procedures:
        raise UnknownProcedure(spacetime_proc.id)
    if not isinstance(spacetime_proc.declared_purpose, MeasureSpaceTime):
        raise UnknownProcedure(
            f"{spacetime_proc.id} is not declared as a space-time measurement"
        )
    ledger.charge([proc, spacetime_proc], f"implement:{proc.id}@{','.join(location.coords)}")
    return Expression(proc.output_fn(world, location), world.alphabet)


def purpose_holds(subject: Union[Procedure, Equipment, str], purpose: Purpose, world: World) -> bool:
    """Whether the subject's actual purpose in this world is ``purpose``."""
    subject_id = subject if isinstance(subject, str) else subject.id
    return world.true_purpose(subject_id) == purpose


def equipment_working(proc: Procedure, world: World) -> bool:
    """All equipment used by the procedure has its declared purpose in truth."""
    return all(
        purpose_holds(eq_id, world.equipment_item(eq_id).purpose, world)
        for eq_id in sorted(proc.equipment_used)
    )


def agreement(
    p_ex: Procedure,
    p_th: Procedure,
    p_st: Procedure,
    x_ex: Location,
    x_th: Location,
    world: World,
    ledger: SpendLedger,
) -> bool:
    """Outputs of the experiment and the theoretical computation coincide."""
    out_ex = implement(p_ex, p_st, x_ex, world, ledger)
    out_th = implement(p_th, p_st, x_th, world, ledger)
    return out_ex.text == out_th.text


def pur(p_ex: Procedure, p_st: Procedure, p_th: Procedure, world: World) -> bool:
    """All three procedures actually have their declared purposes."""
    return (
        purpose_holds(p_ex, p_ex.declared_purpose, world)
        and purpose_holds(p_st, p_st.declared_purpose, world)
        and purpose_holds(p_th, p_th.declared_purpose, world)
    )


def theory_experiment_test(
    p_ex: Procedure,
    p_th: Procedure,
    p_st: Procedure,
    x_ex: Location,
    x_th: Location,
    world: World,
    ledger: SpendLedger,
) -> bool:
    """Output agreement alone is necessary but not sufficient; the purposes
    must hold as well."""
    ag = agreement(p_ex, p_th, p_st, x_ex, x_th, world, ledger)
    return ag and pur(p_ex, p_st, p_th, world)


# --- output function helpers (scenario tables compile to these) ------------

def constant_output(text: str) -> OutputFn:
    def fn(world: World, location: Location) -> str:
        return text

    return fn


def truth_output(atom_id: str, when_true: str = "1", when_false: str = "0") -> OutputFn:
    def fn(world: World, location: Location) -> str:
        return when_true if world.ground_truth.get(atom_id, False) else when_false

    return fn

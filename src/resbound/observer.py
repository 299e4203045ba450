"""An observer spending resources along a monotone path, acquiring knowledge.

Spending is a fold over scripted actions: verify a statement, or implement a
procedure somewhere.  Spent resources are never recovered, so the cumulative
path p(t) is componentwise nondecreasing, and the per-step increments sum to
p(t) exactly (exact rationals, no drift).  Shared equipment makes later
verifications cheaper than their standalone minima — the conjunction
discount, realized over time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .errors import EmptyKnowledge, InsufficientResources
from .resources import ResourceVector, pareto_min, sorted_vectors
from .statements import And, Not, Statement, VerifyOutcome, render, verify
from .world import Location, MeasureSpaceTime, SpendLedger, World, implement


@dataclass(frozen=True)
class VerifyStatement:
    statement: Statement
    strategy_hint: Optional[tuple[tuple[str, str], ...]] = None  # atom -> procedure

    def describe(self) -> str:
        return f"verify {render(self.statement)}"


@dataclass(frozen=True)
class ImplementProcedure:
    procedure_id: str
    location: Location
    spacetime_id: Optional[str] = None  # default: the world's space-time procedure

    def describe(self) -> str:
        return f"implement {self.procedure_id}@{','.join(self.location.coords)}"


Action = Union[VerifyStatement, ImplementProcedure]


@dataclass(frozen=True)
class ObserverScript:
    name: str
    actions: tuple[Action, ...]
    budget_cap: Optional[ResourceVector] = None


@dataclass(frozen=True)
class KnowledgeEntry:
    statement: Statement
    truth: bool


@dataclass
class ObserverState:
    world: World
    ledger: SpendLedger
    t: int = 0
    knowledge: list[KnowledgeEntry] = field(default_factory=list)

    @classmethod
    def fresh(cls, world: World, budget_cap: Optional[ResourceVector] = None) -> "ObserverState":
        return cls(world=world, ledger=SpendLedger(world, cap=budget_cap))

    @property
    def spent(self) -> ResourceVector:
        return self.ledger.spent


@dataclass(frozen=True)
class StepRecord:
    t: int
    action: str
    delta: ResourceVector
    cumulative: ResourceVector
    outcome: str  # True | False | refused | output:<text>


def _default_spacetime(world: World) -> str:
    declared = sorted(
        pid
        for pid, proc in world.procedures.items()
        if isinstance(proc.declared_purpose, MeasureSpaceTime)
    )
    if not declared:
        raise InsufficientResources("no space-time procedure declared in world")
    return declared[0]


def step(state: ObserverState, action: Action, world: World) -> StepRecord:
    """Execute one action, debiting the shared ledger; a refused action
    leaves every component of the path exactly where it was."""
    before = state.ledger.spent
    if isinstance(action, VerifyStatement):
        hint = None if action.strategy_hint is None else dict(action.strategy_hint)
        outcome = verify(
            action.statement, state.ledger.remaining(), state.world, state.ledger, hint
        )
        if outcome is VerifyOutcome.INSUFFICIENT:
            text = "refused"
        else:
            state.knowledge.append(KnowledgeEntry(action.statement, outcome is VerifyOutcome.TRUE))
            text = outcome.value
    else:
        proc = world.procedure(action.procedure_id)
        st_id = action.spacetime_id or _default_spacetime(world)
        spacetime = world.procedure(st_id)
        try:
            output = implement(proc, spacetime, action.location, world, state.ledger)
            text = f"output:{output.text}"
        except InsufficientResources:
            text = "refused"
    delta = state.ledger.spent.sub_saturating(before)
    state.t += 1
    return StepRecord(state.t, action.describe(), delta, state.ledger.spent, text)


def knowledge_statement(state: ObserverState) -> Statement:
    """Right-nested conjunction of everything verified or refuted so far."""
    if not state.knowledge:
        raise EmptyKnowledge("observer has verified nothing yet")
    total = state.spent
    acc = ResourceVector.zeros(len(total.components))
    for _, cost in state.ledger.log:
        acc = acc.add(cost)
    if acc != total:
        raise AssertionError("path accounting drifted: sum of increments != p(t)")
    parts = [
        entry.statement if entry.truth else Not(entry.statement)
        for entry in state.knowledge
    ]
    conj = parts[-1]
    for part in reversed(parts[:-1]):
        conj = And(part, conj)
    return conj


@dataclass(frozen=True)
class Trace:
    script: str
    records: tuple[StepRecord, ...]


def run(script: ObserverScript, world: World) -> tuple[Trace, ObserverState]:
    state = ObserverState.fresh(world, script.budget_cap)
    records = [step(state, action, world) for action in script.actions]
    return Trace(script.name, tuple(records)), state


def locate_in_lattice(
    state: ObserverState, points: Iterable[ResourceVector]
) -> tuple[ResourceVector, ...]:
    """Minimal grid budgets whose theories can contain what the observer
    spent; empty when the path escapes the grid."""
    covering = [g for g in points if state.spent.leq(g)]
    if not covering:
        return ()
    return tuple(sorted_vectors(pareto_min(covering)))

"""Formulas over procedure-backed atoms and what it costs to decide them.

The cost of deciding a statement is not a single number: with vector budgets
the cheapest verification strategies form a Pareto frontier, and a statement
belongs to the budget-r domain exactly when some frontier point fits under r.

A strategy picks one deciding procedure per atom; its cost is the
implementations plus one construction of each piece of equipment not already
built.  ``_frontier`` finds the frontier without enumerating the strategies,
by a multi-criteria dynamic programme (Klamroth & Wiecek, Naval Res.
Logistics 47, 2000).  It assigns the atoms in sorted order and keys each
partial strategy on the equipment it has built so far.  Two partial
strategies with the same key pay the same for any completion, so one that
another strictly dominates can only complete to strictly dominated costs, and
is dropped; ties are kept, so every strategy of each frontier cost is found.
The keys are merged and filtered once more at the end.  The arithmetic runs
on integer tuples scaled by the world's common denominator
(``World.cost_tables``); only frontier points become Fractions again.

``verify`` charges the lexicographically least cost that fits the budget and
the ledger cap, and of its strategies the least assignment.  Both limits are
closed downwards, so a cost strictly dominated by another fits whenever it
does and is lexicographically greater: the least admissible cost is on the
frontier taken with the ledger's equipment, and ``verify`` reads it there.

Text grammar (used by scenario files and the CLI):

    statement := ATOM | '!' statement
               | '(' statement '&' statement ')'
               | '(' statement '|' statement ')'
               | '(' statement '->' statement ')'
    ATOM      := [A-Za-z0-9_]+

Binary connectives always take parentheses; whitespace between tokens is
ignored.  The canonical rendering is compact (no spaces), so rendered length
is what the language bound N(r) sees.
"""

from __future__ import annotations

import enum
import itertools
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .errors import (
    DimensionMismatch,
    NoStrategy,
    StatementSyntaxError,
    UncoveredAtom,
    UnknownEquipment,
)
from .resources import ResourceVector, pareto_min
from .world import DetermineTruth, Procedure, SpendLedger, World, price


# --- AST --------------------------------------------------------------------
# Statements are hash-consed (Filliatre & Conchon, "Type-safe modular
# hash-consing", ML Workshop 2006): building a node returns the one node with
# that structure, so `==` is identity and each node computes its hash and
# rendered length once, at construction, and its rendering at most once.  The
# prover asks for these millions of times.  One plain dict is the table; a
# node's hash is hash((tag, *parts)), with tags 0-4 for Atom, Not, And, Or,
# Implies.  The table keys sub-statements by id(), which hashes without a
# Python-level call; ids stay unique because the table is never pruned and so
# keeps every node alive.  A weak-value table, which would let nodes die, made
# the prover rebuild schema instances between searches and ran slower.

_NODES: dict[tuple, "Statement"] = {}


def _cons(cls, key: tuple, length: int, *parts):
    node = object.__new__(cls)
    init = object.__setattr__
    for name, value in zip(cls.__match_args__, parts):
        init(node, name, value)
    init(node, "_hash", hash((key[0], *parts)))
    init(node, "_len", length)
    init(node, "_text", None)
    _NODES[key] = node
    return node


class _Node:
    __slots__ = ("_hash", "_len", "_text")

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        self.__setattr__(name, None)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class Atom(_Node):
    __slots__ = __match_args__ = ("claim_id",)
    claim_id: str

    def __new__(cls, claim_id: str) -> "Atom":
        key = (0, claim_id)
        return _NODES.get(key) or _cons(cls, key, len(claim_id), claim_id)


class Not(_Node):
    __slots__ = __match_args__ = ("inner",)
    inner: "Statement"

    def __new__(cls, inner: "Statement") -> "Not":
        key = (1, id(inner))
        return _NODES.get(key) or _cons(cls, key, 1 + inner._len, inner)


class _Binary(_Node):
    __slots__ = __match_args__ = ("left", "right")
    left: "Statement"
    right: "Statement"
    _tag: int
    _glyph: str

    def __new__(cls, left: "Statement", right: "Statement"):
        key = (cls._tag, id(left), id(right))
        return _NODES.get(key) or _cons(
            cls, key, 2 + len(cls._glyph) + left._len + right._len, left, right
        )


class And(_Binary):
    __slots__ = ()
    _tag, _glyph = 2, "&"


class Or(_Binary):
    __slots__ = ()
    _tag, _glyph = 3, "|"


class Implies(_Binary):
    __slots__ = ()
    _tag, _glyph = 4, "->"


Statement = Union[Atom, Not, And, Or, Implies]


def render(s: Statement) -> str:
    text = s._text
    if text is None:
        if isinstance(s, Atom):
            text = s.claim_id
        elif isinstance(s, Not):
            text = "!" + render(s.inner)
        else:
            text = f"({render(s.left)}{s._glyph}{render(s.right)})"
        object.__setattr__(s, "_text", text)
    return text


def rendered_length(s: Statement) -> int:
    return s._len


def atoms_of(s: Statement) -> frozenset[str]:
    if isinstance(s, Atom):
        return frozenset({s.claim_id})
    if isinstance(s, Not):
        return atoms_of(s.inner)
    return atoms_of(s.left) | atoms_of(s.right)


def subformulas(s: Statement) -> frozenset[Statement]:
    if isinstance(s, Atom):
        return frozenset({s})
    if isinstance(s, Not):
        return frozenset({s}) | subformulas(s.inner)
    return frozenset({s}) | subformulas(s.left) | subformulas(s.right)


def evaluate(s: Statement, valuation: Mapping[str, bool]) -> bool:
    if isinstance(s, Atom):
        return bool(valuation[s.claim_id])
    if isinstance(s, Not):
        return not evaluate(s.inner, valuation)
    if isinstance(s, And):
        return evaluate(s.left, valuation) and evaluate(s.right, valuation)
    if isinstance(s, Or):
        return evaluate(s.left, valuation) or evaluate(s.right, valuation)
    return (not evaluate(s.left, valuation)) or evaluate(s.right, valuation)


def statement_sort_key(s: Statement) -> tuple[int, str]:
    return (s._len, render(s))


# --- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(->|[()!&|]|[A-Za-z0-9_]+)")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise StatementSyntaxError(f"bad character at offset {pos}: {text[pos:pos + 8]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse(text: str) -> Statement:
    tokens = _tokenize(text)
    pos = 0

    def peek() -> Optional[str]:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: Optional[str] = None) -> str:
        nonlocal pos
        tok = peek()
        if tok is None:
            raise StatementSyntaxError("unexpected end of input")
        if expected is not None and tok != expected:
            raise StatementSyntaxError(f"expected {expected!r}, found {tok!r}")
        pos += 1
        return tok

    def statement() -> Statement:
        tok = peek()
        if tok == "!":
            take()
            return Not(statement())
        if tok == "(":
            take()
            left = statement()
            op = take()
            right = statement()
            take(")")
            if op == "&":
                return And(left, right)
            if op == "|":
                return Or(left, right)
            if op == "->":
                return Implies(left, right)
            raise StatementSyntaxError(f"unknown connective {op!r}")
        if tok is not None and re.fullmatch(r"[A-Za-z0-9_]+", tok):
            take()
            return Atom(tok)
        raise StatementSyntaxError(f"unexpected token {tok!r}")

    try:
        result = statement()
    except RecursionError:
        raise StatementSyntaxError("statement nested too deeply") from None
    if pos != len(tokens):
        raise StatementSyntaxError(f"trailing tokens: {' '.join(tokens[pos:])}")
    return result


def enumerate_statements(atom_ids: Iterable[str], max_render_length: int) -> list[Statement]:
    """All statements of rendered length <= the bound, ascending by length.

    Deterministic: per length, atoms first, then negations, then &, |, ->
    pairs ordered by left-length then construction order."""
    names = sorted(a for a in atom_ids if len(a) <= max_render_length)
    by_len: dict[int, list[Statement]] = {}

    def bucket(n: int) -> list[Statement]:
        return by_len.setdefault(n, [])

    for name in names:
        bucket(len(name)).append(Atom(name))
    out: list[Statement] = []
    for length in range(1, max_render_length + 1):
        fresh: list[Statement] = list(by_len.get(length, []))
        for inner in by_len.get(length - 1, []):
            fresh.append(Not(inner))
        for ctor, overhead in ((And, 3), (Or, 3), (Implies, 4)):
            need = length - overhead
            for l_left in range(1, need):
                for left in by_len.get(l_left, []):
                    for right in by_len.get(need - l_left, []):
                        fresh.append(ctor(left, right))
        by_len[length] = fresh
        out.extend(fresh)
    return out


# --- verification strategies and cost ----------------------------------------

@dataclass(frozen=True)
class VerificationStrategy:
    """A choice of deciding procedure per atom, plus what is already built."""

    assignments: tuple[tuple[str, str], ...]  # (atom_id, procedure_id), sorted
    prebuilt: frozenset[str] = frozenset()

    @classmethod
    def of(cls, mapping: Mapping[str, str], prebuilt: Iterable[str] = ()) -> "VerificationStrategy":
        return cls(tuple(sorted(mapping.items())), frozenset(prebuilt))

    def procedure_for(self, atom_id: str) -> str:
        for a, p in self.assignments:
            if a == atom_id:
                return p
        raise UncoveredAtom(atom_id)

    def covers(self, atom_ids: Iterable[str]) -> bool:
        have = {a for a, _ in self.assignments}
        return set(atom_ids) <= have


@dataclass(frozen=True)
class CostResult:
    frontier: tuple[ResourceVector, ...]
    witnesses: tuple[tuple[ResourceVector, tuple[VerificationStrategy, ...]], ...]


def strategy_cost(s: Statement, strategy: VerificationStrategy, world: World) -> ResourceVector:
    """Implementations for each distinct atom plus one-time construction of
    each distinct piece of equipment not already built.  Negation is free;
    duplicate subformulas are collapsed before costing."""
    needed = sorted(atoms_of(s))
    if not strategy.covers(needed):
        missing = sorted(set(needed) - {a for a, _ in strategy.assignments})
        raise UncoveredAtom(", ".join(missing))
    procs = [world.procedure(strategy.procedure_for(atom_id)) for atom_id in needed]
    for atom_id, proc in zip(needed, procs):
        if world.true_purposes.get(proc.id) != DetermineTruth(atom_id):
            raise NoStrategy(f"{proc.id} does not actually decide {atom_id}")
    return price(world, procs, strategy.prebuilt)[0]


def _plus(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.add, a, b))


def _frontier(
    s: Statement, world: World, prebuilt: frozenset[str]
) -> list[tuple[ResourceVector, tuple[VerificationStrategy, ...]]]:
    """Each Pareto-minimal cost of deciding ``s`` with ``prebuilt`` already
    built, ascending, with every strategy of exactly that cost in assignment
    order.  The dynamic programme is set out in the module docstring."""
    needed = sorted(atoms_of(s))
    options = []
    for atom_id in needed:
        procs = world.verifiers_for(atom_id)
        if not procs:
            raise NoStrategy(f"no procedure decides {atom_id}")
        options.append(procs)
    tables = world.cost_tables
    n = 2 * world.dimension + 2

    def checked(part: tuple[int, ...]) -> tuple[int, ...]:
        if len(part) != n:
            raise DimensionMismatch(f"{n} vs {len(part)} components")
        return part

    # equipment built beyond prebuilt -> partial cost -> procedure ids so far
    states = {frozenset(): {(0,) * n: [()]}}
    for procs in options:
        grown: dict = {}
        for built, partials in states.items():
            for pid in procs:
                fresh = world.procedure(pid).equipment_used - prebuilt - built
                step = checked(tables.implementation[pid])
                for eq_id in sorted(fresh):
                    if eq_id not in tables.construction:
                        raise UnknownEquipment(eq_id)
                    step = _plus(step, checked(tables.construction[eq_id]))
                bucket = grown.setdefault(built | fresh, {})
                for cost, picks in partials.items():
                    bucket.setdefault(_plus(cost, step), []).extend(p + (pid,) for p in picks)
        states = {
            built: {cost: partials[cost] for cost in pareto_min(partials)}
            for built, partials in grown.items()
        }
    merged: dict = {}
    for partials in states.values():
        for cost, picks in partials.items():
            merged.setdefault(cost, []).extend(picks)
    return [
        (
            ResourceVector(tuple(Fraction(c, tables.scale) for c in point)),
            tuple(
                VerificationStrategy(tuple(zip(needed, picks)), prebuilt)
                for picks in sorted(merged[point])
            ),
        )
        for point in sorted(pareto_min(merged))
    ]


def min_cost(s: Statement, world: World) -> CostResult:
    """Pareto frontier of verification costs over every covering strategy."""
    witnesses = tuple(_frontier(s, world, frozenset()))
    return CostResult(tuple(point for point, _ in witnesses), witnesses)


def in_domain(s: Statement, budget: ResourceVector, world: World) -> bool:
    """Whether some minimal verification cost of ``s`` fits inside ``budget``."""
    return domain_diagnostic(s, budget, world) is None


def domain_diagnostic(s: Statement, budget: ResourceVector, world: World) -> Optional[str]:
    """None when the statement is in the budget's domain, else the reason."""
    try:
        result = min_cost(s, world)
    except NoStrategy as exc:
        return f"no-strategy: {exc}"
    if any(point.leq(budget) for point in result.frontier):
        return None
    return "frontier-exceeds-budget"


class VerifyOutcome(enum.Enum):
    TRUE = "True"
    FALSE = "False"
    INSUFFICIENT = "InsufficientResources"


def verify(
    s: Statement,
    budget: Optional[ResourceVector],
    world: World,
    ledger: SpendLedger,
    strategy: Optional[Mapping[str, str]] = None,
) -> VerifyOutcome:
    """Decide ``s`` by actually running one admissible strategy.

    The strategy with the lexicographically least cost that fits both
    ``budget`` (when given) and the ledger cap is charged, ties going to the
    least assignment; a fixed ``strategy`` (atom -> procedure) is the only
    one tried.  Prior construction recorded in the ledger makes later
    verifications cheaper, and only the procedures deciding atoms of ``s``
    run and build equipment.  Truth comes from the chosen procedures'
    outputs, never from peeking at ground truth directly.
    """
    prebuilt = frozenset(ledger.built)

    def admissible(cost: ResourceVector) -> bool:
        return (budget is None or cost.leq(budget)) and ledger.can_spend(cost)

    if strategy is not None:
        chosen = VerificationStrategy.of(strategy, prebuilt)
        if not admissible(strategy_cost(s, chosen, world)):
            return VerifyOutcome.INSUFFICIENT
    else:
        try:
            frontier = _frontier(s, world, prebuilt)
        except NoStrategy:
            return VerifyOutcome.INSUFFICIENT
        chosen = next((ws[0] for point, ws in frontier if admissible(point)), None)
        if chosen is None:
            return VerifyOutcome.INSUFFICIENT
    procs = {a: world.procedure(chosen.procedure_for(a)) for a in sorted(atoms_of(s))}
    loc = world.default_location()
    valuation = {a: proc.output_fn(world, loc) == "1" for a, proc in procs.items()}
    ledger.charge(list(procs.values()), f"verify:{render(s)}")
    return VerifyOutcome.TRUE if evaluate(s, valuation) else VerifyOutcome.FALSE


def non_closure_witness(
    budget: ResourceVector, world: World
) -> Optional[tuple[Statement, Statement]]:
    """Atoms S, T both decidable within budget whose conjunction is not.

    Exhaustive over the world's atom registry in sorted order, so the first
    witness is deterministic; None when the domain happens to be closed."""
    names = world.atoms()
    memo: dict[str, bool] = {}

    def atom_fits(name: str) -> bool:
        if name not in memo:
            memo[name] = in_domain(Atom(name), budget, world)
        return memo[name]

    for a, b in itertools.combinations(names, 2):
        if not (atom_fits(a) and atom_fits(b)):
            continue
        conj = And(Atom(a), Atom(b))
        if not in_domain(conj, budget, world):
            return (Atom(a), Atom(b))
    return None

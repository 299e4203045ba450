"""Axiom admission, Gödel coding, and budget-bounded Hilbert proof search.

The object logic is quantifier-free classical propositional logic: nine
axiom schemas (implication, classical contraposition, conjunction and
disjunction introduction/elimination) with modus ponens as the only rule.
A proof is a sequence of formulas, each an admitted axiom, a schema
instance, or modus ponens over earlier steps.  Every step must fit the
theory's language bound N(r), and the whole proof is priced as expressions
held for the remainder of the proof: step i of k pays its creation and
display cost plus maintenance for the k-i intervals it stays alive, so
longer proofs pay superlinear energy.

Schema metavariables range over the subformula closure of the admitted
axioms and the goal, plus the negations of those subformulas, capped at N(r).
Up to a limit on its size (below) the search is exhaustive: a goal has a
proof within the budget and those bounds exactly when ``prove`` returns one.

A search reads only the admitted axiom statements (in order), the step
bound, the goal's instantiation pool and an effective cap: N(r), or none
once N(r) reaches the longest instance any schema can form over the uncapped
closure.  Its entries are the axioms and every schema instance over the pool
within the cap.  One cache, keyed on those inputs, serves every goal and
theory that agree on them, such as the links of a chain or the grid points
of a lattice that admit the same axioms, and keeps each goal's candidate
derivations found so far.  The budget enters only afterwards: a repeated
request costs one linearization.

A goal is refused before anything is built for it unless at most (k+1)//2
axioms, one fewer if it is no axiom or right-spine suffix of one, entail it;
the truth vectors decide.  Else no derivation fits the step bound k: every
node but the goal is cited by a modus ponens, which cites two distinct nodes,
so e entries (axioms and instances) take at least 2e-1 nodes.  Instances are
tautologies, so the axioms among the entries entail the goal; and modus
ponens over axioms derives only them and their right-spine suffixes.

A derivation is a pair (nodes, via): its node set, and for each node t it
derives by modus ponens the f = (x->t) it takes, with x; every other node is
an entry.  ``prove`` tries derivations by (node count, total rendered length
of the nodes), then the sorted renderings of the nodes, one per node set, and
takes the first whose cheapest order fits r.  A derivation of s is s's entry,
one step and never beaten, or modus ponens on f = (x->s) and x, x not s.  The
f's are right-spine suffixes (x->s), x entailed, of the axioms and of the
instances within the cap, found by matching s against the templates'
suffixes and an index of the axioms', without enumerating instances.  Up to
four steps that leaves three shapes, built directly: s is an entry (one
step); f and x are entries (three); or f is an entry and x comes from the
entry (f->x) and f, or the other way round (four).  Any other derivation of
at most four steps has a superset of one's nodes.

Above four steps an A* search (Hart, Nilsson & Raphael, IEEE Trans. SSC 4(2),
1968) runs over partial derivations.  A state is a node set N holding the
goal, and the nodes of N not yet justified.  An entry is justified as one
when it joins N, as deriving it keeps N or grows it; the search expands the
first open node t by each f = (x->t), adding f and x to N.  With i the
instances in N, or 1 if a node of N is neither an axiom nor a right-spine
suffix of one, and a the axioms in N, or the least number that entail the
goal if more, a state's bound is max(|N|, 2(i+a)-1): the refusal argument
applied to N, and at the root the refusal test.  It never falls as N grows
and is |N| once nothing is open, so no completion sorts below the state's
(bound, total rendered length of N, sorted renderings of N), and complete
derivations leave a heap ordered by those in exactly ``prove``'s order.  The
search prunes a state whose bound exceeds k, skips a cyclic derivation or a
node set already yielded, and gives up with ``SearchTooLarge`` after
``_MAX_STATES`` states.  So at every step bound the node sets ``prove``
tries, and their order, depend neither on the order of the axioms nor on
the goals asked before.

Linearization is exact: among the orders that put premises before conclusions
and the goal last, it takes the one with the least maintenance energy, the
only cost the order changes, and breaks ties by the smaller tuple of step
renderings.  That order fits r exactly when some order does.  The proof
checker then re-prices every step under the theory's own cost parameters and
alphabet.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union

from .errors import MalformedCode, SearchTooLarge, StatementTooLong
from .expressions import Alphabet, CostParameters, Expression, expression_cost, max_length
from .resources import ResourceVector
from .statements import (
    And,
    Atom,
    Implies,
    Not,
    Or,
    Statement,
    atoms_of,
    enumerate_statements,
    evaluate,
    in_domain,
    render,
    rendered_length,
    statement_sort_key,
    subformulas,
)
from .world import World


# --- Gödel coding -----------------------------------------------------------

_DIGITS = Alphabet.from_string("0123456789")


@dataclass(frozen=True)
class GodelMap:
    """Fixed-width decimal index coding of expressions over an alphabet."""

    alphabet: Alphabet

    @property
    def width(self) -> int:
        return len(str(self.alphabet.size - 1))

    def encode_text(self, text: str) -> str:
        w = self.width
        return "".join(str(self.alphabet.index_of(ch)).zfill(w) for ch in text)

    def decode_text(self, code: str) -> str:
        w = self.width
        if len(code) % w != 0:
            raise MalformedCode(f"code length {len(code)} not a multiple of width {w}")
        out = []
        for i in range(0, len(code), w):
            chunk = code[i : i + w]
            if not chunk.isdigit():
                raise MalformedCode(f"non-digit chunk {chunk!r}")
            idx = int(chunk)
            if idx >= self.alphabet.size:
                raise MalformedCode(f"index {idx} out of range")
            out.append(self.alphabet.symbols[idx])
        return "".join(out)

    def encode(self, expr: Expression) -> Expression:
        return Expression(self.encode_text(expr.text), _DIGITS)

    def decode(self, code: Union[Expression, str]) -> Expression:
        text = code.text if isinstance(code, Expression) else code
        return Expression(self.decode_text(text), self.alphabet)


def godel_encode(expr: Expression) -> Expression:
    return GodelMap(expr.alphabet).encode(expr)


def godel_decode(code: Union[Expression, str], alphabet: Alphabet) -> Expression:
    return GodelMap(alphabet).decode(code)


# --- axiom schemas -----------------------------------------------------------

_A = Atom("?a")
_B = Atom("?b")
_C = Atom("?c")


@dataclass(frozen=True)
class Schema:
    index: int
    name: str
    metavars: tuple[str, ...]
    template: Statement


SCHEMAS: tuple[Schema, ...] = (
    Schema(0, "weakening", ("?a", "?b"), Implies(_A, Implies(_B, _A))),
    Schema(
        1,
        "distribution",
        ("?a", "?b", "?c"),
        Implies(
            Implies(_A, Implies(_B, _C)),
            Implies(Implies(_A, _B), Implies(_A, _C)),
        ),
    ),
    Schema(
        2,
        "contraposition",
        ("?a", "?b"),
        Implies(Implies(Not(_A), Not(_B)), Implies(_B, _A)),
    ),
    Schema(3, "and-elim-left", ("?a", "?b"), Implies(And(_A, _B), _A)),
    Schema(4, "and-elim-right", ("?a", "?b"), Implies(And(_A, _B), _B)),
    Schema(5, "and-intro", ("?a", "?b"), Implies(_A, Implies(_B, And(_A, _B)))),
    Schema(6, "or-intro-left", ("?a", "?b"), Implies(_A, Or(_A, _B))),
    Schema(7, "or-intro-right", ("?a", "?b"), Implies(_B, Or(_A, _B))),
    Schema(
        8,
        "or-elim",
        ("?a", "?b", "?c"),
        Implies(
            Implies(_A, _C),
            Implies(Implies(_B, _C), Implies(Or(_A, _B), _C)),
        ),
    ),
)


def substitute(template: Statement, bindings: dict[str, Statement]) -> Statement:
    if isinstance(template, Atom):
        return bindings.get(template.claim_id, template)
    if isinstance(template, Not):
        return Not(substitute(template.inner, bindings))
    ctor = type(template)
    return ctor(substitute(template.left, bindings), substitute(template.right, bindings))


# --- axioms and theories ------------------------------------------------------

class Justification:
    VERIFIED_IN_WORLD = "verified"
    POSTULATED = "postulated"


@dataclass(frozen=True)
class AxiomCandidate:
    statement: Statement
    justification: str = Justification.VERIFIED_IN_WORLD


@dataclass(frozen=True)
class RejectedAxiom:
    statement: Statement
    justification: str
    reason: str


@dataclass(frozen=True)
class AxiomSet:
    admitted: tuple[AxiomCandidate, ...]
    rejected: tuple[RejectedAxiom, ...] = ()


def admit_axioms(
    candidates: tuple[AxiomCandidate, ...],
    budget: ResourceVector,
    world: World,
    cost_params: CostParameters,
) -> AxiomSet:
    """Filter candidates down to those the budget can express and decide.

    Every candidate must fit the language bound and be decidable within the
    budget.  Truth in the world is additionally required of verified
    candidates; postulated ones are taken on the scenario author's word,
    which is exactly the hole negative-control scenarios poke at.
    """
    cap = max_length(budget, cost_params)
    admitted: list[AxiomCandidate] = []
    rejected: list[RejectedAxiom] = []
    for cand in candidates:
        length = rendered_length(cand.statement)
        if cap is not None and length > cap:
            rejected.append(RejectedAxiom(cand.statement, cand.justification, "statement-too-long"))
            continue
        if not in_domain(cand.statement, budget, world):
            rejected.append(RejectedAxiom(cand.statement, cand.justification, "outside-domain"))
            continue
        if cand.justification == Justification.VERIFIED_IN_WORLD and not evaluate(
            cand.statement, world.ground_truth
        ):
            rejected.append(RejectedAxiom(cand.statement, cand.justification, "false-in-world"))
            continue
        admitted.append(cand)
    return AxiomSet(tuple(admitted), tuple(rejected))


@dataclass(frozen=True, eq=False)
class Theory:
    budget: ResourceVector
    axioms: AxiomSet
    cost_params: CostParameters
    world: World
    candidates: tuple[AxiomCandidate, ...] = ()
    max_proof_steps: int = 4
    name: str = "T"

    def length_cap(self) -> Optional[int]:
        return self._length_cap

    @functools.cached_property
    def _length_cap(self) -> Optional[int]:
        """N(r), computed once per theory."""
        return max_length(self.budget, self.cost_params)

    def render_expression(self, s: Statement) -> Expression:
        return Expression(render(s), self.world.alphabet)


def build_theory(
    budget: ResourceVector,
    candidates: tuple[AxiomCandidate, ...],
    world: World,
    cost_params: CostParameters,
    max_proof_steps: int = 4,
    name: str = "T",
) -> Theory:
    axioms = admit_axioms(candidates, budget, world, cost_params)
    return Theory(budget, axioms, cost_params, world, candidates, max_proof_steps, name)


# --- proof objects ------------------------------------------------------------

@dataclass(frozen=True)
class SchemaInstance:
    schema_index: int
    bindings: tuple[tuple[str, Statement], ...]


@dataclass(frozen=True)
class TheoryAxiom:
    axiom_index: int


@dataclass(frozen=True)
class ModusPonens:
    implication_step: int
    antecedent_step: int


StepJustification = Union[SchemaInstance, TheoryAxiom, ModusPonens]


@dataclass(frozen=True)
class ProofStep:
    statement: Statement
    justification: StepJustification
    cost: ResourceVector


@dataclass(frozen=True)
class Proof:
    steps: tuple[ProofStep, ...]
    cost: ResourceVector

    @property
    def conclusion(self) -> Statement:
        return self.steps[-1].statement


def _step_costs(
    theory: Theory, statements: list[Statement]
) -> tuple[list[ResourceVector], ResourceVector]:
    """Each step's cost in this order, and their sum: step pos of k is
    created, displayed and maintained for the k-1-pos intervals after it."""
    k = len(statements)
    per_step = [
        expression_cost(theory.render_expression(s), k - 1 - pos, theory.cost_params)
        for pos, s in enumerate(statements)
    ]
    zero = ResourceVector.zeros(len(theory.budget.components))
    return per_step, functools.reduce(ResourceVector.add, per_step, zero)


def check_proof(theory: Theory, proof: Proof) -> list[str]:
    """Independent validation: every justification re-derived, every cost
    recomputed.  Returns a list of problems; empty means the proof stands."""
    problems: list[str] = []
    cap = theory.length_cap()
    per_step, total = _step_costs(theory, [step.statement for step in proof.steps])
    admitted = theory.axioms.admitted
    for pos, step in enumerate(proof.steps):
        if cap is not None and rendered_length(step.statement) > cap:
            problems.append(f"step {pos}: formula exceeds language bound")
        just = step.justification
        if isinstance(just, TheoryAxiom):
            if not (0 <= just.axiom_index < len(admitted)):
                problems.append(f"step {pos}: axiom index out of range")
            elif admitted[just.axiom_index].statement != step.statement:
                problems.append(f"step {pos}: statement is not the cited axiom")
        elif isinstance(just, SchemaInstance):
            if not (0 <= just.schema_index < len(SCHEMAS)):
                problems.append(f"step {pos}: schema index out of range")
            else:
                schema = SCHEMAS[just.schema_index]
                bindings = dict(just.bindings)
                if set(bindings) != set(schema.metavars):
                    problems.append(f"step {pos}: bindings do not match schema metavariables")
                elif substitute(schema.template, bindings) != step.statement:
                    problems.append(f"step {pos}: statement is not the cited instance")
        elif isinstance(just, ModusPonens):
            i, j = just.implication_step, just.antecedent_step
            if not (0 <= i < pos and 0 <= j < pos):
                problems.append(f"step {pos}: modus ponens must cite earlier steps")
            else:
                expected = Implies(proof.steps[j].statement, step.statement)
                if proof.steps[i].statement != expected:
                    problems.append(f"step {pos}: cited steps do not fit modus ponens")
        else:
            problems.append(f"step {pos}: unknown justification {just!r}")
        if step.cost != per_step[pos]:
            problems.append(f"step {pos}: cost mismatch")
    if proof.cost != total:
        problems.append("total cost mismatch")
    if not total.leq(theory.budget):
        problems.append("proof cost exceeds budget")
    return problems


# --- proof search -------------------------------------------------------------

# a derivation's node set, and the f = (x->t) of each node t it derives
Derivation = tuple[frozenset[Statement], dict[Statement, Statement]]


def _closure(axioms: tuple[Statement, ...], goal: Statement) -> set[Statement]:
    """Subformulas of the axioms and the goal, plus their negations."""
    subs: set[Statement] = set()
    for s in (goal, *axioms):
        subs |= subformulas(s)
    return subs | {Not(s) for s in subs}


def _instantiation_pool(closure: set[Statement], cap: Optional[int]) -> list[Statement]:
    pool = [s for s in closure if cap is None or rendered_length(s) <= cap]
    return sorted(pool, key=statement_sort_key)


def _schema_shape(template: Statement) -> tuple[int, dict[str, int]]:
    """Rendered length of an instance as const + sum(coeff_v * len(binding_v))."""
    if isinstance(template, Atom):
        if template.claim_id.startswith("?"):
            return 0, {template.claim_id: 1}
        return len(template.claim_id), {}
    if isinstance(template, Not):
        const, coeffs = _schema_shape(template.inner)
        return const + 1, coeffs
    overhead = 4 if isinstance(template, Implies) else 3
    c1, k1 = _schema_shape(template.left)
    c2, k2 = _schema_shape(template.right)
    merged = dict(k1)
    for var, count in k2.items():
        merged[var] = merged.get(var, 0) + count
    return overhead + c1 + c2, merged


_SCHEMA_SHAPES = [_schema_shape(schema.template) for schema in SCHEMAS]


_SCOPE = {"Not": Not, "And": And, "Or": Or, "Implies": Implies}


def _source(t: Statement, names: dict[str, str]) -> str:
    """Python source that builds t, reading each metavariable from ``names``."""
    if isinstance(t, Atom):
        return names[t.claim_id]
    if isinstance(t, Not):
        return f"Not({_source(t.inner, names)})"
    return f"{type(t).__name__}({_source(t.left, names)}, {_source(t.right, names)})"


@functools.cache
def _matcher(template: Statement):
    """A function from a statement to the metavariable values that make the
    template it, or None: the template compiled into type and identity tests."""
    tests: list[str] = []
    found: dict[str, str] = {}

    def walk(t: Statement, path: str) -> None:
        if isinstance(t, Atom):
            if t.claim_id in found:
                tests.append(f"{path} is {found[t.claim_id]}")
            found.setdefault(t.claim_id, path)
        else:
            tests.append(f"type({path}) is {type(t).__name__}")
            for part in ("inner",) if isinstance(t, Not) else ("left", "right"):
                walk(getattr(t, part), f"{path}.{part}")

    walk(template, "s")
    values = ", ".join(f"{var!r}: {path}" for var, path in found.items())
    return eval(f"lambda s: {{{values}}} if {' and '.join(tests) or 'True'} else None", _SCOPE)


def _truth_vectors(
    axioms: tuple[Statement, ...], pool: list[Statement]
) -> tuple[int, Callable[[Statement], int]]:
    """The bitmask of the valuations of the atoms in play that satisfy every
    axiom, which an entailed statement's truth vector holds, and the function
    giving any statement's truth vector over those atoms: the valuations that
    make it true, whether or not they satisfy the axioms."""
    names = sorted(set().union(*map(atoms_of, (*axioms, *pool))))
    rows = 1 << len(names)
    full = (1 << rows) - 1
    # atom i is true in the upper half of each block of 2 << i valuations
    vector = {
        Atom(name): full // ((1 << (1 << i)) + 1) << (1 << i) for i, name in enumerate(names)
    }

    def of(s: Statement) -> int:
        if s not in vector:
            if isinstance(s, Not):
                vector[s] = full ^ of(s.inner)
            elif isinstance(s, And):
                vector[s] = of(s.left) & of(s.right)
            elif isinstance(s, Or):
                vector[s] = of(s.left) | of(s.right)
            else:
                vector[s] = (full ^ of(s.left)) | of(s.right)
        return vector[s]

    return functools.reduce(int.__and__, map(of, axioms), full), of


def _least_axioms(
    axioms: tuple[Statement, ...], goal: Statement, steps: int, of: Callable[[Statement], int]
) -> Optional[int]:
    """The fewest axioms that entail the goal (``of`` gives unmasked vectors),
    or None above (steps+1)//2, one fewer unless the goal is an axiom or a
    right-spine suffix of one: no derivation within the step bound has more."""

    def on_spine(s: Statement) -> bool:
        return s == goal or isinstance(s, Implies) and on_spine(s.right)

    def entailing(size: int) -> bool:
        # a set entails the goal when no valuation satisfies it and falsifies it
        return any(functools.reduce(int.__and__, map(of, subset), of(Not(goal))) == 0
                   for subset in itertools.combinations(axioms, size))

    most = min((steps + 1) // 2 - all(not on_spine(ax) for ax in axioms), len(axioms))
    # a superset of an entailing set entails, so the largest sets decide refusal
    if most < 0 or not entailing(most):
        return None
    return next(size for size in range(most + 1) if entailing(size))


def _cheapest_order(
    nodes: frozenset[Statement], via: dict[Statement, Statement], root: Statement,
    delta_e: Fraction,
) -> list[Statement]:
    """The step order with the least upkeep, premises before conclusions and
    the goal last; equal upkeep goes to the smaller tuple of renderings.

    Step pos of k pays (k-1-pos)*L*delta_e maintenance energy and nothing
    else a step costs depends on the order, so this is precedence-constrained
    sequencing, solved exactly by a DP over the set of steps already placed
    (Lawler, Ann. Discrete Math. 2, 1978)."""
    rest = [s for s in nodes if s != root]
    texts = [render(s) for s in rest]
    bit = {s: 1 << i for i, s in enumerate(rest)}
    needs = [bit[via[s]] | bit[via[s].left] if s in via else 0 for s in rest]
    # with delta_e = 0 every order costs the same and the renderings decide
    weights = [len(t) if delta_e else 0 for t in texts]
    full = (1 << len(rest)) - 1

    @functools.cache
    def best(placed: int) -> tuple[int, tuple[str, ...]]:
        if placed == full:
            return 0, ()
        hold = len(rest) - placed.bit_count()
        options = []
        for i, need in enumerate(needs):
            if not placed >> i & 1 and need | placed == placed:
                upkeep, tail = best(placed | 1 << i)
                options.append((upkeep + hold * weights[i], (texts[i],) + tail))
        return min(options)

    by_text = dict(zip(texts, rest))
    return [by_text[t] for t in best(0)[1]] + [root]


def _linearize(
    theory: Theory, goal: Statement, derivation: Derivation, entry_of: Callable
) -> Optional[Proof]:
    """The derivation's cheapest order as a proof, or None if it exceeds the
    budget; ``entry_of`` justifies each node the derivation does not derive."""
    nodes, via = derivation
    order = _cheapest_order(nodes, via, goal, theory.cost_params.delta_e)
    per_step, total = _step_costs(theory, order)
    if not total.leq(theory.budget):
        return None
    index = {stmt: pos for pos, stmt in enumerate(order)}
    steps = tuple(
        ProofStep(s, ModusPonens(index[via[s]], index[via[s].left]) if s in via else entry_of(s),
                  cost)
        for s, cost in zip(order, per_step)
    )
    proof = Proof(steps, total)
    problems = check_proof(theory, proof)
    if problems:
        raise AssertionError("internal proof checker rejected a found proof: " + "; ".join(problems))
    return proof


def _effective_cap(closure: set[Statement], cap: Optional[int]) -> Optional[int]:
    """N(r), or None when N(r) is at least the longest instance any schema can
    form over the unfiltered pool: then the cap prunes nothing."""
    if cap is None:
        return None
    longest = max(rendered_length(s) for s in closure)
    widest = max(const + longest * sum(coeffs.values()) for const, coeffs in _SCHEMA_SHAPES)
    return None if cap >= widest else cap


@functools.cache
def _suffixes() -> list[tuple]:
    """Per right-spine suffix (x_p->s_p) of a template: its schema, a matcher
    for s_p, a builder of x from the values, the metavariables of x_p that s_p
    leaves open, and whether x_p is one of them."""
    out = []
    for schema in SCHEMAS:
        names = {var: f"v[{var!r}]" for var in schema.metavars}
        t = schema.template
        while isinstance(t, Implies):
            free = sorted(atoms_of(t.left) - atoms_of(t.right))
            build = eval(f"lambda v: {_source(t.left, names)}", _SCOPE)
            sure = isinstance(t.left, Atom) and free == [t.left.claim_id]
            out.append((schema, _matcher(t.right), build, free, sure))
            t = t.right
    return out


def _acyclic(via: dict[Statement, Statement]) -> bool:
    """Whether every node the premise map derives rests on entries alone."""
    left = dict(via)
    while left:
        ready = [t for t, f in left.items() if f not in left and f.left not in left]
        if not ready:
            return False
        for t in ready:
            del left[t]
    return True


class _Search:
    """One cached search: entailment over the pool and, per goal asked for,
    its candidate derivations found so far and an iterator of the rest."""

    def __init__(
        self,
        axioms: tuple[Statement, ...],
        pool: list[Statement],
        cap: Optional[int],
        steps: int,
        everything: int,
        truth: Callable[[Statement], int],
    ):
        self.axioms, self.pool, self.cap, self.steps = axioms, pool, cap, steps
        self.everything, self.truth = everything, truth
        self.in_pool = frozenset(pool)
        # per goal asked for: its candidates so far and the rest, or None if out of reach
        self.found: dict[Statement, Optional[tuple[list, Iterator[Derivation]]]] = {}
        self.entries: dict[Statement, Optional[Union[TheoryAxiom, SchemaInstance]]] = {}
        self.premises: dict[Statement, list[Statement]] = {}
        self.entailed_pool = [s for s in pool if self._entails(s)]
        # each right-spine suffix of an axiom, under its conclusion
        self.suffixes: dict[Statement, dict[Statement, None]] = {}
        for ax in axioms:
            while isinstance(ax, Implies):
                self.suffixes.setdefault(ax.right, {})[ax] = None
                ax = ax.right
        self.spine = set(axioms) | set(self.suffixes)

    def start(self, goal: Statement, least: Optional[int]) -> None:
        """Begin the goal's candidates, given the fewest axioms that entail it
        (``_least_axioms``), or mark it out of reach if that is None."""
        self.found[goal] = None if least is None else ([], iter(self._shaped(goal)) if (
            self.steps <= _SHAPED_STEPS) else self._astar(goal, least))

    def derivations(self, goal: Statement) -> Iterator[Derivation]:
        """The goal's candidate derivations in the order ``prove`` tries them,
        none if ``_least_axioms`` refuses it."""
        if goal not in self.found:
            self.start(goal, _least_axioms(self.axioms, goal, self.steps, self.truth))
        if self.found[goal] is None:
            return
        found, more = self.found[goal]
        yield from found
        try:
            for d in more:
                found.append(d)
                yield d
        except SearchTooLarge:
            del self.found[goal]  # so a repeated request gives up again
            raise

    def _astar(self, goal: Statement, least: int) -> Iterator[Derivation]:
        """The goal's derivations within the step bound, one per node set, in
        ``prove``'s order.  A state is its node set, its open nodes, (t, f) per
        node t derived from f = (x->t) and x, its instances and axioms, whether
        a node is off the axioms' spines, and its total length."""
        heap: list[tuple] = []
        tick = itertools.count()  # equal keys leave in the order they came
        yielded: set[frozenset[Statement]] = set()

        def push(nodes, open_, derived, instances, axioms, off, length, new) -> None:
            """Push the state with the nodes ``new`` added, unless it is pruned."""
            for n in new:
                entry = self._entry_of(n)
                if entry is None:
                    open_ += (n,)
                elif isinstance(entry, TheoryAxiom):
                    axioms += 1
                else:
                    instances += 1
                off = off or n not in self.spine
                length += n._len
            nodes = nodes.union(new)
            bound = max(len(nodes), 2 * (max(instances, off) + max(axioms, least)) - 1)
            if bound <= self.steps:
                heapq.heappush(heap, (bound, length, sorted(map(render, nodes)), next(tick),
                                      nodes, open_, derived, instances, axioms, off))

        push(frozenset(), (), (), 0, 0, False, 0, [goal])
        for _ in range(_MAX_STATES):
            if not heap:
                return
            _, length, _, _, nodes, open_, derived, *counts = heapq.heappop(heap)
            if open_:
                t, rest = open_[0], open_[1:]
                for f in self._premises(t):
                    new = [n for n in (f, f.left) if n not in nodes]
                    if len(nodes) + len(new) <= self.steps:
                        push(nodes, rest, (*derived, (t, f)), *counts, length, new)
            elif nodes not in yielded:
                via = dict(derived)
                if _acyclic(via):
                    yielded.add(nodes)
                    yield nodes, via
        if heap:
            raise SearchTooLarge(f"the search for {render(goal)} popped {_MAX_STATES} states, "
                                 f"its limit of {_MAX_STATES}")

    def _shaped(self, s: Statement) -> list[Derivation]:
        """s's derivations of one, three or four steps by their shapes, one per
        node set, in ``prove``'s order: s's entry alone if it has one."""
        entry = self._entry_of(s)
        if entry is not None or self.steps < 3:
            return [(frozenset({s}), {})] if entry is not None and self.steps >= 1 else []
        found: dict[frozenset[Statement], dict[Statement, Statement]] = {}
        for f in self._premises(s):
            x, via = f.left, {s: f}
            f_in, x_in = self._entry_of(f) is not None, self._entry_of(x) is not None
            if self.steps >= 4 and x_in and not f_in:
                via[f] = Implies(x, f)
                f_in = self._entry_of(via[f]) is not None
            elif self.steps >= 4 and f_in and not x_in:
                via[x] = Implies(f, x)
                x_in = self._entry_of(via[x]) is not None
            if f_in and x_in:
                found.setdefault(frozenset({s, x, *via.values()}), via)
        return sorted(found.items(), key=lambda d: (
            len(d[0]), sum(n._len for n in d[0]), sorted(map(render, d[0]))))

    def _entry_of(self, s: Statement) -> Optional[Union[TheoryAxiom, SchemaInstance]]:
        """s's justification as an entry: its first axiom, else its first
        instance over the pool within the cap in ``SCHEMAS`` order; None if s
        is no entry."""
        if s not in self.entries:
            entry = None
            if s in self.axioms:
                entry = TheoryAxiom(self.axioms.index(s))
            elif self.cap is None or s._len <= self.cap:
                for schema in SCHEMAS:
                    values = _matcher(schema.template)(s)
                    if values is not None and self.in_pool.issuperset(values.values()):
                        entry = SchemaInstance(
                            schema.index, tuple((v, values[v]) for v in schema.metavars))
                        break
            self.entries[s] = entry
        return self.entries[s]

    def _premises(self, s: Statement) -> list[Statement]:
        """Every implication (x->s) with x entailed and not s that can enter a
        derivation: a suffix of an axiom, or of an instance over the pool that
        fits the cap."""
        if s in self.premises:
            return self.premises[s]
        found = dict.fromkeys(f for f in self.suffixes.get(s, ()) if self._entails(f.left))
        for schema, match, build, free, sure in _suffixes():
            values = match(s)
            if values is None or not self.in_pool.issuperset(values.values()):
                continue
            const, coeffs = _SCHEMA_SHAPES[schema.index]
            complete = len(values) + len(free) == len(schema.metavars)
            # x ranges over the entailed pool when x_p is a metavariable s_p leaves open
            choices = self.entailed_pool if sure else self.pool
            for combo in itertools.product(choices, repeat=len(free)):
                values.update(zip(free, combo))
                if complete and self.cap is not None and const + sum(
                        c * values[v]._len for v, c in coeffs.items()) > self.cap:
                    continue
                x = build(values)
                if sure or self._entails(x):
                    found[Implies(x, s)] = None
        found.pop(Implies(s, s), None)  # s cannot be a premise of itself
        self.premises[s] = list(found)
        return self.premises[s]

    def _entails(self, s: Statement) -> bool:
        return self.everything & ~self.truth(s) == 0


# the step bound up to which a search builds each goal's derivation by its shape
_SHAPED_STEPS = 4

# the most states ``_Search._astar`` pops for one goal before it gives up
_MAX_STATES = 20_000

# searches shared by every goal and theory that read the same inputs: the key
# is (axiom statements, pool, step bound, effective cap)
_searches: dict[tuple, _Search] = {}


def prove(theory: Theory, goal: Statement, max_steps: Optional[int] = None) -> Optional[Proof]:
    """The cheapest order of the first candidate derivation of ``goal`` that
    fits the budget, or None."""
    cap = theory.length_cap()
    if cap is not None and rendered_length(goal) > cap:
        raise StatementTooLong(render(goal))
    steps = theory.max_proof_steps if max_steps is None else max_steps
    axioms = tuple(a.statement for a in theory.axioms.admitted)
    closure = _closure(axioms, goal)
    search_cap = _effective_cap(closure, cap)
    pool = _instantiation_pool(closure, search_cap)
    key = (axioms, tuple(pool), steps, search_cap)
    search = _searches.get(key)
    if search is None:
        everything, truth = _truth_vectors(axioms, pool)
        least = _least_axioms(axioms, goal, steps, truth)
        if least is None:
            return None
        search = _searches[key] = _Search(axioms, pool, search_cap, steps, everything, truth)
        search.start(goal, least)
    for derivation in search.derivations(goal):
        proof = _linearize(theory, goal, derivation, search._entry_of)
        if proof is not None:
            return proof
    return None


def is_theorem(theory: Theory, goal: Statement, max_steps: Optional[int] = None) -> bool:
    return prove(theory, goal, max_steps) is not None


def theorems_up_to(
    theory: Theory, size_bound: int, max_steps: Optional[int] = None
) -> list[Statement]:
    """All theorems among statements of rendered length <= the bound (and
    within the language bound), in canonical order."""
    cap = theory.length_cap()
    bound = size_bound if cap is None else min(size_bound, cap)
    found = [
        s
        for s in enumerate_statements(theory.world.atoms(), bound)
        if is_theorem(theory, s, max_steps)
    ]
    return sorted(found, key=statement_sort_key)


@dataclass(frozen=True)
class SoundnessReport:
    checked: int
    theorems: tuple[Statement, ...]
    violations: tuple[Statement, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def soundness_check(
    theory: Theory, size_bound: int = 7, max_steps: Optional[int] = None
) -> SoundnessReport:
    """Every enumerated theorem must be true under the world's ground truth."""
    theorems = theorems_up_to(theory, size_bound, max_steps)
    violations = tuple(
        s for s in theorems if not evaluate(s, theory.world.ground_truth)
    )
    return SoundnessReport(len(theorems), tuple(theorems), violations)

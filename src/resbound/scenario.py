"""Scenario files: one JSON document drives every command.

Schema (``schema_version: 1``), all resource vectors as arrays of 2d+2
decimal-rational strings:

    {
      "schema_version": 1,
      "dimension": 1,
      "alphabet": "AB()!&|->_0123456789",
      "cost_model": {"delta": [...], "delta_e": "1/100",
                     "overhead_base": [...], "overhead_slope": [...]},
      "world": {
        "ground_truth": {"A": true, ...},
        "direct_atoms": ["E"],                  # zero-cost deciders, auto-built
        "string_claims": [{"atom": "B01", "claim": "concat(01,1) == 011",
                           "cost": [...]}],     # truth computed, decider auto-built
        "equipment": [{"id", "construction_cost", "purpose"}],
        "procedures": [{"id", "equipment", "instructions",
                        "implementation_cost", "declared_purpose",
                        "output": {"constant": s} | {"atom": a, "when_true", "when_false"}}],
        "true_purposes": {id: purpose, ...},
        "verifier_of": [[verifier_id, verified_id], ...]
      },
      "axioms": [{"statement": text, "justification": "verified"|"postulated"}],
      "budget": [...], "domain_budget": [...],
      "grid": [[...], ...],
      "statements": [text, ...], "prove": [text, ...],
      "observers": [{"name", "cap": [...]|null,
                     "actions": [{"verify": text, "strategy": {atom: proc}} |
                                 {"implement": proc, "at": [coords], "spacetime": proc}]}],
      "reflection": {"target": text, "stages": n, "budget_step": [...]},
      "search": {"max_steps": n, "size_bound": n}
    }

Purposes: {"kind": "measure_property"|"compute_prediction", "property", "figures"},
{"kind": "measure_spacetime", "figures"}, {"kind": "determine_truth", "statement"},
{"kind": "none"}, {"kind": "opaque", "text"}.

Validation reports every problem found, each anchored to its section path.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional, Union

from .errors import ScenarioError, StatementSyntaxError
from .expressions import Alphabet, CostParameters, Expression
from .stringterms import claim_truth
from .observer import Action, ImplementProcedure, ObserverScript, VerifyStatement
from .resources import ResourceVector
from .statements import Statement, atoms_of, parse, render
from .theory import AxiomCandidate, Justification, Theory, build_theory
from .lattice import TheoryGrid
from .world import (
    ComputePrediction,
    DetermineTruth,
    Equipment,
    Location,
    MeasureProperty,
    MeasureSpaceTime,
    NoPurpose,
    Opaque,
    Procedure,
    Purpose,
    World,
    constant_output,
    truth_output,
    verifier_relation_is_acyclic,
)

_ATOM_RE = re.compile(r"[A-Za-z0-9_]+\Z")


@dataclass(frozen=True)
class SearchLimits:
    max_steps: int = 4
    size_bound: int = 7


@dataclass(frozen=True)
class ReflectionConfig:
    target: Statement
    stages: int
    budget_step: ResourceVector


@dataclass(frozen=True, eq=False)
class Scenario:
    schema_version: int
    dimension: int
    alphabet: Alphabet
    cost_model: CostParameters
    world: World
    axiom_candidates: tuple[AxiomCandidate, ...]
    budget: ResourceVector
    domain_budget: ResourceVector
    grid: tuple[ResourceVector, ...]
    statements: tuple[Statement, ...]
    prove_targets: tuple[Statement, ...]
    observers: tuple[ObserverScript, ...]
    reflection: Optional[ReflectionConfig]
    search: SearchLimits

    def base_theory(self, max_steps: Optional[int] = None) -> Theory:
        steps = max_steps if max_steps is not None else self.search.max_steps
        return build_theory(
            self.budget, self.axiom_candidates, self.world, self.cost_model, steps
        )

    def theory_grid(self, max_steps: Optional[int] = None) -> TheoryGrid:
        steps = max_steps if max_steps is not None else self.search.max_steps
        return TheoryGrid.build(
            self.grid, self.axiom_candidates, self.world, self.cost_model, steps
        )


class _Problems:
    def __init__(self):
        self.items: list[str] = []

    def add(self, path: str, message: str) -> None:
        self.items.append(f"{path}: {message}")

    def __bool__(self) -> bool:
        return bool(self.items)


def _is_int(raw: Any) -> bool:
    """A JSON integer: JSON true and false load as bools, which are ints."""
    return isinstance(raw, int) and not isinstance(raw, bool)


def _array(raw: Any, path: str, problems: _Problems) -> list:
    """An array section's items; an absent section is empty, and anything
    else is reported and read as empty."""
    if raw is None:
        return []
    if not isinstance(raw, list):
        problems.add(path, "expected an array")
        return []
    return raw


def _object(raw: Any, path: str, problems: _Problems) -> dict:
    """An object section; an absent section is empty, and anything else is
    reported and read as empty."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        problems.add(path, "expected an object")
        return {}
    return raw


def _entries(raw: Any, path: str, problems: _Problems):
    """(path, entry) for each object in an array section; anything else is
    reported and skipped."""
    for i, entry in enumerate(_array(raw, path, problems)):
        if isinstance(entry, dict):
            yield f"{path}[{i}]", entry
        else:
            problems.add(f"{path}[{i}]", "expected an object")


def _parse_vector(raw: Any, n: int, path: str, problems: _Problems) -> Optional[ResourceVector]:
    if not isinstance(raw, list):
        problems.add(path, "expected an array of rational strings")
        return None
    if len(raw) != n:
        problems.add(path, f"expected {n} components, got {len(raw)}")
        return None
    values = []
    for i, item in enumerate(raw):
        try:
            values.append(Fraction(str(item)))
        except (ValueError, ZeroDivisionError):
            problems.add(f"{path}[{i}]", f"not a rational: {item!r}")
            return None
    if any(v < 0 for v in values):
        problems.add(path, "components must be nonnegative")
        return None
    return ResourceVector(tuple(values))


def _figures(raw: dict) -> int:
    figures = raw["figures"]
    if not _is_int(figures):
        raise TypeError(f"figures must be an integer, not {figures!r}")
    return figures


def _parse_purpose(raw: Any, path: str, problems: _Problems) -> Purpose:
    if not isinstance(raw, dict) or "kind" not in raw:
        problems.add(path, "purpose must be an object with a 'kind'")
        return NoPurpose()
    kind = raw.get("kind")
    try:
        if kind == "measure_property":
            return MeasureProperty(str(raw["property"]), _figures(raw))
        if kind == "compute_prediction":
            return ComputePrediction(str(raw["property"]), _figures(raw))
        if kind == "measure_spacetime":
            return MeasureSpaceTime(_figures(raw))
        if kind == "determine_truth":
            return DetermineTruth(str(raw["statement"]))
        if kind == "none":
            return NoPurpose()
        if kind == "opaque":
            return Opaque(str(raw.get("text", "")))
    except (KeyError, TypeError, ValueError) as exc:
        problems.add(path, f"bad purpose fields: {exc}")
        return NoPurpose()
    problems.add(path, f"unknown purpose kind {kind!r}")
    return NoPurpose()


def _parse_statement(
    text: Any, alphabet: Alphabet, atoms: set[str], path: str, problems: _Problems
) -> Optional[Statement]:
    if not isinstance(text, str):
        problems.add(path, "statement must be a string")
        return None
    try:
        stmt = parse(text)
    except StatementSyntaxError as exc:
        problems.add(path, f"parse error: {exc}")
        return None
    for ch in render(stmt):
        if ch not in alphabet:
            problems.add(path, f"rendered character {ch!r} not in alphabet")
            return None
    dangling = sorted(atoms_of(stmt) - atoms)
    if dangling:
        problems.add(path, f"unknown atoms: {', '.join(dangling)}")
        return None
    return stmt


def _statement_list(
    doc: dict, section: str, alphabet: Alphabet, atoms: set[str], problems: _Problems
) -> list[Statement]:
    """The statements of an array-of-texts section; bad entries are reported
    and skipped."""
    out = []
    for i, text_raw in enumerate(_array(doc.get(section), section, problems)):
        stmt = _parse_statement(text_raw, alphabet, atoms, f"{section}[{i}]", problems)
        if stmt is not None:
            out.append(stmt)
    return out


def _add_decider(
    procedures: dict[str, Procedure],
    true_purposes: dict[str, Purpose],
    p_id: str,
    atom: str,
    cost: ResourceVector,
    alphabet: Alphabet,
) -> None:
    """Register a zero-equipment procedure that decides ``atom`` in truth."""
    procedures[p_id] = Procedure(
        p_id, frozenset(), Expression("", alphabet), cost, DetermineTruth(atom), truth_output(atom)
    )
    true_purposes[p_id] = DetermineTruth(atom)


def loads(text: str) -> Scenario:
    problems = _Problems()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"line {exc.lineno}, column {exc.colno}: {exc.msg}"]) from None
    if not isinstance(doc, dict):
        raise ScenarioError(["top level: expected an object"])

    version = doc.get("schema_version")
    if not _is_int(version) or version != 1:
        problems.add("schema_version", f"unsupported version {version!r} (expected 1)")

    dimension = doc.get("dimension", 1)
    if not _is_int(dimension) or dimension < 0:
        problems.add("dimension", "must be a nonnegative integer")
        dimension = 1
    n = 2 * dimension + 2

    alpha_raw = doc.get("alphabet", "")
    alphabet = None
    if not isinstance(alpha_raw, str) or len(alpha_raw) < 2:
        problems.add("alphabet", "must be a string of at least 2 symbols")
    else:
        try:
            alphabet = Alphabet.from_string(alpha_raw)
        except ValueError as exc:
            problems.add("alphabet", str(exc))
    if alphabet is None:
        raise ScenarioError(problems.items)

    cm_raw = _object(doc.get("cost_model"), "cost_model", problems)
    zeros = ["0"] * n
    delta = _parse_vector(cm_raw.get("delta", ["1"] * n), n, "cost_model.delta", problems)
    base = _parse_vector(cm_raw.get("overhead_base", zeros), n, "cost_model.overhead_base", problems)
    slope = _parse_vector(
        cm_raw.get("overhead_slope", zeros), n, "cost_model.overhead_slope", problems
    )
    try:
        delta_e = Fraction(str(cm_raw.get("delta_e", "0")))
        if delta_e < 0:
            problems.add("cost_model.delta_e", "must be nonnegative")
            delta_e = Fraction(0)
    except (ValueError, ZeroDivisionError):
        problems.add("cost_model.delta_e", "not a rational")
        delta_e = Fraction(0)
    cost_model = None
    if delta and base and slope:
        cost_model = CostParameters(delta, delta_e, base, slope)

    # --- world ---
    w_raw = _object(doc.get("world"), "world", problems)
    ground_truth: dict[str, bool] = {}
    for name, value in _object(w_raw.get("ground_truth"), "world.ground_truth", problems).items():
        if not _ATOM_RE.match(name):
            problems.add("world.ground_truth", f"bad atom name {name!r}")
            continue
        if not isinstance(value, bool):
            problems.add(f"world.ground_truth.{name}", "truth value must be boolean")
            continue
        ground_truth[name] = value
    atoms = set(ground_truth)

    equipment: dict[str, Equipment] = {}
    for path, eq_raw in _entries(w_raw.get("equipment"), "world.equipment", problems):
        eq_id = eq_raw.get("id")
        if not isinstance(eq_id, str) or not eq_id:
            problems.add(path, "missing id")
            continue
        if eq_id in equipment:
            problems.add(path, f"duplicate equipment id {eq_id!r}")
            continue
        cost = _parse_vector(
            eq_raw.get("construction_cost", zeros), n, f"{path}.construction_cost", problems
        )
        purpose = _parse_purpose(
            eq_raw.get("purpose", {"kind": "none"}), f"{path}.purpose", problems
        )
        if cost is not None:
            equipment[eq_id] = Equipment(eq_id, cost, purpose)

    procedures: dict[str, Procedure] = {}
    true_purposes: dict[str, Purpose] = {}
    for path, p_raw in _entries(w_raw.get("procedures"), "world.procedures", problems):
        p_id = p_raw.get("id")
        if not isinstance(p_id, str) or not p_id:
            problems.add(path, "missing id")
            continue
        if p_id in procedures or p_id in equipment:
            problems.add(path, f"duplicate id {p_id!r}")
            continue
        eq_used = []
        for eq_id in _array(p_raw.get("equipment"), f"{path}.equipment", problems):
            if isinstance(eq_id, str) and eq_id in equipment:
                eq_used.append(eq_id)
            else:
                problems.add(f"{path}.equipment", f"unknown equipment id {eq_id!r}")
        impl = _parse_vector(
            p_raw.get("implementation_cost", zeros), n, f"{path}.implementation_cost", problems
        )
        declared = _parse_purpose(
            p_raw.get("declared_purpose", {"kind": "none"}), f"{path}.declared_purpose", problems
        )
        instructions_text = p_raw.get("instructions", "")
        try:
            instructions = Expression(str(instructions_text), alphabet)
        except ValueError as exc:
            problems.add(f"{path}.instructions", str(exc))
            instructions = Expression("", alphabet)
        out_raw = p_raw.get("output", {})
        output_fn = constant_output("")
        texts_out: list[str] = []
        if not isinstance(out_raw, dict):
            problems.add(f"{path}.output", "expected an object")
        elif "constant" in out_raw:
            texts_out = [str(out_raw["constant"])]
            output_fn = constant_output(texts_out[0])
        elif "atom" in out_raw:
            atom_ref = str(out_raw["atom"])
            if atom_ref not in atoms:
                problems.add(f"{path}.output", f"unknown atom {atom_ref!r}")
            texts_out = [str(out_raw.get("when_true", "1")), str(out_raw.get("when_false", "0"))]
            output_fn = truth_output(atom_ref, *texts_out)
        else:
            problems.add(f"{path}.output", "output needs 'constant' or 'atom'")
        bad = [ch for text_out in texts_out for ch in text_out if ch not in alphabet]
        if bad:
            problems.add(f"{path}.output", f"characters {bad!r} not in alphabet")
        if impl is not None:
            procedures[p_id] = Procedure(
                p_id, frozenset(eq_used), instructions, impl, declared, output_fn
            )

    for i, atom in enumerate(_array(w_raw.get("direct_atoms"), "world.direct_atoms", problems)):
        path = f"world.direct_atoms[{i}]"
        if not isinstance(atom, str) or atom not in atoms:
            problems.add(path, f"unknown atom {atom!r}")
            continue
        p_id = f"direct_{atom}"
        if p_id in procedures:
            problems.add(path, f"procedure id {p_id!r} already taken")
            continue
        _add_decider(procedures, true_purposes, p_id, atom, ResourceVector.zeros(n), alphabet)

    for path, claim_raw in _entries(w_raw.get("string_claims"), "world.string_claims", problems):
        atom = claim_raw.get("atom")
        if not isinstance(atom, str) or not _ATOM_RE.match(atom):
            problems.add(path, f"bad claim atom name {atom!r}")
            continue
        if atom in ground_truth:
            problems.add(path, f"atom {atom!r} already declared in ground_truth")
            continue
        if any(ch not in alphabet for ch in atom):
            problems.add(path, f"atom {atom!r} has characters outside the alphabet")
            continue
        try:
            truth = claim_truth(str(claim_raw.get("claim", "")), alphabet)
        except StatementSyntaxError as exc:
            problems.add(path, f"bad claim: {exc}")
            continue
        cost = _parse_vector(
            claim_raw.get("cost", zeros), n, f"{path}.cost", problems
        )
        p_id = f"eval_{atom}"
        if p_id in procedures or cost is None:
            if p_id in procedures:
                problems.add(path, f"procedure id {p_id!r} already taken")
            continue
        ground_truth[atom] = truth
        atoms.add(atom)
        _add_decider(procedures, true_purposes, p_id, atom, cost, alphabet)

    tp_raw = _object(w_raw.get("true_purposes"), "world.true_purposes", problems)
    for subject, purpose_raw in tp_raw.items():
        path = f"world.true_purposes.{subject}"
        if subject not in procedures and subject not in equipment:
            problems.add(path, f"unknown subject {subject!r}")
            continue
        purpose = _parse_purpose(purpose_raw, path, problems)
        if isinstance(purpose, DetermineTruth) and purpose.statement_id not in atoms:
            problems.add(path, f"determine_truth target {purpose.statement_id!r} not in ground truth")
            continue
        true_purposes[subject] = purpose

    verifier_edges = []
    for i, pair in enumerate(_array(w_raw.get("verifier_of"), "world.verifier_of", problems)):
        path = f"world.verifier_of[{i}]"
        if not (isinstance(pair, list) and len(pair) == 2):
            problems.add(path, "expected [verifier, verified] pair")
            continue
        a, b = pair
        for side in (a, b):
            if not isinstance(side, str) or (side not in procedures and side not in equipment):
                problems.add(path, f"unknown id {side!r}")
        verifier_edges.append((str(a), str(b)))
    if verifier_edges and not verifier_relation_is_acyclic(verifier_edges):
        problems.add("world.verifier_of", "verifier relation must be acyclic")

    world = World(
        dimension=dimension,
        alphabet=alphabet,
        equipment=equipment,
        procedures=procedures,
        ground_truth=ground_truth,
        true_purposes=true_purposes,
        verifier_of=tuple(verifier_edges),
    )

    # --- budgets, axioms, targets ---
    budget = _parse_vector(doc.get("budget", ["0"] * n), n, "budget", problems)
    domain_budget = budget
    if "domain_budget" in doc:
        domain_budget = _parse_vector(doc["domain_budget"], n, "domain_budget", problems)

    candidates: list[AxiomCandidate] = []
    for path, ax_raw in _entries(doc.get("axioms"), "axioms", problems):
        stmt = _parse_statement(ax_raw.get("statement"), alphabet, atoms, path, problems)
        just = ax_raw.get("justification", "verified")
        if just not in (Justification.VERIFIED_IN_WORLD, Justification.POSTULATED):
            problems.add(path, f"unknown justification {just!r}")
            continue
        if stmt is not None:
            candidates.append(AxiomCandidate(stmt, just))

    grid = []
    for i, point in enumerate(_array(doc.get("grid"), "grid", problems)):
        v = _parse_vector(point, n, f"grid[{i}]", problems)
        if v is not None:
            grid.append(v)

    statements = _statement_list(doc, "statements", alphabet, atoms, problems)
    prove_targets = _statement_list(doc, "prove", alphabet, atoms, problems)

    observers = []
    seen_names = set()
    spacetimes = {
        p_id
        for p_id, proc in procedures.items()
        if isinstance(proc.declared_purpose, MeasureSpaceTime)
    }
    for i, (path, ob_raw) in enumerate(_entries(doc.get("observers"), "observers", problems)):
        name = ob_raw.get("name", f"observer{i}")
        if not isinstance(name, str):
            problems.add(f"{path}.name", "expected a string")
            continue
        if name in seen_names:
            problems.add(path, f"duplicate observer name {name!r}")
            continue
        seen_names.add(name)
        cap = None
        if ob_raw.get("cap") is not None:
            cap = _parse_vector(ob_raw["cap"], n, f"{path}.cap", problems)
        actions: list[Action] = []
        for a_path, act_raw in _entries(ob_raw.get("actions"), f"{path}.actions", problems):
            if "verify" in act_raw:
                stmt = _parse_statement(act_raw["verify"], alphabet, atoms, a_path, problems)
                hint = None
                if "strategy" in act_raw and not isinstance(act_raw["strategy"], dict):
                    problems.add(f"{a_path}.strategy", "expected an object")
                elif "strategy" in act_raw:
                    pairs = []
                    for atom_id, proc_id in sorted(act_raw["strategy"].items()):
                        if not isinstance(proc_id, str) or proc_id not in procedures:
                            problems.add(a_path, f"unknown procedure {proc_id!r} in strategy")
                        pairs.append((str(atom_id), str(proc_id)))
                    hint = tuple(pairs)
                    covered = {atom_id for atom_id, _ in pairs}
                    missing = [] if stmt is None else sorted(atoms_of(stmt) - covered)
                    if missing:
                        problems.add(a_path, f"strategy does not cover atoms {', '.join(missing)}")
                if stmt is not None:
                    actions.append(VerifyStatement(stmt, hint))
            elif "implement" in act_raw:
                proc_id = act_raw["implement"]
                if not isinstance(proc_id, str) or proc_id not in procedures:
                    problems.add(a_path, f"unknown procedure {proc_id!r}")
                coords = act_raw.get("at", ["0"] * (dimension + 1))
                if not isinstance(coords, list):
                    problems.add(f"{a_path}.at", "expected an array")
                    coords = []
                st_id = act_raw.get("spacetime")
                if st_id is None and not spacetimes:
                    problems.add(a_path, "no space-time procedure declared in world")
                elif st_id is not None and (not isinstance(st_id, str) or st_id not in procedures):
                    problems.add(a_path, f"unknown space-time procedure {st_id!r}")
                elif st_id is not None and st_id not in spacetimes:
                    problems.add(a_path, f"{st_id!r} is not declared as a space-time measurement")
                actions.append(
                    ImplementProcedure(str(proc_id), Location(tuple(str(c) for c in coords)), st_id)
                )
            else:
                problems.add(a_path, "action needs 'verify' or 'implement'")
        observers.append(ObserverScript(str(name), tuple(actions), cap))

    reflection = None
    r_raw = doc.get("reflection")
    if r_raw and not isinstance(r_raw, dict):
        problems.add("reflection", "expected an object")
    elif r_raw:
        target = _parse_statement(r_raw.get("target"), alphabet, atoms, "reflection.target", problems)
        stages = r_raw.get("stages", 1)
        if not _is_int(stages) or stages < 1:
            problems.add("reflection.stages", "must be a positive integer")
            stages = 1
        step_vec = _parse_vector(
            r_raw.get("budget_step", ["0"] * n), n, "reflection.budget_step", problems
        )
        if target is not None and step_vec is not None:
            reflection = ReflectionConfig(target, stages, step_vec)

    s_raw = _object(doc.get("search"), "search", problems)
    max_steps = s_raw.get("max_steps", 4)
    size_bound = s_raw.get("size_bound", 7)
    if not _is_int(max_steps) or max_steps < 1:
        problems.add("search.max_steps", "must be a positive integer")
        max_steps = 4
    if not _is_int(size_bound) or size_bound < 1:
        problems.add("search.size_bound", "must be a positive integer")
        size_bound = 7
    search = SearchLimits(max_steps, size_bound)

    if problems or budget is None or cost_model is None:
        if not problems:
            problems.add("budget", "missing")
        raise ScenarioError(problems.items)

    return Scenario(
        schema_version=1,
        dimension=dimension,
        alphabet=alphabet,
        cost_model=cost_model,
        world=world,
        axiom_candidates=tuple(candidates),
        budget=budget,
        domain_budget=domain_budget if domain_budget is not None else budget,
        grid=tuple(grid),
        statements=tuple(statements),
        prove_targets=tuple(prove_targets),
        observers=tuple(observers),
        reflection=reflection,
        search=search,
    )


def load(path: Union[str, Path]) -> Scenario:
    return loads(Path(path).read_text(encoding="utf-8"))

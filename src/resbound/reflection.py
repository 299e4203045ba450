"""Local reflection: internalize provability and push validity upward.

A theory cannot certify its own deductions; a strictly larger budget can.
Provability of S at budget r is internalized as a fresh atom whose ground
truth is established by actually running the prover (never postulated), and
whose verification cost is the cost of that proof — establishing "this was
provable" spends the resources the proof spends.  The extension then takes
the validity conditional (provable implies true) as a new verified axiom,
which is enough to re-derive S from the internalized facts alone.

Iterating target-by-target never closes: each stage's validity statement
becomes the next stage's burden, so chains end only at the stage cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import AxiomRejected, BudgetNotLarger
from .resources import ResourceVector
from .statements import Atom, Implies, Statement, render
from .theory import (
    AxiomCandidate,
    GodelMap,
    Justification,
    Proof,
    Theory,
    build_theory,
    is_theorem,
    prove,
)
from .world import DetermineTruth, Procedure, World, truth_output


def provability_atom_id(budget_label: str, code: str) -> str:
    return f"Thm_{budget_label}_{code}"


def statement_code(s: Statement, world: World) -> str:
    return GodelMap(world.alphabet).encode_text(render(s))


def val_statement(s: Statement, budget_label: str, world: World) -> Statement:
    """The conditional "if provable at the labelled budget, then true"."""
    atom_id = provability_atom_id(budget_label, statement_code(s, world))
    return Implies(Atom(atom_id), s)


@dataclass(frozen=True)
class ReflectionStep:
    base_budget: ResourceVector
    extended_budget: ResourceVector
    target: Statement
    budget_label: str
    thm_atom_id: str
    val_axiom: Statement
    target_was_theorem: bool
    base_proof_cost: Optional[ResourceVector]
    theory: Theory


def reflect_extend(
    base: Theory,
    target: Statement,
    extended_budget: ResourceVector,
    budget_label: Optional[str] = None,
) -> ReflectionStep:
    """Extend ``base`` past ``extended_budget`` with the target's provability
    atom (when the base proves it) and the validity conditional for it."""
    if not (base.budget.leq(extended_budget) and base.budget != extended_budget):
        raise BudgetNotLarger(
            f"extension budget {extended_budget} does not strictly dominate {base.budget}"
        )
    label = budget_label if budget_label is not None else base.name
    return _extend(base, target, prove(base, target), extended_budget, label)


def _extend(
    base: Theory,
    target: Statement,
    proof: Optional[Proof],
    extended_budget: ResourceVector,
    label: str,
) -> ReflectionStep:
    """``reflect_extend`` once the base's proof of the target, or None, is known."""
    proved = proof is not None
    code = statement_code(target, base.world)
    thm_id = provability_atom_id(label, code)
    missing = sorted({ch for ch in thm_id if ch not in base.world.alphabet})
    if missing:
        raise AxiomRejected(
            f"alphabet lacks {missing!r} needed to write the provability atom {thm_id!r}"
        )

    # Deciding the provability atom means running the base theory's proof
    # search, so its verification costs what the found proof costs; a failed
    # search is only refuted by exhausting the base budget.
    decide_cost = proof.cost if proved else base.budget
    decider = Procedure(
        id=f"decide_{thm_id}",
        equipment_used=frozenset(),
        instructions=base.render_expression(target),
        implementation_cost=decide_cost,
        declared_purpose=DetermineTruth(thm_id),
        output_fn=truth_output(thm_id),
    )
    extended_world = base.world.extended(
        procedures=[decider],
        ground_truth={thm_id: proved},
        true_purposes={decider.id: DetermineTruth(thm_id)},
    )

    val = Implies(Atom(thm_id), target)
    new_candidates = list(base.candidates)
    if proved:
        new_candidates.append(AxiomCandidate(Atom(thm_id), Justification.VERIFIED_IN_WORLD))
    new_candidates.append(AxiomCandidate(val, Justification.VERIFIED_IN_WORLD))

    theory = build_theory(
        extended_budget,
        tuple(new_candidates),
        extended_world,
        base.cost_params,
        base.max_proof_steps,
        name=f"{base.name}+",
    )
    required = {render(val)} | ({render(Atom(thm_id))} if proved else set())
    rejected_required = [
        rej for rej in theory.axioms.rejected if render(rej.statement) in required
    ]
    if rejected_required:
        details = "; ".join(f"{render(r.statement)}: {r.reason}" for r in rejected_required)
        raise AxiomRejected(f"extension budget too small to admit reflection axioms ({details})")
    return ReflectionStep(
        base_budget=base.budget,
        extended_budget=extended_budget,
        target=target,
        budget_label=label,
        thm_atom_id=thm_id,
        val_axiom=val,
        target_was_theorem=proved,
        base_proof_cost=proof.cost if proved else None,
        theory=theory,
    )


@dataclass(frozen=True)
class AblationResults:
    """What still follows when parts of the extension are switched off."""

    full_proves_target: bool
    reflection_axioms_alone_prove_target: bool
    without_val_proves_target: bool
    logic_alone_proves_val: bool


def _ablation(step: ReflectionStep, full: bool) -> AblationResults:
    """What parts of the extension prove; ``full``: whether all of it does."""
    theory = step.theory
    world = theory.world
    cp = theory.cost_params
    steps = theory.max_proof_steps
    budget = theory.budget

    reflection_only = tuple(
        c
        for c in theory.candidates
        if c.statement == step.val_axiom or c.statement == Atom(step.thm_atom_id)
    )
    without_val = tuple(c for c in theory.candidates if c.statement != step.val_axiom)

    only = is_theorem(
        build_theory(budget, reflection_only, world, cp, steps, name="ablate-only"),
        step.target,
    )
    no_val = is_theorem(
        build_theory(budget, without_val, world, cp, steps, name="ablate-noval"),
        step.target,
    )
    logic_only = is_theorem(
        build_theory(budget, (), world, cp, steps, name="ablate-logic"), step.val_axiom
    )
    return AblationResults(full, only, no_val, logic_only)


@dataclass(frozen=True)
class StageReport:
    stage: int
    step: ReflectionStep
    target_proved_in_stage: bool
    thm_atom_proved: bool
    val_proved: bool
    ablation: AblationResults


@dataclass(frozen=True)
class ChainResult:
    stages: tuple[StageReport, ...]
    non_terminating: bool  # always True: the chain only stops at the cap

    @property
    def marker(self) -> str:
        return "NonTerminating"


def reflection_chain(
    base: Theory,
    target: Statement,
    n_stages: int,
    budget_step: ResourceVector,
) -> ChainResult:
    """Iterate reflection, each stage taking the previous stage's validity
    statement as its target.  Stops only at the stage cap."""
    if n_stages < 1:
        raise ValueError("n_stages must be >= 1")
    stages: list[StageReport] = []
    current = base
    current_target = target
    for stage in range(1, n_stages + 1):
        label = f"{base.name}r{stage - 1}"
        extended = current.budget.add(budget_step)
        if stage == 1:
            step = reflect_extend(current, current_target, extended, budget_label=label)
        else:
            # the first stage found budget_step nonzero, so this budget is
            # larger too, and the previous stage just proved this target
            step = _extend(current, current_target, val_proof, extended, label)
        proved = is_theorem(step.theory, step.target)
        val_proof = prove(step.theory, step.val_axiom)
        report = StageReport(
            stage=stage,
            step=step,
            target_proved_in_stage=proved,
            thm_atom_proved=is_theorem(step.theory, Atom(step.thm_atom_id)),
            val_proved=val_proof is not None,
            ablation=_ablation(step, proved),
        )
        stages.append(report)
        current = step.theory
        current_target = step.val_axiom
    return ChainResult(tuple(stages), non_terminating=True)

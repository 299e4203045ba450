import pytest

from resbound import (
    Atom,
    AxiomCandidate,
    CostParameters,
    GodelMap,
    Implies,
    build_theory,
    is_theorem,
    soundness_check,
    vec,
)
from resbound.errors import AxiomRejected, BudgetNotLarger
from resbound.reflection import (
    provability_atom_id,
    reflect_extend,
    reflection_chain,
    statement_code,
    val_statement,
)
from resbound.statements import parse, render
from resbound.theory import Justification, prove


@pytest.fixture
def flat_cost():
    return CostParameters.uniform(4, delta=1, delta_e=0)


@pytest.fixture
def base_theory(std_world, flat_cost):
    candidates = (AxiomCandidate(parse("A")), AxiomCandidate(parse("(A->B)")))
    return build_theory(vec(50, 50, 50, 50), candidates, std_world, flat_cost, name="T")


# --- val_statement ---------------------------------------------------------

def test_val_statement_atom(std_world):
    val = val_statement(Atom("A"), "r0", std_world)
    code = GodelMap(std_world.alphabet).encode_text("A")
    assert val == Implies(Atom(f"Thm_r0_{code}"), Atom("A"))


def test_val_statement_negation(std_world):
    s = parse("!A")
    val = val_statement(s, "r1", std_world)
    code = GodelMap(std_world.alphabet).encode_text("!A")
    assert val == Implies(Atom(f"Thm_r1_{code}"), s)


def test_statement_code_matches_godel_encoding(std_world):
    s = parse("(A->B)")
    gm = GodelMap(std_world.alphabet)
    assert statement_code(s, std_world) == gm.encode_text(render(s))
    assert gm.decode_text(statement_code(s, std_world)) == render(s)


# --- reflect_extend ---------------------------------------------------------

def test_reflect_extend_proves_target_from_reflection_alone(base_theory):
    step = reflect_extend(base_theory, Atom("B"), vec(200, 200, 200, 200), "r0")
    assert step.target_was_theorem
    assert step.base_proof_cost == vec(16, 16, 16, 16)
    assert is_theorem(step.theory, Atom("B"))

    # provability atom and validity conditional suffice on their own
    only = tuple(
        c
        for c in step.theory.candidates
        if c.statement in (step.val_axiom, Atom(step.thm_atom_id))
    )
    stripped = build_theory(
        step.theory.budget, only, step.theory.world, step.theory.cost_params
    )
    assert is_theorem(stripped, Atom("B"))
    proof = prove(stripped, Atom("B"))
    assert [render(s.statement) for s in proof.steps][-1] == "B"
    assert len(proof.steps) == 3


def test_reflect_extend_ablations(base_theory):
    step = reflect_extend(base_theory, Atom("B"), vec(200, 200, 200, 200), "r0")
    world = step.theory.world
    cp = step.theory.cost_params
    budget = step.theory.budget

    # without the validity axiom the original implication still carries B
    no_val = tuple(c for c in step.theory.candidates if c.statement != step.val_axiom)
    assert is_theorem(build_theory(budget, no_val, world, cp), Atom("B"))

    # dropping both the implication and the validity axiom strands B
    neither = tuple(
        c
        for c in step.theory.candidates
        if c.statement not in (step.val_axiom, parse("(A->B)"))
    )
    assert not is_theorem(build_theory(budget, neither, world, cp), Atom("B"))


def test_reflect_extend_requires_strictly_larger_budget(base_theory):
    with pytest.raises(BudgetNotLarger):
        reflect_extend(base_theory, Atom("B"), base_theory.budget, "r0")
    with pytest.raises(BudgetNotLarger):
        reflect_extend(base_theory, Atom("B"), vec(10, 200, 200, 200), "r0")


def test_reflect_extend_rejects_too_small_extension(std_world, flat_cost):
    # deciding the validity conditional costs [20,19,17,17]; an extension to
    # [18,...] is strictly larger than the base but cannot admit it
    candidates = (AxiomCandidate(parse("A")), AxiomCandidate(parse("(A->B)")))
    cramped = build_theory(vec(17, 17, 17, 17), candidates, std_world, flat_cost)
    with pytest.raises(AxiomRejected):
        reflect_extend(cramped, Atom("B"), vec(18, 18, 18, 18), "r0")


def test_reflect_extend_unproved_target(std_world, flat_cost):
    theory = build_theory(
        vec(50, 50, 50, 50), (AxiomCandidate(parse("A")),), std_world, flat_cost
    )
    step = reflect_extend(theory, Atom("B"), vec(200, 200, 200, 200), "r0")
    assert not step.target_was_theorem
    assert step.base_proof_cost is None
    # the provability atom is false in the extended world and not an axiom
    assert step.theory.world.ground_truth[step.thm_atom_id] is False
    admitted = [render(a.statement) for a in step.theory.axioms.admitted]
    assert render(Atom(step.thm_atom_id)) not in admitted
    assert render(step.val_axiom) in admitted
    assert not is_theorem(step.theory, Atom("B"))


def test_provability_atom_truth_established_by_prover(base_theory):
    step = reflect_extend(base_theory, Atom("B"), vec(200, 200, 200, 200), "r0")
    assert step.theory.world.ground_truth[step.thm_atom_id] is True
    decider = step.theory.world.procedure(f"decide_{step.thm_atom_id}")
    assert decider.implementation_cost == vec(16, 16, 16, 16)


# --- chains -------------------------------------------------------------------

def test_chain_single_stage_matches_reflect_extend(base_theory):
    chain = reflection_chain(base_theory, Atom("B"), 1, vec(150, 150, 150, 150))
    assert len(chain.stages) == 1
    stage = chain.stages[0]
    assert stage.step.target == Atom("B")
    assert stage.target_proved_in_stage
    assert chain.non_terminating and chain.marker == "NonTerminating"


def test_chain_three_stages(base_theory):
    chain = reflection_chain(base_theory, Atom("B"), 3, vec(300, 300, 300, 300))
    assert len(chain.stages) == 3
    previous_val = None
    previous_budget = base_theory.budget
    for stage in chain.stages:
        if previous_val is not None:
            assert stage.step.target == previous_val
        assert stage.target_proved_in_stage
        assert stage.thm_atom_proved
        assert stage.val_proved
        assert stage.ablation.reflection_axioms_alone_prove_target
        assert not stage.ablation.logic_alone_proves_val
        assert previous_budget.leq(stage.step.extended_budget)
        assert previous_budget != stage.step.extended_budget
        previous_budget = stage.step.extended_budget
        previous_val = stage.step.val_axiom
    assert chain.marker == "NonTerminating"


def test_chain_stages_stay_sound(base_theory):
    chain = reflection_chain(base_theory, Atom("B"), 2, vec(300, 300, 300, 300))
    for stage in chain.stages:
        report = soundness_check(stage.step.theory, size_bound=5)
        assert report.ok


def test_chain_zero_step_budget(base_theory):
    with pytest.raises(BudgetNotLarger):
        reflection_chain(base_theory, Atom("B"), 1, vec(0, 0, 0, 0))


def test_chain_requires_positive_stage_count(base_theory):
    with pytest.raises(ValueError):
        reflection_chain(base_theory, Atom("B"), 0, vec(10, 10, 10, 10))


def test_alphabet_must_cover_provability_atoms(flat_cost, tiny_world):
    theory = build_theory(vec(50, 50), (), tiny_world, CostParameters.uniform(2, delta=1))
    with pytest.raises(AxiomRejected):
        reflect_extend(theory, Atom("X"), vec(200, 200), "r0")


def test_reflect_on_standard_links_each_proof_once(tmp_path, monkeypatch):
    import resbound.theory as theory_mod
    from resbound.cli import main

    linked = []
    linearize = theory_mod._linearize

    def counted(theory, goal, derivation, entry_of):
        linked.append((theory, goal))
        return linearize(theory, goal, derivation, entry_of)

    monkeypatch.setattr(theory_mod, "_linearize", counted)
    code = main(
        ["--scenario", "fixtures/standard.scn", "--command", "reflect", "--out", str(tmp_path)]
    )
    assert code == 0
    # each later stage takes the proof of its target from the stage before,
    # which proved it as that stage's validity statement
    assert len(linked) == 16
    assert len(set(linked)) == len(linked)

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resbound import (
    Alphabet,
    And,
    Atom,
    AxiomCandidate,
    CostParameters,
    Expression,
    GodelMap,
    Implies,
    Justification,
    Not,
    Or,
    build_theory,
    check_proof,
    godel_decode,
    godel_encode,
    is_theorem,
    prove,
    soundness_check,
    theorems_up_to,
    vec,
)
from resbound.errors import MalformedCode, StatementTooLong
from resbound.statements import parse, render, rendered_length
from resbound.theory import ModusPonens, SCHEMAS, SchemaInstance, TheoryAxiom, substitute

from proof_oracle import oracle_provable

AMPLE = vec(10**6, 10**6, 10**6, 10**6)


def theory_with(std_world, std_cost, axioms, budget=AMPLE, steps=4):
    candidates = tuple(AxiomCandidate(parse(t)) for t in axioms)
    return build_theory(budget, candidates, std_world, std_cost, steps)


# --- Gödel map -----------------------------------------------------------------

def test_godel_empty():
    alpha = Alphabet.from_string("abcd")
    assert GodelMap(alpha).encode_text("") == ""


def test_godel_width_one_example():
    alpha = Alphabet.from_string("abcd")
    gm = GodelMap(alpha)
    assert gm.width == 1
    assert gm.encode_text("ba") == "10"
    assert gm.decode_text("10") == "ba"


def test_godel_wide_alphabet(std_alphabet):
    gm = GodelMap(std_alphabet)
    assert gm.width == 2
    code = gm.encode(Expression("(A->B)", std_alphabet))
    assert len(code.text) == 12
    assert gm.decode(code).text == "(A->B)"


def test_godel_malformed():
    gm = GodelMap(Alphabet.from_string("abcd"))
    with pytest.raises(MalformedCode):
        gm.decode_text("9")  # index out of range
    wide = GodelMap(Alphabet.from_string("abcdefghijkl"))
    with pytest.raises(MalformedCode):
        wide.decode_text("013")  # dangling half-chunk
    with pytest.raises(MalformedCode):
        wide.decode_text("0a")


@given(st.text(alphabet="abcd", max_size=24))
def test_godel_roundtrip(text):
    alpha = Alphabet.from_string("abcd")
    expr = Expression(text, alpha)
    assert godel_decode(godel_encode(expr), alpha).text == text


@given(st.text(alphabet="abcd", max_size=12), st.text(alphabet="abcd", max_size=12))
def test_godel_injective(t1, t2):
    gm = GodelMap(Alphabet.from_string("abcd"))
    if t1 != t2:
        assert gm.encode_text(t1) != gm.encode_text(t2)


# --- admission ------------------------------------------------------------------

def test_admit_zero_cost_atom_any_budget(std_world):
    # a direct observation: free to decide and free to write down
    from resbound import CostParameters, DetermineTruth, Expression, Procedure
    from resbound.world import truth_output

    free = CostParameters.uniform(4, delta=0, delta_e=0)
    direct = Procedure(
        "direct_A",
        frozenset(),
        Expression("", std_world.alphabet),
        vec(0, 0, 0, 0),
        DetermineTruth("A"),
        truth_output("A"),
    )
    world = std_world.extended(
        procedures=[direct], true_purposes={"direct_A": DetermineTruth("A")}
    )
    for budget in (vec(0, 0, 0, 0), vec(1, 1, 1, 1), AMPLE):
        theory = build_theory(budget, (AxiomCandidate(Atom("A")),), world, free)
        assert [render(a.statement) for a in theory.axioms.admitted] == ["A"]


def test_admit_rejects_outside_domain(std_world, std_cost):
    # N([2,2,2,2]) = 1 admits the rendering, but deciding A costs [3,2,1,1]
    theory = theory_with(std_world, std_cost, ["A"], budget=vec(2, 2, 2, 2))
    assert not theory.axioms.admitted
    assert theory.axioms.rejected[0].reason == "outside-domain"


def test_admit_rejects_overlong(std_world, std_cost):
    # N([4,4,4,4]) = 3 under the standard cost model; (A->B) needs 6 symbols
    theory = theory_with(std_world, std_cost, ["(A->B)"], budget=vec(4, 4, 4, 4))
    assert theory.axioms.rejected[0].reason == "statement-too-long"


def test_admit_rejects_false_verified(std_world, std_cost):
    theory = theory_with(std_world, std_cost, ["C"])
    assert theory.axioms.rejected[0].reason == "false-in-world"


def test_admit_keeps_false_postulated(std_world, std_cost):
    candidates = (AxiomCandidate(Atom("C"), Justification.POSTULATED),)
    theory = build_theory(AMPLE, candidates, std_world, std_cost)
    assert [render(a.statement) for a in theory.axioms.admitted] == ["C"]


# --- prove ----------------------------------------------------------------------

def test_prove_modus_ponens_three_steps(std_world, std_cost):
    theory = theory_with(std_world, std_cost, ["A", "(A->B)"])
    proof = prove(theory, Atom("B"))
    assert proof is not None
    assert len(proof.steps) == 3
    assert proof.conclusion == Atom("B")
    assert isinstance(proof.steps[-1].justification, ModusPonens)
    assert not check_proof(theory, proof)


def test_prove_axiom_one_step(std_world, std_cost):
    theory = theory_with(std_world, std_cost, ["A", "(A->B)"])
    proof = prove(theory, Implies(Atom("A"), Atom("B")))
    assert proof is not None and len(proof.steps) == 1
    assert isinstance(proof.steps[0].justification, TheoryAxiom)


def test_prove_exact_cost_and_budget_boundary(std_world, std_cost):
    # steps A, (A->B), B; lengths 1, 6, 1; delta = 1, delta_e = 1/100:
    # non-energy 2*(1+6+1) = 16; cheapest order [A, (A->B), B] pays
    # maintenance (2*1 + 1*6)/100, so energy = 16 + 2/25
    exact = vec(16, 16, 16, Fraction(402, 25))
    theory = theory_with(std_world, std_cost, ["A", "(A->B)"], budget=exact)
    proof = prove(theory, Atom("B"))
    assert proof is not None
    assert proof.cost == exact

    below = vec(15, 16, 16, 17)
    smaller = theory_with(std_world, std_cost, ["A", "(A->B)"], budget=below)
    assert prove(smaller, Atom("B")) is None


def test_prove_too_long_statement(std_world, std_cost):
    theory = theory_with(std_world, std_cost, ["A"], budget=vec(4, 4, 4, 4))  # N = 3
    with pytest.raises(StatementTooLong):
        prove(theory, Implies(Atom("A"), Atom("B")))


def test_prove_via_schema_instance(std_world, std_cost):
    theory = theory_with(std_world, std_cost, ["(A&B)"])
    proof = prove(theory, Atom("A"))
    assert proof is not None
    kinds = [type(s.justification) for s in proof.steps]
    assert SchemaInstance in kinds and ModusPonens in kinds
    assert not check_proof(theory, proof)


def test_prove_deterministic(std_world, std_cost):
    runs = []
    for _ in range(2):
        theory = theory_with(std_world, std_cost, ["A", "(A->B)"])
        proof = prove(theory, Atom("B"))
        runs.append([(render(s.statement), repr(s.justification)) for s in proof.steps])
    assert runs[0] == runs[1]


# --- is_theorem / theorems_up_to --------------------------------------------------

def test_is_theorem_fixture(std_world, std_cost):
    theory = theory_with(std_world, std_cost, ["A", "(A->B)"])
    assert is_theorem(theory, Atom("B"))
    assert not is_theorem(theory, Atom("C"))
    assert not is_theorem(theory, Atom("D"))


def test_theorems_up_to_contains_axioms_and_mp(std_world, std_cost):
    theory = theory_with(std_world, std_cost, ["A", "(A->B)"])
    theorems = theorems_up_to(theory, 6)
    assert Atom("A") in theorems
    assert Atom("B") in theorems
    assert Implies(Atom("A"), Atom("B")) in theorems


def test_theorems_subset_of_size_bound(std_cost):
    from tests_support_random_world import random_truth_world

    world = random_truth_world((True, True), names=("A", "B"))
    theory = build_theory(AMPLE, (AxiomCandidate(parse("A")), AxiomCandidate(parse("(A->B)"))), world, std_cost)
    for s in theorems_up_to(theory, 7):
        assert len(render(s)) <= 7


def test_no_axioms_tiny_bound_schema_instances_only(std_cost):
    from tests_support_random_world import random_truth_world

    world = random_truth_world((True, True), names=("A", "B"))
    theory = build_theory(AMPLE, (), world, std_cost)
    assert theorems_up_to(theory, 7) == []
    ten = theorems_up_to(theory, 10)
    assert ten
    for s in ten:
        proof = prove(theory, s)
        assert len(proof.steps) == 1
        assert isinstance(proof.steps[0].justification, SchemaInstance)


# --- proof checker negatives -------------------------------------------------------

def test_check_proof_catches_tampering(std_world, std_cost):
    from resbound.theory import Proof, ProofStep

    theory = theory_with(std_world, std_cost, ["A", "(A->B)"])
    proof = prove(theory, Atom("B"))

    swapped = Proof(
        tuple(
            ProofStep(s.statement, TheoryAxiom(0), s.cost) if i == 2 else s
            for i, s in enumerate(proof.steps)
        ),
        proof.cost,
    )
    assert check_proof(theory, swapped)

    wrong_cost = Proof(
        tuple(
            ProofStep(s.statement, s.justification, s.cost.add(vec(1, 0, 0, 0)))
            for s in proof.steps
        ),
        proof.cost,
    )
    assert check_proof(theory, wrong_cost)


def test_schema_substitution_roundtrip():
    for schema in SCHEMAS:
        bindings = {v: Atom(f"Z{i}") for i, v in enumerate(schema.metavars)}
        inst = substitute(schema.template, bindings)
        assert "?" not in render(inst)


# --- oracle agreement --------------------------------------------------------------

@pytest.mark.parametrize(
    "axioms",
    [
        ["A", "(A->B)"],
        ["B", "(B->D)", "(A->B)"],
        ["(A&D)"],
    ],
)
def test_engine_agrees_with_oracle_small(std_world, std_cost, axioms):
    from resbound.statements import enumerate_statements

    theory = theory_with(std_world, std_cost, axioms)
    cap = theory.length_cap()
    axiom_stmts = [a.statement for a in theory.axioms.admitted]
    for s in enumerate_statements(["A", "B"], 5):
        engine = is_theorem(theory, s)
        oracle = oracle_provable(s, axiom_stmts, theory.budget, std_cost, cap)
        assert engine == oracle, render(s)


def test_proof_does_not_depend_on_the_order_of_the_axioms(std_world, std_cost):
    # D has the four-step proof ((B->D)->B), (B->D), B, D; the shorter
    # derivation of B from ((B&A)->B) and (B&A) takes five steps with (B->D)
    orders = (["((B->D)->B)", "(B->D)", "(B&A)"], ["(B&A)", "(B->D)", "((B->D)->B)"])
    proofs = []
    for axioms in orders:
        theory = theory_with(std_world, std_cost, axioms)
        axiom_stmts = [a.statement for a in theory.axioms.admitted]
        assert oracle_provable(Atom("D"), axiom_stmts, theory.budget, std_cost,
                               theory.length_cap())
        proof = prove(theory, Atom("D"))
        assert proof is not None
        proofs.append((proof.cost, [render(s.statement) for s in proof.steps]))
    assert proofs[0] == proofs[1]
    assert proofs[0][1] == ["(B->D)", "((B->D)->B)", "B", "D"]


def _three_true_atoms_theory(axioms, budget, steps=4):
    """A theory over A, B and D, all true, each decided for 1 per component,
    priced at delta 1 and delta_e 0."""
    from tests_support_random_world import random_truth_world

    world = random_truth_world((True, True, True), names=("A", "B", "D"))
    cost = CostParameters.uniform(4, delta=1, delta_e=0)
    candidates = tuple(AxiomCandidate(parse(t)) for t in axioms)
    return build_theory(budget, candidates, world, cost, steps)


def test_a_longer_derivation_that_fits_the_budget_is_taken():
    # the least derivation of D, ((A&(A&B))->D), (A&(A&B)), D, costs 48; the
    # four-step one through B costs 38, so [45,45,45,45] affords only that
    axioms = ["((A&(A&B))->D)", "(A&(A&B))", "(B->D)", "((B->D)->B)"]
    for budget, cost, steps in [(45, 38, ["(B->D)", "((B->D)->B)", "B", "D"]),
                                (48, 48, ["((A&(A&B))->D)", "(A&(A&B))", "D"])]:
        theory = _three_true_atoms_theory(axioms, vec(budget, budget, budget, budget))
        assert oracle_provable(Atom("D"), [a.statement for a in theory.axioms.admitted],
                               theory.budget, theory.cost_params, theory.length_cap())
        proof = prove(theory, Atom("D"))
        assert proof is not None and not check_proof(theory, proof)
        assert proof.cost == vec(cost, cost, cost, cost)
        assert sorted(render(s.statement) for s in proof.steps) == sorted(steps)


@pytest.mark.parametrize("steps", [4, 5, 6, 7])
def test_a_larger_step_bound_keeps_a_four_step_theorem(steps):
    # a five-step derivation of D through ((B&A)->B) costs 42, over the
    # budget; the four-step proof costs 38
    axioms = ["(B&A)", "(B->D)", "((B->D)->B)"]
    theory = _three_true_atoms_theory(axioms, vec(40, 40, 40, 40), steps)
    proof = prove(theory, Atom("D"))
    assert proof is not None
    assert proof.cost == vec(38, 38, 38, 38)
    assert [render(s.statement) for s in proof.steps] == ["((B->D)->B)", "(B->D)", "B", "D"]


@pytest.mark.parametrize("steps", [6, 7])
def test_proof_above_four_steps_does_not_depend_on_the_order_of_the_axioms(steps):
    from tests_support_random_world import random_truth_world

    # C takes six steps, through the four-step proof of D from ((B->D)->B)
    # and (B->D); joining only B's least derivation, from (B&A), takes seven
    world = random_truth_world((True, True, True, True))
    cost = CostParameters.uniform(4, delta=1, delta_e=0)
    proofs = []
    for axioms in (["((B->D)->B)", "(B->D)", "(B&A)", "(D->C)"],
                   ["(B&A)", "(B->D)", "((B->D)->B)", "(D->C)"]):
        theory = build_theory(AMPLE, tuple(AxiomCandidate(parse(t)) for t in axioms), world,
                              cost, steps)
        proof = prove(theory, Atom("C"))
        assert proof is not None
        proofs.append((proof.cost, [render(s.statement) for s in proof.steps]))
    assert proofs[0] == proofs[1]
    assert sorted(proofs[0][1]) == ["((B->D)->B)", "(B->D)", "(D->C)", "B", "C", "D"]


# --- soundness -----------------------------------------------------------------------

def test_soundness_clean_fixture(std_world, std_cost):
    theory = theory_with(std_world, std_cost, ["A", "(A->B)"])
    report = soundness_check(theory, 5)
    assert report.ok and report.checked > 0


def test_soundness_flags_false_postulate(std_world, std_cost):
    candidates = (
        AxiomCandidate(parse("A")),
        AxiomCandidate(parse("C"), Justification.POSTULATED),
    )
    theory = build_theory(AMPLE, candidates, std_world, std_cost)
    report = soundness_check(theory, 5)
    assert not report.ok
    assert Atom("C") in report.violations


@settings(max_examples=8, deadline=None)
@given(st.tuples(st.booleans(), st.booleans(), st.booleans()))
def test_soundness_random_truths_verified_only(truths):
    from tests_support_random_world import random_truth_world  # local helper

    world = random_truth_world(truths, names=("A", "B", "C"))
    cost = __import__("resbound").CostParameters.uniform(4, delta=1, delta_e=0)
    candidates = tuple(
        AxiomCandidate(parse(t))
        for t in ["A", "B", "(A->B)", "(C->A)", "(A&B)", "!C"]
    )
    theory = build_theory(AMPLE, candidates, world, cost)
    report = soundness_check(theory, 5)
    assert report.ok


def test_step_bound_applies_to_one_step_proofs(std_world, std_cost):
    theory = theory_with(std_world, std_cost, ["A", "(A->B)"])
    assert is_theorem(theory, Atom("A"), 1)
    assert not is_theorem(theory, Atom("A"), 0)


def test_a_search_past_its_state_limit_fails_fast(std_world, std_cost):
    import resbound.theory as theory_mod
    from resbound.cli import _proof_payload
    from resbound.errors import SearchTooLarge

    # the axioms are inconsistent, so they entail every statement and
    # entailment prunes no state: the search gives up instead of trying them all
    candidates = tuple(AxiomCandidate(parse(t), Justification.POSTULATED) for t in ["!(A->A)", "!A"])
    theory = build_theory(AMPLE, candidates, std_world, std_cost, 8)
    assert len(theory.axioms.admitted) == 2
    goal = parse("((A->B)->(B->A))")
    limit = f"popped {theory_mod._MAX_STATES} states, its limit of {theory_mod._MAX_STATES}"
    for _ in range(2):  # a repeated request gives up again
        with pytest.raises(SearchTooLarge, match=limit):
            prove(theory, goal)
    assert _proof_payload(theory, goal) == {
        "statement": "((A->B)->(B->A))", "found": False, "reason": "search-too-large"}


def test_an_ordering_past_its_state_limit_fails_fast():
    import resbound.theory as theory_mod
    from resbound.errors import SearchTooLarge

    # twenty steps that need nothing before them make 2^20 sets of placed
    # steps; the ordering gives up at the limit instead of visiting them all
    nodes = frozenset(Atom(f"P{i:02d}") for i in range(21))
    limit = theory_mod._MAX_ORDER_STATES
    with pytest.raises(SearchTooLarge, match=f"reached {limit + 1} states, past its limit of {limit}"):
        theory_mod._cheapest_order(nodes, {}, Atom("P00"), Fraction(1, 100))


def test_a_proof_past_the_ordering_limit_is_reported(monkeypatch, std_world, std_cost,
                                                     forget_searches):
    import resbound.theory as theory_mod
    from resbound.cli import _proof_payload
    from resbound.errors import SearchTooLarge

    # the proof of B places A and (A->B) in either order: four sets of placed
    # steps, from none to both
    theory = theory_with(std_world, std_cost, ["A", "(A->B)"])
    monkeypatch.setattr(theory_mod, "_MAX_ORDER_STATES", 3)
    for _ in range(2):  # nothing was priced, so a repeated request gives up again
        with pytest.raises(SearchTooLarge, match="reached 4 states, past its limit of 3"):
            prove(theory, Atom("B"))
    assert _proof_payload(theory, Atom("B")) == {
        "statement": "B", "found": False, "reason": "search-too-large"}
    monkeypatch.setattr(theory_mod, "_MAX_ORDER_STATES", 4)
    assert prove(theory, Atom("B")) is not None


# --- exact step ordering ------------------------------------------------------------

_CHAIN = "KEMVBCRD"


def chain_theory(energy, chain=_CHAIN, steps=15):
    """K and (K->E) ... (R->D): the proof of D has 15 steps and far more than
    5040 premise-respecting orders."""
    from resbound import DetermineTruth, Procedure, World
    from resbound.world import truth_output

    alpha = Alphabet.from_string(chain + "()!&|->")
    procs = {
        f"p{a}": Procedure(
            f"p{a}", frozenset(), Expression("", alpha), vec(0, 0, 0, 0),
            DetermineTruth(a), truth_output(a),
        )
        for a in chain
    }
    world = World(
        dimension=1,
        alphabet=alpha,
        equipment={},
        procedures=procs,
        ground_truth={a: True for a in chain},
        true_purposes={pid: p.declared_purpose for pid, p in procs.items()},
    )
    cost = CostParameters.uniform(4, delta=1, delta_e=Fraction(1, 100))
    axioms = [chain[0]] + [f"({a}->{b})" for a, b in zip(chain, chain[1:])]
    budget = vec(1000, 1000, 1000, energy)
    return build_theory(budget, tuple(AxiomCandidate(parse(t)) for t in axioms), world, cost, steps)


@pytest.mark.parametrize("energy", [100000, Fraction(207, 2)], ids=["ample", "exact"])
def test_long_chain_gets_its_cheapest_order(energy):
    # each implication axiom is written just before the step that uses it:
    # 2 * (8 * 1 + 7 * 6) = 100 per component, plus 350 symbol-intervals of
    # upkeep at 1/100 on energy
    theory = chain_theory(energy)
    proof = prove(theory, Atom("D"))
    assert proof is not None
    assert proof.cost == vec(100, 100, 100, Fraction(207, 2))
    assert not check_proof(theory, proof)


def _cheapest_by_enumeration(theory, proof):
    """(cost, renderings) of the cheapest order of the proof's steps that puts
    premises first and the goal last, found by trying every permutation."""
    from resbound.theory import _step_costs

    stmts = [s.statement for s in proof.steps]
    needs = {
        s.statement: {stmts[s.justification.implication_step], stmts[s.justification.antecedent_step]}
        if isinstance(s.justification, ModusPonens)
        else set()
        for s in proof.steps
    }
    keys = []
    for perm in itertools.permutations(stmts[:-1]):
        order = [*perm, stmts[-1]]
        if all(needs[s] <= set(order[:i]) for i, s in enumerate(order)):
            keys.append((_step_costs(theory, order)[1], [render(s) for s in order]))
    return min(keys, key=lambda k: (k[0].sort_key(), k[1]))


@pytest.mark.parametrize("delta_e", [0, Fraction(1, 100)])
@pytest.mark.parametrize(
    "axioms, goal",
    [
        (["A", "(A->B)"], "B"),
        (["(A&B)"], "A"),
        (["A", "(A->B)", "(B->D)"], "D"),
        (["A", "B"], "(A&B)"),
    ],
)
def test_chosen_order_is_the_cheapest_of_all_orders(std_world, delta_e, axioms, goal):
    cost = CostParameters.uniform(4, delta=1, delta_e=delta_e)
    theory = theory_with(std_world, cost, axioms, steps=6)
    proof = prove(theory, parse(goal))
    assert proof is not None
    assert (proof.cost, [render(s.statement) for s in proof.steps]) == _cheapest_by_enumeration(
        theory, proof
    )


# --- searches shared across theories -------------------------------------------------

@pytest.fixture
def fresh_searches(monkeypatch, forget_searches):
    """An empty search cache, and what runs against it: the number of
    searches built and the goal of each A* search started."""
    import types

    import resbound.theory as theory_mod

    runs = types.SimpleNamespace(built=0, searched=[])
    build, astar = theory_mod._Search.__init__, theory_mod._Search._astar

    def built(self, *args):
        runs.built += 1
        build(self, *args)

    def searched(self, goal, least):
        runs.searched.append(render(goal))
        return astar(self, goal, least)

    monkeypatch.setattr(theory_mod._Search, "__init__", built)
    monkeypatch.setattr(theory_mod._Search, "_astar", searched)
    return runs


@pytest.mark.parametrize("rich_first", [False, True])
def test_budget_is_not_in_the_search_key(std_world, rich_first, fresh_searches):
    import resbound.theory as theory_mod
    from resbound import CostParameters

    # every expression pays a base of 100 once: N(200) = 100 and N(400) = 300
    # prune nothing, while the three-step proof of B costs 316 in every
    # component, so only the richer theory can pay for it
    cost = CostParameters.uniform(4, delta=1, delta_e=0, base=100)
    poor = theory_with(std_world, cost, ["A", "(A->B)"], budget=vec(200, 200, 200, 200))
    rich = theory_with(std_world, cost, ["A", "(A->B)"], budget=vec(400, 400, 400, 400))
    assert poor.axioms.admitted == rich.axioms.admitted
    order = [rich, poor] if rich_first else [poor, rich]
    proofs = {id(t): prove(t, Atom("B")) for t in order}
    assert proofs[id(poor)] is None
    assert proofs[id(rich)] is not None
    assert proofs[id(rich)].cost == vec(316, 316, 316, 316)
    assert len(theory_mod._searches) == 1  # one search over A and (A->B)


def test_binding_cap_is_in_the_search_key(std_world, std_cost, fresh_searches):
    import resbound.theory as theory_mod

    # N([8,8,8,8]) = 7 admits (A&B) but not the instance ((A&B)->A) that the
    # proof of A needs; the ample theory admits the same axiom and has a proof
    ample = theory_with(std_world, std_cost, ["(A&B)"])
    capped = theory_with(std_world, std_cost, ["(A&B)"], budget=vec(8, 8, 8, 8))
    assert capped.length_cap() == 7
    assert ample.axioms.admitted == capped.axioms.admitted
    assert prove(ample, Atom("A")) is not None
    assert prove(capped, Atom("A")) is None
    # the caps differ, so the pools and the searches do
    assert len(theory_mod._searches) == 2


def _answers(theory, goals):
    return [(render(s), is_theorem(theory, s)) for s in goals]


def test_standard_t0_after_t8_answers_as_alone(forget_searches):
    from resbound.scenario import load
    from resbound.statements import enumerate_statements

    def grid_ends():
        grid = load("fixtures/standard.scn").theory_grid()
        return grid.theory_at(grid.points[0]), grid.theory_at(grid.points[-1])

    forget_searches()
    t0, _ = grid_ends()
    assert t0.length_cap() == 3
    goals = list(enumerate_statements(t0.world.atoms(), 3))
    alone = _answers(t0, goals)

    forget_searches()
    t0, t8 = grid_ends()
    _answers(t8, goals)
    assert _answers(t0, goals) == alone
    assert ("A", True) in alone


def test_lattice_on_standard_keeps_48_searches(tmp_path, fresh_searches):
    import resbound.theory as theory_mod
    from resbound.cli import main

    code = main(
        ["--scenario", "fixtures/standard.scn", "--command", "lattice", "--out", str(tmp_path)]
    )
    assert code == 0
    # the six grid points that admit the same axioms share every search, at
    # step bound 4 no A* search runs, and the 24 entailed goals with pools of
    # their own that need more than four steps, such as (A&B) and !!B from A
    # and (A->B), are refused before a search is built
    assert len(theory_mod._searches) == fresh_searches.built == 48
    assert fresh_searches.searched == []


def test_goals_with_one_pool_share_a_saturation(forget_searches, fresh_searches):
    # E, M and V are subformulas of the axioms, so their pools are the axioms'
    # pool and they share its search; (K&M) adds itself and its negation to
    # the pool, and its least derivation takes eight steps; each goal runs its
    # own A* search, once
    goals = [Atom("E"), Atom("M"), Atom("V"), parse("(K&M)")]
    shared = [prove(chain_theory(100000, "KEMV", 7), g) for g in goals]
    assert fresh_searches.built == 2
    assert fresh_searches.searched == ["E", "M", "V", "(K&M)"]
    # a repeated request reads the candidates found so far
    assert [prove(chain_theory(100000, "KEMV", 7), g) for g in goals] == shared
    assert len(fresh_searches.searched) == 4
    alone = []
    for g in goals:
        forget_searches()
        alone.append(prove(chain_theory(100000, "KEMV", 7), g))
    assert fresh_searches.built == 6 and len(fresh_searches.searched) == 8
    assert shared == alone
    assert [p is not None for p in shared] == [True, True, True, False]


def test_goals_between_others_of_their_pool_reuse_its_saturation(fresh_searches):
    # (K&M) has a pool of its own and comes between M and V, which share the
    # axioms' pool: the search M built is still there when V asks for it
    theory = chain_theory(100000, "KEMV", 7)
    proofs = [prove(theory, g) for g in (Atom("M"), parse("(K&M)"), Atom("V"))]
    assert [p is not None for p in proofs] == [True, False, True]
    assert fresh_searches.built == 2
    assert fresh_searches.searched == ["M", "(K&M)", "V"]


def test_lattice_on_standard_prices_each_proof_once(tmp_path, monkeypatch, forget_searches):
    import collections

    import resbound.theory as theory_mod
    from resbound.cli import main

    calls = collections.Counter()

    def counted(name):
        inner = getattr(theory_mod, name)

        def call(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(theory_mod, name, call)

    for name in ("_linearize", "check_proof", "_truth_vectors"):
        counted(name)
    lattice = ["--scenario", "fixtures/standard.scn", "--command", "lattice", "--out"]
    assert main([*lattice, str(tmp_path / "shared")]) == 0
    # of 897 requests, 24 bring a (search, node set, cost model) not priced
    # before, and each priced proof that fits passes the checker once; a
    # request asked before builds no truth vectors
    assert calls["_linearize"] == calls["check_proof"] == 24
    assert calls["_truth_vectors"] <= 143

    # the same outputs when each grid point starts from an empty memo
    prove, asked = theory_mod.prove, []

    def fresh_per_point(theory, goal, max_steps=None):
        if not asked or asked[-1] is not theory:
            forget_searches()
            asked.append(theory)
        return prove(theory, goal, max_steps)

    monkeypatch.setattr(theory_mod, "prove", fresh_per_point)
    assert main([*lattice, str(tmp_path / "fresh")]) == 0
    assert calls["_linearize"] > 2 * 24  # the fresh run priced its proofs again

    def outputs(folder):
        return {p.relative_to(folder): p.read_bytes() for p in sorted(folder.rglob("*"))}

    assert outputs(tmp_path / "shared") == outputs(tmp_path / "fresh")


def _outcome(theory, goal):
    """What ``prove`` gives: the proof, None or the error it raises."""
    try:
        return prove(theory, goal)
    except ValueError as exc:
        return repr(exc)


@pytest.mark.parametrize("reverse", [False, True])
def test_cost_models_sharing_a_search_answer_as_alone(std_world, std_cost, forget_searches,
                                                      reverse):
    import dataclasses

    import resbound.theory as theory_mod

    # three theories admit (A&B) with N(r) = 40 and share one search for A;
    # without upkeep the proof costs 32 energy, with it 32.2, and an alphabet
    # without & cannot write it
    free = dataclasses.replace(std_cost, delta_e=Fraction(0))
    narrow = dataclasses.replace(std_world, alphabet=Alphabet.from_string("ABCD()!|->"))
    budget = vec(40, 40, 40, 60)
    theories = [theory_with(world, cost, ["(A&B)"], budget)
                for world, cost in ((std_world, std_cost), (std_world, free), (narrow, std_cost))]
    alone = []
    for theory in theories:
        forget_searches()
        alone.append(_outcome(theory, Atom("A")))
    assert [p.cost for p in alone[:2]] == [vec(32, 32, 32, Fraction(161, 5)), vec(32, 32, 32, 32)]
    assert alone[2] == repr(ValueError("character '&' not in alphabet"))

    forget_searches()
    order = [2, 1, 0] if reverse else [0, 1, 2]
    for _ in range(2):
        assert [_outcome(theories[i], Atom("A")) for i in order] == [alone[i] for i in order]
    assert len(theory_mod._searches) == 1


def test_a_refused_goal_asked_again_builds_no_truth_vectors(monkeypatch, std_world, std_cost,
                                                           fresh_searches):
    import resbound.theory as theory_mod

    built = []
    truth_vectors = theory_mod._truth_vectors

    def counted(*args):
        built.append(args)
        return truth_vectors(*args)

    monkeypatch.setattr(theory_mod, "_truth_vectors", counted)
    # two grid points that admit the same axioms; C is false in the world, so
    # no set of them entails it and the first request refuses it
    points = [theory_with(std_world, std_cost, ["A", "(A->B)"], budget=b)
              for b in (AMPLE, vec(10**5, 10**5, 10**5, 10**5))]
    assert [prove(t, Atom("C")) for t in points] == [None, None]
    assert len(built) == 1 and fresh_searches.built == 0


# --- schema instances a search can use ----------------------------------------------

def test_atom_vectors_are_the_valuations_that_make_them_true():
    from resbound.theory import _truth_vectors

    # valuation v makes the i-th atom (in name order) true when bit i of v is set
    for n in range(13):
        atoms = [Atom(f"P{i:02d}") for i in range(n)]
        everything, truth = _truth_vectors((), atoms)
        vectors = [truth(a) for a in atoms]
        assert everything == (1 << (1 << n)) - 1
        assert vectors == [sum(1 << v for v in range(1 << n) if v >> i & 1) for i in range(n)]


def _full_product_base(axioms, pool, cap):
    """Each entry's justification: the axioms, then every schema instance over
    the pool that fits the cap, in itertools.product order per schema, first
    occurrence first."""
    out = {}
    for idx, ax in enumerate(axioms):
        out.setdefault(ax, TheoryAxiom(idx))
    for schema in SCHEMAS:
        text = render(schema.template)
        for combo in itertools.product(pool, repeat=len(schema.metavars)):
            # the rendered length of the instance, without building it
            length = len(text) + sum(
                text.count(v) * (len(render(c)) - len(v)) for v, c in zip(schema.metavars, combo))
            if cap is not None and length > cap:
                continue
            inst = substitute(schema.template, dict(zip(schema.metavars, combo)))
            out.setdefault(inst, SchemaInstance(schema.index, tuple(zip(schema.metavars, combo))))
    return out


def _least_derivations(full_base, steps):
    """Each statement's least derivation of at most ``steps`` nodes over the
    full-product base, as (key, sorted renderings of its nodes), by brute
    force: every statement's node sets that hold no other node set of it,
    closed under modus ponens.  Modus ponens on f = (x->t) and x joins a node
    set of f, one of x and t; any derivation of t has all three inside its
    nodes, so the least is among these."""
    from collections import deque

    sets = {}  # statement -> its node sets that hold no other
    users = {}  # antecedent -> the implications with a node set
    queue = deque()

    def add(t, nodes):
        family = sets.setdefault(t, [])
        if len(nodes) <= steps and not any(n <= nodes for n in family):
            family[:] = [n for n in family if not nodes <= n]
            family.append(nodes)
            queue.append((t, nodes))

    for s in full_base:
        add(s, frozenset({s}))
    while queue:
        s, nodes = queue.popleft()
        if nodes not in sets[s]:
            continue  # a smaller node set replaced it
        if isinstance(s, Implies):
            users.setdefault(s.left, {})[s] = None
            for x_nodes in list(sets.get(s.left, ())):
                add(s.right, nodes | x_nodes | {s.right})
        for f in list(users.get(s, ())):
            for f_nodes in list(sets[f]):
                add(f.right, f_nodes | nodes | {f.right})
    return {
        t: min(((len(n), sum(len(render(m)) for m in n)), tuple(sorted(map(render, n))))
               for n in family)
        for t, family in sets.items() if family
    }


def _least(derivation):
    """A derivation's key and sorted node renderings, or None."""
    if derivation is None:
        return None
    nodes, _ = derivation
    return (len(nodes), sum(len(render(n)) for n in nodes)), tuple(sorted(map(render, nodes)))


def _entry(derivation, entry_of):
    """A derivation's key and sorted node renderings, and each node's
    justification: the premise it is derived from, else its entry's."""
    nodes, via = derivation
    return _least(derivation), sorted(
        (render(t), via[t] if t in via else entry_of(t)) for t in nodes)


def _random_statement(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(names))
    kind = rng.randrange(4)
    if kind == 0:
        return Not(_random_statement(rng, names, depth - 1))
    ctor = (And, Or, Implies)[kind - 1]
    return ctor(_random_statement(rng, names, depth - 1), _random_statement(rng, names, depth - 1))


def _random_theories(rng, count):
    """(axioms, goal, N(r), step bound) of small theories; most goals that fit
    N(r) are schema instances, which the pool then holds."""
    for _ in range(count):
        names = "ABCD"[: rng.randint(2, 4)]
        cap = rng.choice([None, 9, 12, 15])
        # admission keeps only axioms within N(r), and prove refuses longer goals
        drawn = (_random_statement(rng, names, 2) for _ in range(rng.randint(0, 4)))
        axioms = tuple(a for a in drawn if cap is None or len(render(a)) <= cap)
        schema = rng.choice(SCHEMAS)
        values = {v: _random_statement(rng, names, 1) for v in schema.metavars}
        goal = substitute(schema.template, values)
        if rng.random() < 0.5 or (cap is not None and len(render(goal)) > cap):
            goal = _random_statement(rng, names, 2)
        if cap is not None and len(render(goal)) > cap:
            goal = Atom(names[0])
        yield axioms, goal, cap, rng.randint(1, 7)


def test_kept_instances_saturate_like_the_full_product():
    import random

    from resbound.errors import SearchTooLarge

    # every schema's instance over atoms as the goal of the empty theory: an
    # instance in the pool is an entry whether or not it can fire
    atoms = {"?a": Atom("A"), "?b": Atom("B"), "?c": Atom("C")}
    pool_instances = [((), substitute(schema.template, atoms), None, 1) for schema in SCHEMAS]
    too_large = set()
    for axioms, goal, cap, steps in [*pool_instances, *_random_theories(random.Random(10), 40)]:
        pool, search_cap, search = _search(axioms, goal, cap, steps)
        reference = _full_product_base(axioms, pool, search_cap)
        least = _least_derivations(reference, steps)
        # each pool statement's first candidate is its least derivation over
        # every instance
        for s in pool:
            case = ([render(a) for a in axioms], render(s), cap, steps)
            try:
                assert _least(next(search.derivations(s), None)) == least.get(s), case
            except SearchTooLarge:
                too_large.add(tuple(case[0]))
                assert least.get(s) is None, case
    # inconsistent axioms, where entailment prunes nothing
    assert too_large == {("C", "(!C&A)", "(C&(A&B))", "!(B->A)")}


def _search(axioms, goal, cap, steps):
    """The pool, effective cap and a fresh search of one random theory."""
    from resbound.theory import (
        _closure,
        _effective_cap,
        _instantiation_pool,
        _Search,
        _truth_vectors,
    )

    closure = _closure(axioms, goal)
    # the effective cap reads no closure: its longest member is the negation
    # of the longest of the goal and the axioms
    assert max(map(rendered_length, closure)) == 1 + max(map(rendered_length, (goal, *axioms)))
    search_cap = _effective_cap(axioms, goal, cap)
    pool = _instantiation_pool(closure, search_cap)
    return pool, search_cap, _Search(axioms, pool, search_cap, steps, *_truth_vectors(axioms, pool))


def _least_by_shape(base, steps, goal):
    """The least (key, sorted renderings) derivation of the goal in one, three
    or four steps over the full-product base, found by scanning every entry."""
    if steps < 1:
        return None
    if goal in base:
        return frozenset({goal}), {}
    found = []
    for s in base:
        # s as f = (x->goal), with x an entry or derived from (f->x) and f
        if isinstance(s, Implies) and s.right == goal and s.left != goal:
            if s.left in base and steps >= 3:
                found.append((frozenset({goal, s, s.left}), {goal: s}))
            if Implies(s, s.left) in base and steps >= 4:
                found.append((frozenset({goal, s, s.left, Implies(s, s.left)}),
                              {goal: s, s.left: Implies(s, s.left)}))
        # s as x, with f = (x->goal) derived from (x->f) and x
        f = Implies(s, goal)
        if s != goal and Implies(s, f) in base and steps >= 4:
            found.append((frozenset({goal, f, s, Implies(s, f)}), {goal: f, f: Implies(s, f)}))
    return min(found, key=_least, default=None)


def test_searched_entry_is_the_full_products():
    import random

    from resbound.errors import SearchTooLarge

    # the goal's first candidate must be its least derivation over every
    # instance: the least of its shape up to four steps, by brute force above
    found = {True: 0, False: 0}
    too_large = []
    # D has a four-step proof through B from ((B->D)->B); a shorter derivation
    # of B from (B&A) makes five steps with (B->D), so a search that joins
    # only B's best derivation finds it or not by the order of the axioms;
    # A is its own premise in the three-step derivation of A from (A->A) and
    # ((A->A)->A); the first premise pair found for D is not the least
    cases = [(tuple(map(parse, axioms)), Atom(goal), None, 4) for axioms, goal in (
        (["((B->D)->B)", "(B->D)", "(B&A)"], "D"), (["(B&A)", "(B->D)", "((B->D)->B)"], "D"),
        (["(A->A)", "((A->A)->A)"], "A"), (["((A&B)->D)", "(A&B)", "(A->D)", "A"], "D"))]
    drawn = zip(_random_theories(random.Random(13), 200), itertools.cycle(range(3, 9)))
    cases += [(axioms, goal, cap, steps) for (axioms, goal, cap, _), steps in drawn]
    for axioms, goal, cap, steps in cases:
        pool, search_cap, search = _search(axioms, goal, cap, steps)
        full_base = _full_product_base(axioms, pool, search_cap)
        case = ([render(a) for a in axioms], render(goal), cap, steps)
        try:
            first = next(search.derivations(goal), None)
        except SearchTooLarge:
            too_large.append(case)
            assert _least_derivations(full_base, steps).get(goal) is None
            continue
        if search.found[goal] is None:
            # nothing is built for a goal out of reach, and it has no derivation
            assert search.entries == {} and _least_derivations(full_base, steps).get(goal) is None
        elif steps <= 4:
            least = _least_by_shape(full_base, steps, goal)
            assert (first and _entry(first, search._entry_of)) == (
                least and _entry(least, full_base.get)), case
        else:
            assert _least(first) == _least_derivations(full_base, steps).get(goal), case
        found[steps <= 4] += first is not None
    assert found == {True: 22, False: 41}
    # the axioms are inconsistent, so entailment prunes nothing, and the goal
    # has no derivation within seven steps
    assert too_large == [(["B", "!(A->D)", "!(D|D)", "((D&B)|D)"], "!(C&C)", None, 7)]


def _chain_theories(rng, count):
    """(axioms, goal, step bound 3 to 7) over A to D: a chain X0, (X0->X1),
    ... over two to four atoms and up to two more axioms, in random order, and
    a goal that is an atom or joins two; such goals often need many axioms."""
    def draw(kinds):
        kind = rng.choice(kinds)
        if kind is Atom:
            return Atom(rng.choice("ABCD"))
        return kind(Atom(rng.choice("ABCD")), Atom(rng.choice("ABCD")))

    for _ in range(count):
        names = rng.sample("ABCD", rng.randint(2, 4))
        axioms = [Atom(names[0]), *(Implies(Atom(a), Atom(b)) for a, b in zip(names, names[1:]))]
        axioms += [draw((Atom, Implies, And)) for _ in range(rng.randint(0, 2))]
        rng.shuffle(axioms)
        yield tuple(axioms), draw((Atom, And, And, Or, Implies)), rng.randint(3, 7)


def test_goals_out_of_reach_have_no_derivation():
    import random

    from resbound import CostParameters
    from resbound.theory import _least_axioms

    # an entailed goal the bound refuses has no derivation: no proof of up to
    # four steps, as the oracle says, and none that a brute-force enumeration
    # over every instance finds above four steps
    cost = CostParameters.uniform(4, delta=1, delta_e=0)
    refused = {"oracle": 0, "enumerated": 0}
    for axioms, goal, steps in _chain_theories(random.Random(29), 150):
        pool, _, search = _search(axioms, goal, None, steps)
        if not search._entails(goal) or _least_axioms(
                axioms, goal, steps, search.truth) is not None:
            continue
        if steps <= 4:
            refused["oracle"] += 1
            assert not oracle_provable(goal, list(axioms), AMPLE, cost, None)
        else:
            refused["enumerated"] += 1
            assert _least_derivations(_full_product_base(axioms, pool, None), steps).get(goal) is None
    assert refused == {"oracle": 21, "enumerated": 12}


@pytest.mark.parametrize("length", [2, 3, 5, 7])
def test_chain_conjunction_past_the_step_bound_builds_nothing(length, fresh_searches):
    import resbound.theory as theory_mod

    # (X0&XL) needs all L+1 axioms, the conjunction instance and 2L+4 steps;
    # XL alone has its 2L+1
    chain = _CHAIN[: length + 1]
    theory = chain_theory(100000, chain, 2 * length + 1)
    assert prove(theory, parse(f"({chain[0]}&{chain[-1]})")) is None
    assert fresh_searches.built == 0 and theory_mod._searches == {}
    assert prove(theory, Atom(chain[-1])) is not None
    assert fresh_searches.searched == [chain[-1]]


@pytest.mark.parametrize("steps", [3, 4, 7])
def test_goals_of_a_pool_in_any_order_prove_as_alone(forget_searches, std_world, std_cost, steps):
    import random

    import resbound.theory as theory_mod

    # the axioms' subformulas share the axioms' pool, the last five goals bring
    # pools of their own; D and (A&A) take four steps
    axioms = ["A", "(A->(A->D))", "(!D|B)", "(C->B)"]
    goals = sorted(theory_mod._closure(tuple(parse(a) for a in axioms), Atom("A")), key=render)
    goals += [parse(g) for g in ("(A->(B->A))", "((A&C)->A)", "(D|C)", "(B&D)", "(A&A)")]
    theory = theory_with(std_world, std_cost, axioms, steps=steps)
    alone = []
    for g in goals:
        forget_searches()
        alone.append(prove(theory, g))
    assert sum(p is not None for p in alone) == {3: 7, 4: 9, 7: 10}[steps]
    for seed in range(3):
        forget_searches()
        order = random.Random(seed).sample(range(len(goals)), len(goals))
        shared = {i: prove(theory, goals[i]) for i in order}
        assert [shared[i] for i in range(len(goals))] == alone


def test_step_bound_selects_the_base(forget_searches, std_world, std_cost, fresh_searches):
    # B has a three-step proof by its shape, D a five-step one only the A*
    # search finds, and up to four steps the bound refuses D; above four
    # steps each goal runs an A* search
    for steps, searched in [(3, []), (4, []), (5, ["B", "D"]), (8, ["B", "D"] * 2)]:
        forget_searches()
        theory = theory_with(std_world, std_cost, ["A", "(A->B)", "(B->D)"], steps=steps)
        assert prove(theory, Atom("B")) is not None
        assert (prove(theory, Atom("D")) is not None) == (steps >= 5)
        assert fresh_searches.searched == searched


def test_shaped_and_astar_candidates_agree_up_to_four_steps():
    import random

    from resbound.theory import _least_axioms

    # at step bounds 3 and 4 both searches apply: an entry goal's first
    # candidate is its entry alone, and any other goal's candidates are the
    # same list, node sets and premise maps alike; a refused goal has none.
    # D takes four steps from ((B->D)->B) and (B->D), the one random draws miss
    drawn = [(tuple(map(parse, ["((B->D)->B)", "(B->D)", "(B&A)"])), Atom("D"), None)]
    drawn += [(axioms, goal, cap) for axioms, goal, cap, _ in _random_theories(random.Random(37), 200)]
    drawn += [(axioms, goal, None) for axioms, goal, _ in _chain_theories(random.Random(41), 200)]
    seen = {"entry": 0, "derived": 0, "proved": 0, "refused": 0}
    for (axioms, goal, cap), steps in itertools.product(drawn, (3, 4)):
        _, _, search = _search(axioms, goal, cap, steps)
        case = ([render(a) for a in axioms], render(goal), cap, steps)
        shaped = search._shaped(goal)
        least = _least_axioms(axioms, goal, steps, search.truth)
        if least is None:
            seen["refused"] += 1
            assert shaped == [], case
            continue
        astar = list(search._astar(goal, least))
        if search._entry_of(goal) is not None:
            seen["entry"] += 1
            assert astar[:1] == shaped == [(frozenset({goal}), {})], case
        else:
            seen["derived"] += 1
            seen["proved"] += bool(shaped)
            assert astar == shaped, case
    assert seen == {"entry": 164, "derived": 228, "proved": 100, "refused": 410}


def test_chain_base_leaves_out_what_cannot_fire():
    import resbound.theory as theory_mod

    # the antecedent (K->(E->!M)) is false when every atom of the chain is
    # true, the only valuation the axioms allow, so this instance is an entry
    # that never fires: a premise (x->t) needs an entailed x
    useless = parse("((K->(E->!M))->((K->E)->(K->!M)))")
    theory = chain_theory(100000, "KEMV", 7)
    axioms = tuple(a.statement for a in theory.axioms.admitted)
    goals = sorted(theory_mod._closure(axioms, Atom("K")), key=render)
    pool, cap, search = _search(axioms, Atom("K"), None, 7)
    full = _full_product_base(axioms, pool, cap)
    assert useless in full
    # the search gives each goal the least derivation over every instance
    least = _least_derivations(full, 7)
    assert [_least(next(search.derivations(g), None)) for g in goals] == [
        least.get(g) for g in goals]
    proofs = [prove(theory, g) for g in goals]
    assert sum(p is not None for p in proofs) == 7  # the axioms and E, M, V

import pytest

from resbound import (
    And,
    Atom,
    ImplementProcedure,
    Location,
    Not,
    ObserverScript,
    ObserverState,
    VerifyStatement,
    knowledge_statement,
    locate_in_lattice,
    min_cost,
    parse,
    render,
    run,
    step,
    vec,
)
from resbound.errors import EmptyKnowledge
from resbound.observer import Trace
from resbound.resources import ResourceVector


def script(*actions, name="s", cap=None):
    return ObserverScript(name, tuple(actions), cap)


def test_zero_cost_verify_grows_knowledge_without_spend(std_world):
    from resbound import CostParameters, DetermineTruth, Expression, Procedure
    from resbound.world import truth_output

    free = Procedure(
        "free_A",
        frozenset(),
        Expression("", std_world.alphabet),
        vec(0, 0, 0, 0),
        DetermineTruth("A"),
        truth_output("A"),
    )
    world = std_world.extended(procedures=[free], true_purposes={"free_A": DetermineTruth("A")})
    state = ObserverState.fresh(world)
    record = step(state, VerifyStatement(Atom("A")), world)
    assert record.outcome == "True"
    assert state.spent.is_zero()
    assert len(state.knowledge) == 1


def test_equipment_sharing_discount(std_world):
    state = ObserverState.fresh(std_world)
    step(state, VerifyStatement(Atom("A")), std_world)  # builds the scope
    before = state.spent
    step(state, VerifyStatement(Atom("B")), std_world)
    delta2 = state.spent.sub_saturating(before)
    standalone = min_cost(Atom("B"), std_world).frontier
    assert all(delta2.leq(f) and delta2 != f for f in standalone if f.leq(delta2.join(f)))
    # strictly below every standalone minimum it is comparable to
    assert any(delta2.leq(f) and delta2 != f for f in standalone)


def test_capped_budget_refusal_freezes_path(std_world):
    state = ObserverState.fresh(std_world, budget_cap=vec(1, 1, 1, 1))
    record = step(state, VerifyStatement(Atom("A")), std_world)
    assert record.outcome == "refused"
    assert state.spent.is_zero()
    assert not state.knowledge
    assert state.t == 1


def test_implement_action(std_world):
    state = ObserverState.fresh(std_world)
    record = step(
        state,
        ImplementProcedure("pD", Location(("0", "0")), spacetime_id="pst"),
        std_world,
    )
    assert record.outcome.startswith("output:")
    assert len(state.knowledge) == 0
    assert not state.spent.is_zero()


def test_implement_defaults_to_declared_spacetime(std_world):
    state = ObserverState.fresh(std_world)
    record = step(state, ImplementProcedure("pD", Location(("0", "0"))), std_world)
    assert record.outcome.startswith("output:")


def test_knowledge_statement_single_and_negated(std_world):
    state = ObserverState.fresh(std_world)
    step(state, VerifyStatement(Atom("A")), std_world)
    assert knowledge_statement(state) == Atom("A")
    step(state, VerifyStatement(Atom("C")), std_world)  # C is false
    assert knowledge_statement(state) == And(Atom("A"), Not(Atom("C")))


def test_knowledge_statement_right_nested(std_world):
    state = ObserverState.fresh(std_world)
    for name in ("A", "B", "D"):
        step(state, VerifyStatement(Atom(name)), std_world)
    assert render(knowledge_statement(state)) == "(A&(B&D))"


def test_knowledge_statement_empty(std_world):
    with pytest.raises(EmptyKnowledge):
        knowledge_statement(ObserverState.fresh(std_world))


def test_run_empty_script(std_world):
    trace, state = run(script(name="empty"), std_world)
    assert isinstance(trace, Trace)
    assert trace.records == ()
    assert state.spent.is_zero()


def test_run_accounting_identity(std_world):
    s = script(
        VerifyStatement(Atom("A")),
        VerifyStatement(parse("(B&D)")),
        ImplementProcedure("pD", Location(("0", "0")), spacetime_id="pst"),
        VerifyStatement(Atom("C")),
        name="main",
    )
    trace, state = run(s, std_world)
    total = ResourceVector.zeros(4)
    previous = ResourceVector.zeros(4)
    for record in trace.records:
        assert previous.leq(record.cumulative)  # path monotone
        total = total.add(record.delta)
        previous = record.cumulative
    assert total == state.spent  # increments sum exactly to p(t)
    assert render(knowledge_statement(state)) == "(A&((B&D)&!C))"


def test_run_permuted_script_same_final_spend(std_world):
    # with the procedure choice pinned, pA and pB share the scope and either
    # order costs the same in total while the trajectories differ
    a = VerifyStatement(Atom("A"), strategy_hint=(("A", "pA"),))
    b = VerifyStatement(Atom("B"), strategy_hint=(("B", "pB"),))
    t1, s1 = run(script(a, b, name="fwd"), std_world)
    t2, s2 = run(script(b, a, name="rev"), std_world)
    assert s1.spent == s2.spent == vec(5, 4, 2, 2)
    assert {e.statement for e in s1.knowledge} == {e.statement for e in s2.knowledge}
    assert [r.delta for r in t1.records] != [r.delta for r in t2.records]


def test_strategy_hint_overrides_choice(std_world):
    hinted = script(
        VerifyStatement(Atom("B"), strategy_hint=(("B", "pB2"),)), name="hint"
    )
    trace, state = run(hinted, std_world)
    assert state.spent == vec(2, 5, 2, 2)  # the pB2 route, not the cheaper-sorted one


def test_hint_builds_only_the_equipment_its_statement_uses(std_world):
    # the pA entry of the hint is not run for D, so the scope stays unbuilt
    # and verifying A afterwards pays for it
    hinted_d = VerifyStatement(Atom("D"), strategy_hint=(("A", "pA"), ("D", "pD")))
    trace, state = run(script(hinted_d, VerifyStatement(Atom("A"))), std_world)
    assert [r.delta for r in trace.records] == [vec(1, 1, 1, 1), vec(3, 2, 1, 1)]
    assert state.ledger.built == {"scope"}


def test_knowledge_drift_check_reads_the_ledger(std_world):
    state = ObserverState.fresh(std_world)
    step(state, VerifyStatement(Atom("A")), std_world)
    state.ledger.log.append(("tampered", vec(1, 0, 0, 0)))
    with pytest.raises(AssertionError):
        knowledge_statement(state)


def test_locate_in_lattice(std_world):
    grid = (vec(1, 1, 1, 1), vec(4, 4, 4, 4), vec(1, 4, 4, 4), vec(9, 9, 9, 9))
    state = ObserverState.fresh(std_world)
    assert locate_in_lattice(state, grid) == (vec(1, 1, 1, 1),)
    step(state, VerifyStatement(Atom("A")), std_world)  # spends [3,2,1,1]
    located = locate_in_lattice(state, grid)
    assert located == (vec(4, 4, 4, 4),)
    from resbound import in_domain

    for point in located:
        assert in_domain(knowledge_statement(state), point, std_world)


def test_locate_in_lattice_escaped_grid(std_world):
    state = ObserverState.fresh(std_world)
    step(state, VerifyStatement(Atom("A")), std_world)
    assert locate_in_lattice(state, (vec(1, 1, 1, 1),)) == ()


def test_spend_vs_frontier_bound(std_world):
    # total spend is within the sum of standalone minima (conjunction bound)
    s = script(VerifyStatement(Atom("A")), VerifyStatement(Atom("B")), name="pair")
    _, state = run(s, std_world)
    fa = min_cost(Atom("A"), std_world).frontier
    fb = min_cost(Atom("B"), std_world).frontier
    assert any(state.spent.leq(a.add(b)) for a in fa for b in fb)

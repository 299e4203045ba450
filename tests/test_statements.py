import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resbound import (
    And,
    Atom,
    DetermineTruth,
    Equipment,
    Expression,
    Implies,
    Not,
    Or,
    Procedure,
    SpendLedger,
    VerificationStrategy,
    VerifyOutcome,
    World,
    in_domain,
    min_cost,
    non_closure_witness,
    parse,
    render,
    strategy_cost,
    vec,
    verify,
)
from resbound import statements
from resbound.errors import NoStrategy, StatementSyntaxError, UncoveredAtom
from resbound.statements import (
    atoms_of,
    enumerate_statements,
    evaluate,
    rendered_length,
    subformulas,
)
from resbound.world import truth_output
from resbound.expressions import Alphabet


# --- grammar -----------------------------------------------------------------

@pytest.mark.parametrize(
    "text,expected",
    [
        ("A", Atom("A")),
        ("!A", Not(Atom("A"))),
        ("(A&B)", And(Atom("A"), Atom("B"))),
        ("(A | B)", Or(Atom("A"), Atom("B"))),
        ("( A -> B )", Implies(Atom("A"), Atom("B"))),
        ("!(A&!B)", Not(And(Atom("A"), Not(Atom("B"))))),
        ("Thm_r0_01", Atom("Thm_r0_01")),
    ],
)
def test_parse(text, expected):
    assert parse(text) == expected


@pytest.mark.parametrize("text", ["", "A&B", "(A&)", "(A&B", "A B", "(A ^ B)", "()"])
def test_parse_rejects(text):
    with pytest.raises(StatementSyntaxError):
        parse(text)


def statements_over(atom_names, max_depth=3):
    atoms = st.sampled_from([Atom(a) for a in atom_names])
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda p: And(*p)),
            st.tuples(sub, sub).map(lambda p: Or(*p)),
            st.tuples(sub, sub).map(lambda p: Implies(*p)),
        ),
        max_leaves=4,
    )


@given(statements_over("ABCD"))
def test_render_parse_roundtrip(s):
    assert parse(render(s)) == s


def test_equal_statements_are_one_node():
    assert parse("(A->!B)") is Implies(Atom("A"), Not(Atom("B")))
    assert parse("(A&B)") is not parse("(A|B)")


def test_statement_hash_is_hash_of_tag_and_parts():
    a, b = Atom("A"), Atom("B")
    assert hash(a) == hash((0, "A"))
    assert hash(Not(a)) == hash((1, a))
    assert hash(And(a, b)) == hash((2, a, b))
    assert hash(Or(a, b)) == hash((3, a, b))
    assert hash(Implies(a, b)) == hash((4, a, b))


@pytest.mark.parametrize(
    "node, field",
    [(Atom("A"), "claim_id"), (Not(Atom("A")), "inner"), (Implies(Atom("A"), Atom("B")), "left")],
)
def test_statements_are_immutable(node, field):
    before = getattr(node, field)
    with pytest.raises(AttributeError):
        setattr(node, field, Atom("C"))
    with pytest.raises(AttributeError):
        delattr(node, field)
    assert getattr(node, field) is before


def test_enumerate_statements_lengths():
    got = enumerate_statements(["A", "B"], 6)
    assert Atom("A") in got
    assert Not(Atom("A")) in got
    assert And(Atom("A"), Atom("B")) in got
    assert Implies(Atom("A"), Atom("B")) in got
    assert all(rendered_length(s) <= 6 for s in got)
    lengths = [rendered_length(s) for s in got]
    assert lengths == sorted(lengths)


def test_enumerate_statements_exhaustive_small():
    got = set(enumerate_statements(["A"], 3))
    assert got == {Atom("A"), Not(Atom("A")), Not(Not(Atom("A")))}


# --- strategy cost -------------------------------------------------------------

def test_strategy_cost_single_atom(tiny_world):
    strat = VerificationStrategy.of({"X": "pX"})
    assert strategy_cost(Atom("X"), strat, tiny_world) == vec(3, 3)


def test_negation_costs_the_same(tiny_world):
    strat = VerificationStrategy.of({"X": "pX"})
    assert strategy_cost(Not(Atom("X")), strat, tiny_world) == vec(3, 3)


def test_conjunction_shares_equipment(tiny_world):
    strat = VerificationStrategy.of({"X": "pX", "Y": "pY"})
    cost = strategy_cost(And(Atom("X"), Atom("Y")), strat, tiny_world)
    assert cost == vec(5, 5)
    # max(r(S), r(T)) <= r(S & T) <= r(S) + r(T)
    assert vec(3, 3).leq(cost) and cost.leq(vec(6, 6))


def test_uncovered_atom(tiny_world):
    with pytest.raises(UncoveredAtom):
        strategy_cost(And(Atom("X"), Atom("Y")), VerificationStrategy.of({"X": "pX"}), tiny_world)


def test_prebuilt_equipment_discount(tiny_world):
    strat = VerificationStrategy.of({"X": "pX"}, prebuilt=["e0"])
    assert strategy_cost(Atom("X"), strat, tiny_world) == vec(2, 2)


# --- min_cost -------------------------------------------------------------------

def test_min_cost_singleton(tiny_world):
    result = min_cost(Atom("X"), tiny_world)
    assert result.frontier == (vec(3, 3),)
    (witnesses,) = [ws for _, ws in result.witnesses]
    assert witnesses[0].procedure_for("X") == "pX"


def two_procedure_world():
    alpha = Alphabet.from_string("W01()!&|->_")
    procs = {
        "pW1": Procedure(
            "pW1", frozenset(), Expression("", alpha), vec(1, 3), DetermineTruth("W"), truth_output("W")
        ),
        "pW2": Procedure(
            "pW2", frozenset(), Expression("", alpha), vec(3, 1), DetermineTruth("W"), truth_output("W")
        ),
    }
    return World(
        0,
        alpha,
        {},
        procs,
        {"W": True},
        {"pW1": DetermineTruth("W"), "pW2": DetermineTruth("W")},
    )


def test_min_cost_frontier_two_points():
    world = two_procedure_world()
    result = min_cost(Atom("W"), world)
    assert set(result.frontier) == {vec(1, 3), vec(3, 1)}


def test_min_cost_dedups_conjunction(std_world):
    s = Atom("A")
    assert min_cost(And(s, s), std_world).frontier == min_cost(s, std_world).frontier


def test_min_cost_no_strategy(std_world):
    with pytest.raises(NoStrategy):
        min_cost(Atom("Zed"), std_world)


def test_min_cost_std_world_b(std_world):
    result = min_cost(Atom("B"), std_world)
    assert set(result.frontier) == {vec(4, 3, 1, 1), vec(2, 5, 2, 2)}


# --- in_domain -------------------------------------------------------------------

def test_in_domain_frontier_fit():
    world = two_procedure_world()
    assert in_domain(Atom("W"), vec(2, 3), world)
    assert not in_domain(Atom("W"), vec(2, 2), world)


def test_in_domain_zero_cost_atoms():
    alpha = Alphabet.from_string("E01()!&|->_")
    procs = {
        "pE": Procedure(
            "pE", frozenset(), Expression("", alpha), vec(0, 0), DetermineTruth("E"), truth_output("E")
        )
    }
    world = World(0, alpha, {}, procs, {"E": True}, {"pE": DetermineTruth("E")})
    assert in_domain(And(Atom("E"), Not(Atom("E"))), vec(0, 0), world)


def test_in_domain_no_strategy_is_false(std_world):
    assert not in_domain(Atom("Zed"), vec(9, 9, 9, 9), std_world)


@given(statements_over("ABCD"), st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_in_domain_monotone(s, bump_i, amount):
    world = test_in_domain_monotone.world
    r = vec(4, 4, 2, 2)
    bigger_comps = list(r.components)
    bigger_comps[bump_i % 4] += amount
    bigger = vec(*bigger_comps)
    if in_domain(s, r, world):
        assert in_domain(s, bigger, world)


def test_frontier_minimality_probe(std_world):
    for s in [Atom("A"), Atom("B"), And(Atom("A"), Atom("B")), Or(Atom("B"), Atom("C"))]:
        frontier = min_cost(s, std_world).frontier
        for f in frontier:
            assert in_domain(s, f, std_world)
            for i, c in enumerate(f.components):
                if c == 0:
                    continue
                probe = list(f.components)
                probe[i] = c / 2
                assert not in_domain(s, vec(*probe), std_world)


# --- verify ---------------------------------------------------------------------

def test_verify_true_atom_debits(std_world):
    ledger = SpendLedger(std_world)
    assert verify(Atom("A"), vec(9, 9, 9, 9), std_world, ledger) is VerifyOutcome.TRUE
    assert ledger.spent == vec(3, 2, 1, 1)


def test_verify_insufficient_leaves_ledger(std_world):
    ledger = SpendLedger(std_world)
    out = verify(Atom("A"), vec(0, 0, 0, 0), std_world, ledger)
    assert out is VerifyOutcome.INSUFFICIENT
    assert ledger.spent.is_zero() and not ledger.built


def test_verify_conjunction_with_false_atom(std_world):
    ledger = SpendLedger(std_world)
    out = verify(And(Atom("A"), Atom("C")), vec(9, 9, 9, 9), std_world, ledger)
    assert out is VerifyOutcome.FALSE


def test_verify_picks_cheapest_within_budget(std_world):
    # budget excludes the pB route ([4,3,1,1]) but admits pB2 ([2,5,2,2])
    ledger = SpendLedger(std_world)
    out = verify(Atom("B"), vec(3, 5, 2, 2), std_world, ledger)
    assert out is VerifyOutcome.TRUE
    assert ledger.spent == vec(2, 5, 2, 2)


def test_verify_uses_ledger_context(std_world):
    ledger = SpendLedger(std_world)
    verify(Atom("A"), None, std_world, ledger)          # builds the scope
    before = ledger.spent
    verify(Atom("B"), None, std_world, ledger)
    delta = ledger.spent.sub_saturating(before)
    assert delta == vec(2, 2, 1, 1)  # pB implementation only, scope reused


def test_verify_no_strategy_is_insufficient(std_world):
    ledger = SpendLedger(std_world)
    assert verify(Atom("Zed"), None, std_world, ledger) is VerifyOutcome.INSUFFICIENT


# --- non-closure ------------------------------------------------------------------

def test_non_closure_witness_found(disjoint_world):
    witness = non_closure_witness(vec(3, 3), disjoint_world)
    assert witness == (Atom("S"), Atom("T"))
    s, t = witness
    assert in_domain(s, vec(3, 3), disjoint_world)
    assert in_domain(t, vec(3, 3), disjoint_world)
    assert not in_domain(And(s, t), vec(3, 3), disjoint_world)


def test_non_closure_none_for_single_zero_cost_atom():
    alpha = Alphabet.from_string("E01()!&|->_")
    procs = {
        "pE": Procedure(
            "pE", frozenset(), Expression("", alpha), vec(0, 0), DetermineTruth("E"), truth_output("E")
        )
    }
    world = World(0, alpha, {}, procs, {"E": True}, {"pE": DetermineTruth("E")})
    assert non_closure_witness(vec(1, 1), world) is None


def test_non_closure_none_when_sharing_collapses(tiny_world):
    # atoms cost [3,3] each; the shared instrument makes the pair cost [5,5]
    assert non_closure_witness(vec(5, 5), tiny_world) is None


# --- algebraic properties over the fixture world -----------------------------------

@given(statements_over("ABCD"))
@settings(max_examples=80, deadline=None)
def test_negation_frontier_equality(s):
    world = test_negation_frontier_equality.world
    assert min_cost(Not(s), world).frontier == min_cost(s, world).frontier


@given(statements_over("ABCD"), statements_over("ABCD"))
@settings(max_examples=60, deadline=None)
def test_conjunction_disjunction_bounds(s, t):
    world = test_conjunction_disjunction_bounds.world
    fs = min_cost(s, world).frontier
    ft = min_cost(t, world).frontier
    for combined in (And(s, t), Or(s, t)):
        fc = min_cost(combined, world).frontier
        for c in fc:
            assert any(a.join(b).leq(c) for a in fs for b in ft)
        for a in fs:
            for b in ft:
                assert any(c.leq(a.add(b)) for c in fc)


@given(statements_over("ABCD"))
@settings(max_examples=40, deadline=None)
def test_verify_matches_ground_truth_when_affordable(s):
    world = test_verify_matches_ground_truth_when_affordable.world
    ledger = SpendLedger(world)
    out = verify(s, None, world, ledger)
    expected = evaluate(s, world.ground_truth)
    assert out is (VerifyOutcome.TRUE if expected else VerifyOutcome.FALSE)


@given(
    statements_over("ABCD"),
    st.sets(st.sampled_from(["scope", "bench"])),
    st.sampled_from([None, vec(3, 3, 2, 2), vec(4, 5, 2, 2), vec(9, 9, 9, 9)]),
)
@settings(max_examples=80, deadline=None)
def test_verify_charges_least_admissible_cost_and_builds_what_it_used(s, prebuilt, budget):
    world = test_verify_charges_least_admissible_cost_and_builds_what_it_used.world
    ledger = SpendLedger(world, built=set(prebuilt))
    needed = sorted(atoms_of(s))
    admissible = []
    for combo in itertools.product(*(world.verifiers_for(a) for a in needed)):
        strategy = VerificationStrategy.of(dict(zip(needed, combo)), prebuilt)
        cost = strategy_cost(s, strategy, world)
        if budget is None or cost.leq(budget):
            admissible.append(((cost.sort_key(), strategy.assignments), cost, strategy))
    out = verify(s, budget, world, ledger)
    if not admissible:
        assert out is VerifyOutcome.INSUFFICIENT
        assert ledger.spent.is_zero() and ledger.built == set(prebuilt)
        return
    _, cost, chosen = min(admissible, key=lambda item: item[0])
    assert out is not VerifyOutcome.INSUFFICIENT
    assert ledger.spent == cost
    used = set().union(*(world.procedure(p).equipment_used for _, p in chosen.assignments))
    assert ledger.built == set(prebuilt) | used


@pytest.fixture(autouse=True)
def _attach_world(std_world):
    for fn in (
        test_in_domain_monotone,
        test_negation_frontier_equality,
        test_conjunction_disjunction_bounds,
        test_verify_matches_ground_truth_when_affordable,
        test_verify_charges_least_admissible_cost_and_builds_what_it_used,
    ):
        fn.world = std_world


def test_subformulas_and_atoms():
    s = parse("((A&B)->!C)")
    assert atoms_of(s) == frozenset({"A", "B", "C"})
    assert parse("(A&B)") in subformulas(s)
    assert parse("!C") in subformulas(s)


# --- the frontier DP against brute force ------------------------------------------

def _random_costing_world(rng):
    """1-5 atoms, 1-3 deciders each, 0-4 shared equipment items and costs
    with denominators 1-4; deciders draw from three costs, so ties occur.
    Each decider that runs appends its id to the returned list."""
    n = 2 * rng.randint(0, 1) + 2
    alpha = Alphabet.from_string("ABCDE()!&|->_01")

    def cost():
        return vec(*(Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(n)))

    equipment = {f"e{i}": Equipment(f"e{i}", cost()) for i in range(rng.randint(0, 4))}
    palette = [cost() for _ in range(3)]
    procs, purposes, truth, ran = {}, {}, {}, []

    def recorded(pid, atom):
        def fn(world, location):
            ran.append(pid)
            return "1" if world.ground_truth[atom] else "0"

        return fn

    for atom in "ABCDE"[: rng.randint(1, 5)]:
        truth[atom] = rng.random() < 0.5
        for j in range(rng.randint(1, 3)):
            pid = f"p{atom}{j}"
            uses = frozenset(e for e in equipment if rng.random() < 0.4)
            procs[pid] = Procedure(
                pid, uses, Expression("", alpha), rng.choice(palette), DetermineTruth(atom),
                recorded(pid, atom),
            )
            purposes[pid] = DetermineTruth(atom)
    return World(n // 2 - 1, alpha, equipment, procs, truth, purposes), ran


def _random_statement(rng, atoms):
    if len(atoms) == 1 or rng.random() < 0.2:
        s = Atom(rng.choice(atoms))
    else:
        cut = rng.randint(1, len(atoms) - 1)
        ctor = rng.choice([And, Or, Implies])
        s = ctor(_random_statement(rng, atoms[:cut]), _random_statement(rng, atoms[cut:]))
    return Not(s) if rng.random() < 0.3 else s


def _brute_force_costs(s, world, prebuilt):
    """Every covering strategy in product order, with its cost."""
    needed = sorted(atoms_of(s))
    combos = itertools.product(*(world.verifiers_for(a) for a in needed))
    strategies = [VerificationStrategy(tuple(zip(needed, c)), prebuilt) for c in combos]
    return [(st_, strategy_cost(s, st_, world)) for st_ in strategies]


@pytest.mark.parametrize("seed", range(150))
def test_frontier_dp_matches_brute_force(seed):
    rng = random.Random(f"frontier:{seed}")
    world, ran = _random_costing_world(rng)
    atoms = world.atoms()
    rng.shuffle(atoms)
    s = _random_statement(rng, atoms[: rng.randint(1, len(atoms))])

    costs = _brute_force_costs(s, world, frozenset())
    values = [c for _, c in costs]
    frontier = sorted(
        {c for c in values if not any(o.dominates(c) for o in values)},
        key=lambda v: v.sort_key(),
    )
    witnesses = tuple((p, tuple(st_ for st_, c in costs if c == p)) for p in frontier)
    result = min_cost(s, world)
    assert result.frontier == tuple(frontier)
    assert result.witnesses == witnesses

    n = 2 * world.dimension + 2
    for _ in range(4):
        prebuilt = frozenset(e for e in world.equipment if rng.random() < 0.5)
        spent = vec(*(Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(n)))
        budget, cap = (
            rng.choice([None, vec(*(Fraction(rng.randint(0, 12), 2) for _ in range(n)))])
            for _ in range(2)
        )
        ledger = SpendLedger(world, cap=cap, spent=spent, built=set(prebuilt))
        admissible = [
            ((cost.sort_key(), st_.assignments), cost, st_)
            for st_, cost in _brute_force_costs(s, world, prebuilt)
            if (budget is None or cost.leq(budget)) and ledger.can_spend(cost)
        ]
        ran.clear()
        out = verify(s, budget, world, ledger)
        if not admissible:
            assert out is VerifyOutcome.INSUFFICIENT
            assert ledger.spent == spent and ledger.built == prebuilt and not ran
            continue
        _, cost, chosen = min(admissible, key=lambda item: item[0])
        assert sorted(ran) == sorted(p for _, p in chosen.assignments)
        truth = evaluate(s, world.ground_truth)
        assert out is (VerifyOutcome.TRUE if truth else VerifyOutcome.FALSE)
        assert ledger.spent == spent.add(cost)
        used = set().union(*(world.procedure(p).equipment_used for _, p in chosen.assignments))
        assert ledger.built == prebuilt | used


def test_min_cost_and_verify_scale_past_enumeration(monkeypatch):
    """20 atoms in five groups of four, each atom decided either alone or
    more cheaply on its group's equipment: 2**20 strategies, all with
    different costs.  With a group's equipment built its cheaper decider
    strictly dominates, so the frontier is among the 32 choices of which
    groups to equip, filtered here by pairwise dominance."""
    alpha = Alphabet.from_string("X0123456789()!&|->_")
    build = [3, 1, 4, 2, 5]  # time to build each group's equipment
    equipment = {f"e{g}": Equipment(f"e{g}", vec(build[g], 0)) for g in range(5)}
    procs, purposes = {}, {}
    names = [f"X{i:02d}" for i in range(20)]
    for i, atom in enumerate(names):
        for pid, uses, energy in ((f"alone{i}", (), 3 * 2**i), (f"kit{i}", (f"e{i // 4}",), 2**i)):
            procs[pid] = Procedure(
                pid, frozenset(uses), Expression("", alpha), vec(0, energy),
                DetermineTruth(atom), truth_output(atom),
            )
            purposes[pid] = DetermineTruth(atom)
    world = World(0, alpha, equipment, procs, dict.fromkeys(names, True), purposes)
    s = Atom(names[0])
    for name in names[1:]:
        s = And(s, Atom(name))

    calls = []
    original = statements.strategy_cost
    monkeypatch.setattr(statements, "strategy_cost", lambda *a: calls.append(a) or original(*a))
    result = min_cost(s, world)

    def group_choice(equipped):
        time = sum(build[g] for g in equipped)
        energy = sum((1 if i // 4 in equipped else 3) * 2**i for i in range(20))
        picks = tuple(
            (atom, f"kit{i}" if i // 4 in equipped else f"alone{i}") for i, atom in enumerate(names)
        )
        return vec(time, energy), VerificationStrategy(picks)

    choices = [
        group_choice({g for g in range(5) if mask >> g & 1}) for mask in range(32)
    ]
    expected = sorted(
        (c for c in choices if not any(o[0].dominates(c[0]) for o in choices)),
        key=lambda c: c[0].sort_key(),
    )
    assert 1 < len(expected) < 32
    assert result.witnesses == tuple((cost, (st_,)) for cost, st_ in expected)

    ledger = SpendLedger(world, built={"e0"})
    assert verify(s, None, world, ledger) is VerifyOutcome.TRUE
    assert ledger.spent == vec(0, sum((1 if i < 4 else 3) * 2**i for i in range(20)))
    assert verify(Atom("X00"), None, world, ledger, {"X00": "kit0"}) is VerifyOutcome.TRUE
    assert len(calls) == 1

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from resbound import (
    Alphabet,
    Atom,
    AxiomCandidate,
    CostParameters,
    DetermineTruth,
    Expression,
    Procedure,
    Quadrant,
    TheoryGrid,
    classify_pair,
    extension_edges,
    World,
    build_theory,
    first_appearance_theorem,
    is_theorem,
    vec,
)
from resbound.lattice import check_extension_monotonicity
from resbound.statements import parse, render
from resbound.theory import theorems_up_to
from resbound.world import truth_output


def test_classify_pair_examples():
    assert classify_pair(vec(1, 1), vec(2, 2)) is Quadrant.EXTENSION
    assert classify_pair(vec(2, 2), vec(1, 1)) is Quadrant.RESTRICTION
    assert classify_pair(vec(1, 3), vec(3, 1)) is Quadrant.UNRELATED
    assert classify_pair(vec(1, 1), vec(1, 1)) is Quadrant.EQUAL


def test_classify_pair_antisymmetric():
    pts = [vec(1, 1), vec(1, 2), vec(2, 1), vec(2, 2), vec(3, 1)]
    for a in pts:
        for b in pts:
            fwd = classify_pair(a, b)
            rev = classify_pair(b, a)
            if fwd is Quadrant.EXTENSION:
                assert rev is Quadrant.RESTRICTION
            if fwd is Quadrant.UNRELATED:
                assert rev is Quadrant.UNRELATED


def grid_over(world, cost, points, axioms=("A", "(A->B)")):
    candidates = tuple(AxiomCandidate(parse(t)) for t in axioms)
    return TheoryGrid.build(tuple(points), candidates, world, cost)


@pytest.fixture
def flat_cost():
    return CostParameters.uniform(4, delta=1, delta_e=0)


def test_extension_edges_chain(tiny_world):
    cost = CostParameters.uniform(2, delta=1, delta_e=0)
    grid = TheoryGrid.build(
        (vec(1, 1), vec(2, 2), vec(3, 3)), (), tiny_world, cost
    )
    assert extension_edges(grid) == [
        (vec(1, 1), vec(2, 2)),
        (vec(2, 2), vec(3, 3)),
    ]


def test_extension_edges_antichain(tiny_world):
    cost = CostParameters.uniform(2, delta=1, delta_e=0)
    grid = TheoryGrid.build((vec(1, 3), vec(3, 1)), (), tiny_world, cost)
    assert extension_edges(grid) == []


def test_extension_edges_square_reduces_to_diamond(tiny_world):
    cost = CostParameters.uniform(2, delta=1, delta_e=0)
    pts = (vec(1, 1), vec(1, 2), vec(2, 1), vec(2, 2))
    grid = TheoryGrid.build(pts, (), tiny_world, cost)
    assert extension_edges(grid) == [
        (vec(1, 1), vec(1, 2)),
        (vec(1, 1), vec(2, 1)),
        (vec(1, 2), vec(2, 2)),
        (vec(2, 1), vec(2, 2)),
    ]


def test_first_appearance_expressibility_before_theoremhood(std_world, flat_cost):
    # [5,...]: B is writable (1 <= 5) but (A->B) is neither writable nor provable
    chain = (vec(5, 5, 5, 5), vec(30, 30, 30, 30), vec(60, 60, 60, 60))
    grid = grid_over(std_world, flat_cost, chain)
    fa = first_appearance_theorem(Atom("B"), grid)
    assert fa.expressible_points == (vec(5, 5, 5, 5),)
    assert fa.theorem_points == (vec(30, 30, 30, 30),)


def test_first_appearance_zero_cost_axiom_coincides(std_world):
    free = CostParameters.uniform(4, delta=0, delta_e=0)
    from resbound import DetermineTruth, Expression, Procedure
    from resbound.world import truth_output

    direct = Procedure(
        "direct_A",
        frozenset(),
        Expression("", std_world.alphabet),
        vec(0, 0, 0, 0),
        DetermineTruth("A"),
        truth_output("A"),
    )
    world = std_world.extended(procedures=[direct], true_purposes={"direct_A": DetermineTruth("A")})
    grid = TheoryGrid.build(
        (vec(0, 0, 0, 0), vec(1, 1, 1, 1)),
        (AxiomCandidate(Atom("A")),),
        world,
        free,
    )
    fa = first_appearance_theorem(Atom("A"), grid)
    assert fa.theorem_points == (vec(0, 0, 0, 0),)
    assert fa.expressible_points == (vec(0, 0, 0, 0),)


def test_first_appearance_never_provable(std_world, flat_cost):
    chain = (vec(30, 30, 30, 30), vec(60, 60, 60, 60))
    grid = grid_over(std_world, flat_cost, chain, axioms=("A",))  # no implication
    fa = first_appearance_theorem(Atom("B"), grid)
    assert fa.theorem_points == ()
    assert fa.expressible_points == (vec(30, 30, 30, 30),)


def test_first_appearance_antichain_and_domination(std_world, flat_cost):
    pts = (
        vec(20, 40, 40, 40),
        vec(40, 20, 40, 40),
        vec(60, 60, 60, 60),
        vec(5, 5, 5, 5),
    )
    grid = grid_over(std_world, flat_cost, pts)
    fa = first_appearance_theorem(Atom("B"), grid)
    for collection in (fa.theorem_points, fa.expressible_points):
        for x in collection:
            for y in collection:
                if x != y:
                    assert not x.leq(y) and not y.leq(x)
    # a theorem point must be able to write the statement down
    for p in fa.theorem_points:
        assert any(e.leq(p) for e in fa.expressible_points)


def test_theorem_monotonicity_along_edges(flat_cost):
    from tests_support_random_world import random_truth_world

    world = random_truth_world((True, True), names=("A", "B"))
    pts = (
        vec(5, 5, 5, 5),
        vec(30, 30, 30, 30),
        vec(30, 60, 30, 60),
        vec(60, 30, 60, 30),
        vec(90, 90, 90, 90),
    )
    grid = grid_over(world, flat_cost, pts)
    report = check_extension_monotonicity(grid, size_bound=6)
    assert report.ok
    assert report.edges_checked > 0
    small = set(theorems_up_to(grid.theory_at(vec(5, 5, 5, 5)), 6))
    big = set(theorems_up_to(grid.theory_at(vec(90, 90, 90, 90)), 6))
    assert small < big


def test_monotonicity_report_keeps_each_points_theorems(flat_cost):
    from tests_support_random_world import random_truth_world

    world = random_truth_world((True, True), names=("A", "B"))
    grid = grid_over(world, flat_cost, (vec(5, 5, 5, 5), vec(90, 90, 90, 90)))
    report = check_extension_monotonicity(grid, size_bound=5)
    assert set(report.theorems) == set(grid.points)
    for p in grid.points:
        assert report.theorems[p] == frozenset(theorems_up_to(grid.theory_at(p), 5))


def test_lattice_on_standard_builds_each_theorem_set_once(tmp_path, monkeypatch):
    import resbound
    from resbound import cli, lattice
    from resbound import theory as theory_mod

    budgets = []
    original = theory_mod.theorems_up_to

    def counted(theory, *args, **kwargs):
        budgets.append(theory.budget)
        return original(theory, *args, **kwargs)

    for module in (resbound, theory_mod, lattice, cli):
        if hasattr(module, "theorems_up_to"):
            monkeypatch.setattr(module, "theorems_up_to", counted)
    code = cli.main(
        ["--scenario", "fixtures/standard.scn", "--command", "lattice", "--out", str(tmp_path)]
    )
    assert code == 0
    # one theorem set per grid point, read by both the monotonicity check and
    # the theorem counts in lattice_points.csv
    assert len(budgets) == 9
    assert len(set(budgets)) == 9


def test_a_richer_grid_point_keeps_a_theorem_its_least_derivation_cannot_pay(tmp_path):
    import json

    from resbound.cli import main

    # at the lower point A cannot be decided, so only (B->D) and ((B->D)->B)
    # are admitted and D has its four-step proof for 38; the upper point
    # admits all four axioms, and D's least derivation there, through
    # (A&(A&B)), costs 48, over the budget, while the four-step one still fits
    def decider(atom, cost):
        return {"id": f"p{atom}", "equipment": [], "instructions": atom,
                "implementation_cost": cost, "output": {"atom": atom},
                "declared_purpose": {"kind": "determine_truth", "statement": atom}}

    deciders = [decider("A", ["1", "1", "100", "1"]), decider("B", ["1"] * 4),
                decider("D", ["1"] * 4)]
    scenario = {
        "schema_version": 1,
        "dimension": 1,
        "alphabet": "ABD()!&|->_01",
        "cost_model": {"delta": ["1"] * 4, "delta_e": "0"},
        "world": {
            "ground_truth": {"A": True, "B": True, "D": True},
            "equipment": [],
            "procedures": deciders,
            "true_purposes": {p["id"]: p["declared_purpose"] for p in deciders},
        },
        "axioms": [{"statement": s, "justification": "verified"}
                   for s in ("((A&(A&B))->D)", "(A&(A&B))", "(B->D)", "((B->D)->B)")],
        "budget": ["45", "45", "45", "45"],
        "grid": [["45", "45", "45", "45"], ["45", "45", "300", "45"]],
        "statements": ["D"],
        "prove": ["D"],
        "search": {"max_steps": 4, "size_bound": 3},
    }
    path = tmp_path / "two_points.scn"
    path.write_text(json.dumps(scenario))
    for command in ("lattice", "check"):
        out = tmp_path / command
        assert main(["--scenario", str(path), "--command", command, "--out", str(out)]) == 0
    report = json.loads((tmp_path / "check" / "check_report.json").read_text())
    assert report["lattice_monotonicity"] == {"edges_checked": 1, "violations": []}


def _four(low, high):
    return st.tuples(*[st.integers(low, high)] * 4)


_AXIOMS = ("((A&(A&B))->D)", "(A&(A&B))", "(B->D)", "((B->D)->B)", "A", "(A->B)", "(D|C)")
_GOALS = ("A", "B", "D", "(A&B)", "(B->D)", "(A->D)", "(D|A)", "((A->B)->D)")


@settings(max_examples=80, deadline=None)
@example([(1, 1, 100, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1)], (45, 45, 45, 45),
         (0, 0, 255, 0), list(_AXIOMS[:4]))
@given(st.lists(_four(0, 20), min_size=4, max_size=4), _four(10, 60), _four(0, 150),
       st.lists(st.sampled_from(_AXIOMS), unique=True))
def test_theorems_grow_along_extension_edges(costs, low, rise, axioms):
    # with delta_e 0 a richer budget admits every axiom, writes every formula
    # and affords every proof a poorer one does, whatever the deciders cost;
    # the example is the grid whose least derivation at the upper point did
    # not fit while a longer one did
    r, r_up = vec(*low), vec(*(a + b for a, b in zip(low, rise)))
    assume(classify_pair(r, r_up) is Quadrant.EXTENSION)
    alphabet = Alphabet.from_string("ABCD()!&|->_")
    procedures = {
        f"p{atom}": Procedure(f"p{atom}", frozenset(), Expression("", alphabet), vec(*cost),
                              DetermineTruth(atom), truth_output(atom))
        for atom, cost in zip("ABCD", costs)
    }
    world = World(1, alphabet, {}, procedures, {"A": True, "B": True, "C": False, "D": True},
                  {pid: p.declared_purpose for pid, p in procedures.items()})
    cost = CostParameters.uniform(4, delta=1, delta_e=0)
    candidates = tuple(AxiomCandidate(parse(a)) for a in axioms)
    lower, upper = (build_theory(p, candidates, world, cost) for p in (r, r_up))
    cap = lower.length_cap()
    for goal in map(parse, _GOALS):
        if (cap is None or len(render(goal)) <= cap) and is_theorem(lower, goal):
            assert is_theorem(upper, goal), (render(goal), r, r_up, axioms)

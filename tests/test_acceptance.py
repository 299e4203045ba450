"""Acceptance suite: one test per shipped criterion, each timed and printed.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and time bound is pinned here; nothing is deferred
to later calibration.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from resbound import (
    Alphabet,
    And,
    Atom,
    AxiomCandidate,
    CostParameters,
    DetermineTruth,
    Expression,
    GodelMap,
    Implies,
    Not,
    Or,
    Procedure,
    ResourceVector,
    World,
    build_theory,
    compare,
    in_language,
    max_length,
    max_length_component,
    min_cost,
    non_closure_witness,
    pareto_min,
    render,
    vec,
)
from resbound.cli import main as cli_main
from resbound.lattice import Quadrant, classify_pair
from resbound.observer import run as run_script
from resbound.reflection import provability_atom_id, reflection_chain, statement_code
from resbound.resources import OrderRelation
from resbound.scenario import load
from resbound.statements import enumerate_statements
from resbound.theory import is_theorem, soundness_check, theorems_up_to
from resbound.world import truth_output

from proof_oracle import oracle_provable
from tests_support_random_world import random_truth_world

FIXTURES = Path("fixtures")
SEED = 20260809


def report(number, name, elapsed, bound):
    print(f"ACCEPTANCE {number:>2} {name}: PASS ({elapsed:.2f}s < {bound}s)")


def rational(rng, lo=0, hi=12, den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_vec(rng, n=4, hi=12):
    return ResourceVector(tuple(rational(rng, hi=hi) for _ in range(n)))


def rand_statement(rng, atoms, depth=3):
    if depth == 0 or rng.random() < 0.35:
        return Atom(rng.choice(atoms))
    pick = rng.random()
    if pick < 0.25:
        return Not(rand_statement(rng, atoms, depth - 1))
    ctor = rng.choice([And, Or, Implies])
    return ctor(
        rand_statement(rng, atoms, depth - 1), rand_statement(rng, atoms, depth - 1)
    )


def test_criterion_01_partial_order_laws():
    bound = 5.0
    start = time.monotonic()
    rng = random.Random(SEED)
    violations = 0
    for i in range(10_000):
        a = rand_vec(rng)
        b = rand_vec(rng) if i % 7 else a  # force equal pairs through sometimes
        c = rand_vec(rng)
        if not a.leq(a):
            violations += 1
        if a.leq(b) and b.leq(a) and a != b:
            violations += 1
        if a.leq(b) and b.leq(c) and not a.leq(c):
            violations += 1
        if a.join(a.meet(b)) != a or a.meet(a.join(b)) != a:
            violations += 1
        if a.join(b) != b.join(a) or a.meet(b) != b.meet(a):
            violations += 1
        if a.join(a) != a or a.meet(a) != a:
            violations += 1
        if not (a.meet(b).leq(a) and a.leq(a.join(b))):
            violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < bound
    report(1, "partial-order and lattice laws", elapsed, bound)


def test_criterion_02_conjunction_disjunction_bounds():
    bound = 30.0
    start = time.monotonic()
    rng = random.Random(SEED + 1)
    worlds = [load(FIXTURES / "standard.scn").world, load(FIXTURES / "nonclosure.scn").world]
    violations = 0
    for i in range(1_000):
        world = worlds[i % 2]
        atoms = world.atoms()
        s = rand_statement(rng, atoms)
        t = rand_statement(rng, atoms)
        fs = min_cost(s, world).frontier
        ft = min_cost(t, world).frontier
        if min_cost(Not(s), world).frontier != fs:
            violations += 1
        for combined in (And(s, t), Or(s, t)):
            fc = min_cost(combined, world).frontier
            for c in fc:
                if not any(a.join(b).leq(c) for a in fs for b in ft):
                    violations += 1
            for a in fs:
                for b in ft:
                    if not any(c.leq(a.add(b)) for c in fc):
                        violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < bound
    report(2, "conjunction/disjunction cost bounds", elapsed, bound)


def test_criterion_03_non_closure_witness(tmp_path):
    bound = 1.0
    scn = load(FIXTURES / "nonclosure.scn")
    start = time.monotonic()
    first = non_closure_witness(scn.domain_budget, scn.world)
    second = non_closure_witness(scn.domain_budget, scn.world)
    elapsed = time.monotonic() - start
    assert first == second == (Atom("S"), Atom("T"))
    s, t = first
    from resbound import in_domain

    assert in_domain(s, scn.domain_budget, scn.world)
    assert in_domain(t, scn.domain_budget, scn.world)
    assert not in_domain(And(s, t), scn.domain_budget, scn.world)
    assert elapsed < bound
    report(3, "non-closure witness on nonclosure.scn", elapsed, bound)


def test_criterion_04_language_bound_monotonicity():
    bound = 5.0
    start = time.monotonic()
    rng = random.Random(SEED + 2)
    alpha = Alphabet.from_string("ab01")
    no_maintenance = CostParameters(
        delta=vec(1, 1, 1, 1),
        delta_e=Fraction(0),
        overhead_base=vec(0, 1, 0, 0),
        overhead_slope=vec("1/2", 0, 1, 0),
    )
    maintained = CostParameters.uniform(4, delta=1, delta_e=Fraction(1, 10))
    violations = 0
    for _ in range(1_000):
        r = rand_vec(rng, hi=20)
        bigger = r.add(rand_vec(rng, hi=10))
        n_small = max_length(r, no_maintenance)
        n_big = max_length(bigger, no_maintenance)
        if not (n_small is None or (n_big is not None and n_small <= n_big)):
            violations += 1
        # language containment on sampled expressions
        for length in (0, 1, rng.randint(0, 8)):
            x = Expression("a" * length, alpha)
            if in_language(x, r, no_maintenance) and not in_language(
                x, bigger, no_maintenance
            ):
                violations += 1
        # with maintenance energy, compare like durations
        for i in range(4):
            ns = max_length_component(i, r, maintained, duration=3)
            nb = max_length_component(i, bigger, maintained, duration=3)
            if ns is not None and (nb is not None and ns > nb):
                violations += 1
            if ns is None and nb is not None:
                violations += 1
    worked = CostParameters.uniform(4, delta=1, delta_e=1)
    assert max_length(vec(10, 4, 10, 10), worked) == 2
    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < bound
    report(4, "language bound N(r) monotonicity", elapsed, bound)


def test_criterion_05_theory_monotonicity():
    bound = 60.0
    start = time.monotonic()
    scn = load(FIXTURES / "standard.scn")
    grid = scn.theory_grid()
    theorem_sets = {
        p: set(theorems_up_to(grid.theory_at(p), 7, 4)) for p in grid.points
    }
    violations = 0
    pairs = 0
    for tail in grid.points:
        for head in grid.points:
            if classify_pair(tail, head) is not Quadrant.EXTENSION:
                continue
            pairs += 1
            if not theorem_sets[tail] <= theorem_sets[head]:
                violations += 1
    elapsed = time.monotonic() - start
    assert pairs >= 12
    assert violations == 0
    assert elapsed < bound
    report(5, "theory extension monotonicity on 3x3 grid", elapsed, bound)


def acceptance_oracle_world():
    alpha = Alphabet.from_string("ABCThmr()!&|->_0123456789")
    procs = {}
    purposes = {}
    for name in ("A", "B", "C"):
        pid = f"p{name}"
        procs[pid] = Procedure(
            pid,
            frozenset(),
            Expression("", alpha),
            vec(1, 1, 1, 1),
            DetermineTruth(name),
            truth_output(name),
        )
        purposes[pid] = DetermineTruth(name)
    return World(
        1, alpha, {}, procs, {"A": True, "B": True, "C": False}, purposes
    )


def test_criterion_06_oracle_equivalence():
    bound = 120.0
    start = time.monotonic()
    world = acceptance_oracle_world()
    cost = CostParameters.uniform(4, delta=1, delta_e=0)
    ample = vec(10**6, 10**6, 10**6, 10**6)
    axiom_sets = [
        ["A", "(A->B)"],
        ["(A&B)", "!C"],
        ["(C->B)", "(A|C)", "B"],
    ]
    from resbound.statements import parse

    checked = 0
    for texts in axiom_sets:
        candidates = tuple(AxiomCandidate(parse(t)) for t in texts)
        theory = build_theory(ample, candidates, world, cost, max_proof_steps=4)
        assert len(theory.axioms.admitted) == len(texts)
        cap = theory.length_cap()
        axiom_stmts = [a.statement for a in theory.axioms.admitted]
        for s in enumerate_statements(world.atoms(), 7):
            engine = is_theorem(theory, s, 4)
            oracle = oracle_provable(s, axiom_stmts, ample, cost, cap)
            assert engine == oracle, f"{texts}: {render(s)}"
            checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 600
    assert elapsed < bound
    report(6, f"oracle equivalence on {checked} statements", elapsed, bound)


def test_oracle_equivalence_at_binding_budgets():
    # criterion 6 at budgets of 20 to 70 per component, where N(r) and the
    # price of a proof bind: D's least derivation from ((A&(A&B))->D) and
    # (A&(A&B)) costs 48, its four-step one through (B->D) and ((B->D)->B) 38
    from resbound.statements import parse

    rng = random.Random(2)
    world = random_truth_world((True, True, True), names=("A", "B", "D"))
    texts = ["A", "B", "(A->B)", "(B->D)", "((B->D)->B)", "(A&(A&B))", "((A&(A&B))->D)",
             "(D->A)"]
    goals = enumerate_statements(world.atoms(), 3)
    checked = 0
    for _ in range(40):
        axioms = rng.sample(texts, rng.randint(3, 6))
        budget = vec(*(rng.randint(20, 70) for _ in range(4)))
        cost = CostParameters.uniform(4, delta=1, delta_e=rng.choice([0, Fraction(1, 10)]))
        theory = build_theory(budget, tuple(AxiomCandidate(parse(t)) for t in axioms), world,
                              cost, max_proof_steps=4)
        cap = theory.length_cap()
        axiom_stmts = [a.statement for a in theory.axioms.admitted]
        for s in goals:
            if cap is not None and len(render(s)) > cap:
                continue
            engine = is_theorem(theory, s, 4)
            assert engine == oracle_provable(s, axiom_stmts, budget, cost, cap), (
                axioms, budget.to_strings(), render(s))
            checked += 1
    assert checked >= 300


def test_criterion_07_reflection():
    bound = 10.0
    start = time.monotonic()
    scn = load(FIXTURES / "standard.scn")
    base = scn.base_theory()
    chain = reflection_chain(
        base, scn.reflection.target, scn.reflection.stages, scn.reflection.budget_step
    )
    assert len(chain.stages) == 3
    stage1 = chain.stages[0]
    assert stage1.step.target == Atom("B")
    assert stage1.ablation.reflection_axioms_alone_prove_target  # axioms ablated
    previous_val = None
    for stage in chain.stages:
        if previous_val is not None:
            assert stage.step.target == previous_val
        assert stage.target_proved_in_stage
        # the provability atom id is exactly the Gödel code of its target
        expected = provability_atom_id(
            stage.step.budget_label, statement_code(stage.step.target, base.world)
        )
        assert stage.step.thm_atom_id == expected
        previous_val = stage.step.val_axiom
    assert chain.non_terminating and chain.marker == "NonTerminating"
    # determinism: a second run reproduces the same stage structure
    again = reflection_chain(
        base, scn.reflection.target, scn.reflection.stages, scn.reflection.budget_step
    )
    assert [render(s.step.val_axiom) for s in again.stages] == [
        render(s.step.val_axiom) for s in chain.stages
    ]
    elapsed = time.monotonic() - start
    assert elapsed < bound
    report(7, "reflection chain with ablations", elapsed, bound)


def test_criterion_08_observer_accounting():
    bound = 5.0
    start = time.monotonic()
    scn = load(FIXTURES / "standard.scn")
    zero = ResourceVector.zeros(4)
    for script in scn.observers:
        trace, state = run_script(script, scn.world)
        previous = zero
        total = zero
        for record in trace.records:
            assert previous.leq(record.cumulative)
            previous = record.cumulative
            total = total.add(record.delta)
        assert total == state.spent
    sharing = next(s for s in scn.observers if s.name == "sharing")
    trace, state = run_script(sharing, scn.world)
    delta2 = trace.records[1].delta
    standalone = min_cost(Atom("B"), scn.world).frontier
    assert any(delta2.leq(f) and delta2 != f for f in standalone)
    assert all(not f.leq(delta2) or f == delta2 for f in standalone)
    elapsed = time.monotonic() - start
    assert elapsed < bound
    report(8, "observer path accounting", elapsed, bound)


def test_criterion_09_soundness():
    bound = 60.0
    start = time.monotonic()
    rng = random.Random(SEED + 3)
    cost = CostParameters.uniform(4, delta=1, delta_e=0)
    ample = vec(10**5, 10**5, 10**5, 10**5)
    from resbound.statements import parse

    candidate_texts = ["A", "B", "C", "!A", "!B", "!C", "(A->B)", "(B->C)", "(A&B)", "(A|C)"]
    for _ in range(100):
        truths = tuple(rng.choice((True, False)) for _ in range(3))
        world = random_truth_world(truths, names=("A", "B", "C"))
        chosen = rng.sample(candidate_texts, k=rng.randint(2, 6))
        candidates = tuple(AxiomCandidate(parse(t)) for t in chosen)
        theory = build_theory(ample, candidates, world, cost)
        result = soundness_check(theory, size_bound=5, max_steps=4)
        assert result.ok, f"{truths} {chosen}: {[render(v) for v in result.violations]}"
    negative = load(FIXTURES / "negative_control.scn")
    flagged = soundness_check(negative.base_theory(), negative.search.size_bound)
    assert not flagged.ok
    assert Atom("C") in flagged.violations
    elapsed = time.monotonic() - start
    assert elapsed < bound
    report(9, "soundness on 100 random worlds + negative control", elapsed, bound)


def test_criterion_10_check_determinism(tmp_path):
    scenarios = ("minimal", "nonclosure", "standard", "negative_control")
    start = time.monotonic()
    for name in scenarios:
        outputs = []
        codes = []
        for tag in ("first", "second"):
            out = tmp_path / f"{name}_{tag}"
            code = cli_main(
                ["--scenario", str(FIXTURES / f"{name}.scn"), "--command", "check",
                 "--out", str(out), "--seed", "0"]
            )
            codes.append(code)
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        assert codes[0] == codes[1]
        assert outputs[0] == outputs[1], name
    elapsed = time.monotonic() - start
    report(10, "bit-identical check runs on all fixtures", elapsed, 0)

"""Seeded inputs for the four workloads.

Everything here is plain data: scenario documents (the engine's ``.scn``
JSON) and soundness-theory specs.  Nothing imports ``resbound``; the engine
only ever sees the generated inputs.
"""

from __future__ import annotations

import random


FIXTURES = ("minimal", "nonclosure", "standard", "negative_control")
COMMANDS = ("cost", "domain", "prove", "lattice", "observe", "reflect", "check")
# `check` on standard.scn repeats the grid searches of its `lattice` (the same
# six times 72 searches, about 30 s); running both would leave too little of
# the run budget for the other workloads to measure enough work to be steady.
SKIPPED = {("standard", "check")}

# atom names are single letters so rendered lengths do not depend on the seed
LETTERS = "ABCDEFGHIJKLMNOPQRSUVWXYZ"
ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZhmr()!&|->_0123456789"

# random-soundness: criterion-9 style theories over three atoms, each a world's
# truth values and a subset of the criterion's ten candidate axioms
SOUNDNESS_SIZE_BOUND = 5
SOUNDNESS_MAX_STEPS = 4
# The seven theories are fixed so that every seed does the same amount of
# search: 231 goals, 173 pruned by entailment, 58 searched and 33 proved, close
# to the shares of the full criterion-9 loop (77 % pruned, 352 of 763 searches
# failing).  A run's seed renames the atoms (one permutation for all theories)
# and shuffles the theories, which changes every input but not the work.
SOUNDNESS_THEORIES = (
    ({"A": False, "B": False, "C": True}, ("(A->B)", "(A|C)", "!C", "(A&B)")),
    ({"A": True, "B": False, "C": True}, ("!C", "C", "(B->C)", "(A|C)", "!A", "B")),
    ({"A": False, "B": False, "C": True}, ("A", "B", "(A&B)", "C", "!B", "(B->C)")),
    ({"A": True, "B": False, "C": True}, ("!A", "(A&B)", "B", "(A|C)", "(B->C)", "!B")),
    ({"A": False, "B": False, "C": False}, ("(B->C)", "!C", "A", "(A|C)", "!A")),
    ({"A": False, "B": True, "C": True}, ("B", "!C", "(A&B)", "C")),
    ({"A": False, "B": False, "C": False}, ("(A&B)", "(A->B)", "(A|C)", "!C", "(B->C)", "A")),
)

# deep-chain: one scenario per chain length, step bound 2L+1
CHAIN_LENGTHS = (3, 5)

# domain-observe
DOMAIN_DESIGN_SEED = "domain-observe-design"
DOMAIN_ATOMS = 12
DOMAIN_DECIDERS = 2
DOMAIN_EQUIPMENT = 4
# statements per atom count: many mid-sized ones, so no single random
# frontier dominates the round
DOMAIN_STATEMENTS = {1: 2, 2: 2, 3: 3, 4: 4, 5: 8, 6: 14, 7: 20}


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _vec(rng: random.Random, lo: int, hi: int, n: int = 4) -> list:
    return [str(rng.randint(lo, hi)) for _ in range(n)]


def _decider(pid: str, atom: str, cost: list, equipment: list) -> dict:
    return {
        "id": pid,
        "equipment": equipment,
        "instructions": atom,
        "implementation_cost": cost,
        "declared_purpose": {"kind": "determine_truth", "statement": atom},
        "output": {"atom": atom},
    }


# --- random-soundness ------------------------------------------------------------


def _rename(text: str, names: dict) -> str:
    return "".join(names.get(ch, ch) for ch in text)


def random_soundness(seed: int) -> list:
    rng = rng_for("random-soundness", seed)
    names = dict(zip("ABC", rng.sample("ABC", 3)))
    theories = []
    for truths, axioms in SOUNDNESS_THEORIES:
        theories.append(
            {
                "truths": {names[a]: v for a, v in sorted(truths.items())},
                "axioms": [_rename(t, names) for t in axioms],
            }
        )
    rng.shuffle(theories)
    return theories


# --- deep-chain -------------------------------------------------------------------


def chain_scenario(rng: random.Random, length: int) -> dict:
    """Axioms X0, (X0->X1), ..., (X(L-1)->XL); goals X1..XL and the entailed
    conjunction (X0&XL), whose shortest proof needs 2L+4 steps."""
    names = rng.sample(LETTERS, length + 1)
    return {
        "schema_version": 1,
        "dimension": 1,
        "alphabet": ALPHABET,
        "cost_model": {"delta": ["1", "1", "1", "1"], "delta_e": "1/100"},
        "world": {
            "ground_truth": {n: True for n in names},
            "equipment": [],
            "procedures": [_decider(f"p{n}", n, ["1", "1", "1", "1"], []) for n in names],
            "true_purposes": {
                f"p{n}": {"kind": "determine_truth", "statement": n} for n in names
            },
        },
        "axioms": [{"statement": names[0], "justification": "verified"}]
        + [
            {"statement": f"({a}->{b})", "justification": "verified"}
            for a, b in zip(names, names[1:])
        ],
        "budget": ["1000", "1000", "1000", "100000"],
        "prove": names[1:] + [f"({names[0]}&{names[-1]})"],
        "search": {"max_steps": 2 * length + 1, "size_bound": 7},
    }


def deep_chain(seed: int) -> list:
    rng = rng_for("deep-chain", seed)
    return [chain_scenario(rng, length) for length in CHAIN_LENGTHS]


# --- domain-observe ---------------------------------------------------------------


def _statement(rng: random.Random, atoms: list) -> str:
    parts = [("!" + a) if rng.random() < 0.3 else a for a in atoms]
    text = parts[-1]
    for part in reversed(parts[:-1]):
        op = rng.choice(("&", "&", "|", "->"))
        text = f"({part}{op}{text})"
    return text


def domain_world(seed: int) -> dict:
    """Many atoms, rival deciders on shared equipment, statements over up to
    seven atoms, one capped and one uncapped observer.

    Costs, equipment, budgets and which atoms each statement and action uses
    come from a fixed design drawn from DOMAIN_DESIGN_SEED, because random
    costs change the size of every Pareto frontier and with it the work.  The
    run's seed names the atoms, sets their truth, picks the connectives and
    negations and orders the statements, which changes every input but not
    the amount of costing."""
    design = random.Random(DOMAIN_DESIGN_SEED)
    rng = rng_for("domain-observe", seed)
    atoms = rng.sample(LETTERS, DOMAIN_ATOMS)
    equipment = [
        {"id": f"e{i}", "construction_cost": _vec(design, 0, 3)} for i in range(DOMAIN_EQUIPMENT)
    ]
    procedures = []
    purposes = {}
    for atom in atoms:
        for j in range(DOMAIN_DECIDERS):
            pid = f"p{atom}{j}"
            used = sorted(design.sample([e["id"] for e in equipment], design.randint(0, 2)))
            procedures.append(_decider(pid, atom, _vec(design, 0, 3), used))
            purposes[pid] = {"kind": "determine_truth", "statement": atom}
    procedures.append(
        {
            "id": "pst",
            "equipment": [],
            "instructions": "00",
            "implementation_cost": ["1", "1", "1", "1"],
            "declared_purpose": {"kind": "measure_spacetime", "figures": 2},
            "output": {"constant": "00"},
        }
    )
    purposes["pst"] = {"kind": "measure_spacetime", "figures": 2}
    statements = []
    for k, count in DOMAIN_STATEMENTS.items():
        for _ in range(count):
            statements.append(_statement(rng, design.sample(atoms, k)))
    rng.shuffle(statements)
    actions = []
    for k in (1, 2, 3, 5, 7, 7, 4, 6, 7, 2):
        actions.append({"verify": _statement(rng, design.sample(atoms, k))})
    actions.insert(3, {"implement": f"p{atoms[0]}0", "at": ["00", "00"], "spacetime": "pst"})
    hinted = design.sample(atoms, 2)
    actions.append(
        {
            "verify": f"({hinted[0]}&{hinted[1]})",
            "strategy": {a: f"p{a}{design.randrange(DOMAIN_DECIDERS)}" for a in hinted},
        }
    )
    cap = [str(design.randint(12, 20)) for _ in range(4)]
    return {
        "schema_version": 1,
        "dimension": 1,
        "alphabet": ALPHABET,
        "cost_model": {"delta": ["1", "1", "1", "1"], "delta_e": "1/100"},
        "world": {
            "ground_truth": {a: rng.choice((True, False)) for a in atoms},
            "equipment": equipment,
            "procedures": procedures,
            "true_purposes": purposes,
        },
        "axioms": [],
        "budget": ["400", "500", "400", "4000"],
        "domain_budget": [str(design.randint(6, 10)) for _ in range(4)],
        "grid": [["10", "10", "10", "10"], ["20", "20", "20", "20"], ["40", "20", "40", "20"]],
        "statements": statements,
        "observers": [
            {"name": "uncapped", "cap": None, "actions": actions},
            {"name": "capped", "cap": cap, "actions": actions},
        ],
        "search": {"max_steps": 4, "size_bound": 5},
    }

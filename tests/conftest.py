from fractions import Fraction

import pytest

from resbound import (
    Alphabet,
    CostParameters,
    DetermineTruth,
    Equipment,
    Expression,
    MeasureSpaceTime,
    Procedure,
    World,
    vec,
)
from resbound.world import constant_output, truth_output

# includes the glyphs provability atoms are written with (Thm_<label>_<code>)
STD_ALPHA = "ABCDThmr()!&|->_0123456789"


def _proc(world_alpha, pid, equip, impl, atom=None, declared=None, output=None):
    declared = declared if declared is not None else DetermineTruth(atom)
    output = output if output is not None else truth_output(atom)
    return Procedure(
        id=pid,
        equipment_used=frozenset(equip),
        instructions=Expression("", world_alpha),
        implementation_cost=impl,
        declared_purpose=declared,
        output_fn=output,
    )


@pytest.fixture
def std_alphabet():
    return Alphabet.from_string(STD_ALPHA)


@pytest.fixture
def std_cost():
    # delta 1 everywhere, light maintenance, no overhead
    return CostParameters(
        delta=vec(1, 1, 1, 1),
        delta_e=Fraction(1, 100),
        overhead_base=vec(0, 0, 0, 0),
        overhead_slope=vec(0, 0, 0, 0),
    )


@pytest.fixture
def std_world(std_alphabet):
    """d=1 world: atoms A, B, D true, C false; pA/pB share the scope."""
    alpha = std_alphabet
    equipment = {
        "scope": Equipment("scope", vec(2, 1, 0, 0)),
        "bench": Equipment("bench", vec(1, 1, 1, 1)),
    }
    procs = {
        "pA": _proc(alpha, "pA", ["scope"], vec(1, 1, 1, 1), atom="A"),
        "pB": _proc(alpha, "pB", ["scope"], vec(2, 2, 1, 1), atom="B"),
        "pB2": _proc(alpha, "pB2", ["bench"], vec(1, 4, 1, 1), atom="B"),
        "pC": _proc(alpha, "pC", [], vec(1, 1, 1, 3), atom="C"),
        "pD": _proc(alpha, "pD", [], vec(1, 1, 1, 1), atom="D"),
        "pst": _proc(
            alpha,
            "pst",
            [],
            vec(1, 1, 1, 1),
            declared=MeasureSpaceTime(2),
            output=constant_output("00"),
        ),
    }
    true_purposes = {
        "pA": DetermineTruth("A"),
        "pB": DetermineTruth("B"),
        "pB2": DetermineTruth("B"),
        "pC": DetermineTruth("C"),
        "pD": DetermineTruth("D"),
        "pst": MeasureSpaceTime(2),
    }
    return World(
        dimension=1,
        alphabet=alpha,
        equipment=equipment,
        procedures=procs,
        ground_truth={"A": True, "B": True, "C": False, "D": True},
        true_purposes=true_purposes,
    )


@pytest.fixture
def tiny_world():
    """d=0 world (2-vectors): atoms X, Y true, deciders share one instrument."""
    alpha = Alphabet.from_string("XY01()!&|->_")
    equipment = {"e0": Equipment("e0", vec(1, 1))}
    procs = {
        "pX": Procedure(
            "pX",
            frozenset(["e0"]),
            Expression("", alpha),
            vec(2, 2),
            DetermineTruth("X"),
            truth_output("X"),
        ),
        "pY": Procedure(
            "pY",
            frozenset(["e0"]),
            Expression("", alpha),
            vec(2, 2),
            DetermineTruth("Y"),
            truth_output("Y"),
        ),
    }
    return World(
        dimension=0,
        alphabet=alpha,
        equipment=equipment,
        procedures=procs,
        ground_truth={"X": True, "Y": True},
        true_purposes={"pX": DetermineTruth("X"), "pY": DetermineTruth("Y")},
    )


@pytest.fixture
def disjoint_world():
    """d=0 world where the two deciders share no equipment (non-closure demo)."""
    alpha = Alphabet.from_string("ST01()!&|->_")
    equipment = {"eS": Equipment("eS", vec(1, 1)), "eT": Equipment("eT", vec(1, 1))}
    procs = {
        "pS": Procedure(
            "pS",
            frozenset(["eS"]),
            Expression("", alpha),
            vec(1, 1),
            DetermineTruth("S"),
            truth_output("S"),
        ),
        "pT": Procedure(
            "pT",
            frozenset(["eT"]),
            Expression("", alpha),
            vec(1, 1),
            DetermineTruth("T"),
            truth_output("T"),
        ),
    }
    return World(
        dimension=0,
        alphabet=alpha,
        equipment=equipment,
        procedures=procs,
        ground_truth={"S": True, "T": True},
        true_purposes={"pS": DetermineTruth("S"), "pT": DetermineTruth("T")},
    )


@pytest.fixture
def forget_searches(monkeypatch):
    """Empty the prover's memo, its searches and the requests it answered,
    now and at each call of the function returned; the test's end restores
    the memo it found."""
    import resbound.theory as theory_mod

    def forget():
        monkeypatch.setattr(theory_mod, "_searches", {})
        monkeypatch.setattr(theory_mod, "_requests", {})

    forget()
    return forget

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from resbound.cli import main
from resbound.errors import ScenarioError
from resbound.scenario import load, loads

FIXTURES = "fixtures"


def base_doc():
    return {
        "schema_version": 1,
        "dimension": 0,
        "alphabet": "XY()!&|->_01",
        "cost_model": {"delta": ["1", "1"], "delta_e": "0"},
        "world": {
            "ground_truth": {"X": True},
            "equipment": [{"id": "e1", "construction_cost": ["1", "1"]}],
            "procedures": [
                {
                    "id": "pX",
                    "equipment": ["e1"],
                    "instructions": "X",
                    "implementation_cost": ["1", "1"],
                    "declared_purpose": {"kind": "determine_truth", "statement": "X"},
                    "output": {"atom": "X"},
                }
            ],
            "true_purposes": {"pX": {"kind": "determine_truth", "statement": "X"}},
        },
        "axioms": [{"statement": "X", "justification": "verified"}],
        "budget": ["9", "9"],
        "search": {"max_steps": 4, "size_bound": 5},
    }


def test_load_minimal_fixture():
    scn = load(f"{FIXTURES}/minimal.scn")
    assert scn.world.atoms() == ["A"]
    assert len(scn.world.procedures) == 1
    assert len(scn.axiom_candidates) == 1


def test_load_all_shipped_fixtures():
    for name in ("minimal", "nonclosure", "standard", "negative_control"):
        scn = load(f"{FIXTURES}/{name}.scn")
        assert scn.schema_version == 1


def test_dangling_equipment_reference():
    doc = base_doc()
    doc["world"]["procedures"][0]["equipment"] = ["ghost"]
    with pytest.raises(ScenarioError) as err:
        loads(json.dumps(doc))
    assert any("ghost" in p for p in err.value.problems)
    assert any("world.procedures[0].equipment" in p for p in err.value.problems)


def test_cyclic_verifier_relation():
    doc = base_doc()
    doc["world"]["procedures"].append(
        {
            "id": "pQ",
            "equipment": [],
            "instructions": "X",
            "implementation_cost": ["0", "0"],
            "declared_purpose": {"kind": "none"},
            "output": {"constant": "1"},
        }
    )
    doc["world"]["verifier_of"] = [["pX", "pQ"], ["pQ", "pX"]]
    with pytest.raises(ScenarioError) as err:
        loads(json.dumps(doc))
    assert any("acyclic" in p for p in err.value.problems)


def test_all_problems_reported_not_just_first():
    doc = base_doc()
    doc["world"]["procedures"][0]["equipment"] = ["ghost"]
    doc["axioms"].append({"statement": "(X &", "justification": "verified"})
    doc["budget"] = ["9"]
    with pytest.raises(ScenarioError) as err:
        loads(json.dumps(doc))
    joined = "\n".join(err.value.problems)
    assert "ghost" in joined
    assert "axioms[1]" in joined
    assert "budget" in joined


def test_parse_error_carries_line_number():
    with pytest.raises(ScenarioError) as err:
        loads('{"schema_version": 1,\n  broken')
    assert any("line 2" in p for p in err.value.problems)


def test_unknown_atom_in_statement():
    doc = base_doc()
    doc["statements"] = ["(X&XY)"]  # XY renders fine but is not a declared atom
    with pytest.raises(ScenarioError) as err:
        loads(json.dumps(doc))
    assert any("unknown atoms: XY" in p for p in err.value.problems)


def test_rendering_must_fit_alphabet():
    doc = base_doc()
    doc["world"]["ground_truth"]["Q9z"] = True
    doc["world"]["direct_atoms"] = ["Q9z"]
    doc["statements"] = ["Q9z"]
    with pytest.raises(ScenarioError) as err:
        loads(json.dumps(doc))
    assert any("not in alphabet" in p for p in err.value.problems)


def test_direct_atoms_get_free_deciders():
    doc = base_doc()
    doc["world"]["ground_truth"]["Y"] = False
    doc["world"]["direct_atoms"] = ["Y"]
    scn = loads(json.dumps(doc))
    proc = scn.world.procedure("direct_Y")
    assert proc.implementation_cost.is_zero()
    assert scn.world.verifiers_for("Y") == ["direct_Y"]


def test_wrong_schema_version():
    doc = base_doc()
    doc["schema_version"] = 2
    with pytest.raises(ScenarioError) as err:
        loads(json.dumps(doc))
    assert any("schema_version" in p for p in err.value.problems)


def test_duplicate_ids_rejected():
    doc = base_doc()
    doc["world"]["procedures"].append(dict(doc["world"]["procedures"][0]))
    with pytest.raises(ScenarioError) as err:
        loads(json.dumps(doc))
    assert any("duplicate" in p for p in err.value.problems)


def test_vector_dimension_checked():
    doc = base_doc()
    doc["grid"] = [["1", "2", "3"]]
    with pytest.raises(ScenarioError) as err:
        loads(json.dumps(doc))
    assert any("grid[0]" in p and "2 components" in p for p in err.value.problems)


def _set(path, value):
    def mutate(doc):
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value

    return mutate


_VERIFY_X = {"name": "o", "actions": [{"verify": "X", "strategy": "pX"}]}
_IMPLEMENT_AT_3 = {"name": "o", "actions": [{"implement": "pX", "at": 3}]}
_VERIFY_UNCOVERED = {"name": "o", "actions": [{"verify": "X", "strategy": {}}]}
_IMPLEMENT_ON_PX = {"name": "o", "actions": [{"implement": "pX", "spacetime": "pX"}]}
_IMPLEMENT_NOWHERE = {"name": "o", "actions": [{"implement": "pX"}]}


@pytest.mark.parametrize(
    "mutate, expected",
    [
        (_set(("world", "equipment", 0), "e1"), "world.equipment[0]: expected an object"),
        (_set(("world", "procedures", 0), ["pX"]), "world.procedures[0]: expected an object"),
        (_set(("world", "string_claims"), [7]), "world.string_claims[0]: expected an object"),
        (_set(("axioms", 0), "X"), "axioms[0]: expected an object"),
        (_set(("axioms",), "X"), "axioms: expected an array"),
        (_set(("observers",), ["o"]), "observers[0]: expected an object"),
        (_set(("observers",), [{"name": "o", "actions": ["X"]}]), "observers[0].actions[0]: expected an object"),
        (_set(("observers",), [_VERIFY_X]), "observers[0].actions[0].strategy: expected an object"),
        (_set(("cost_model",), ["1", "1"]), "cost_model: expected an object"),
        (_set(("reflection",), "X"), "reflection: expected an object"),
        (_set(("world", "true_purposes"), ["x"]), "world.true_purposes: expected an object"),
        (_set(("search",), "x"), "search: expected an object"),
        (_set(("world", "procedures", 0, "output"), "atom"), "world.procedures[0].output: expected an object"),
        (_set(("world", "procedures", 0, "equipment"), 3), "world.procedures[0].equipment: expected an array"),
        (_set(("world", "procedures", 0, "output"), {"atom": "X", "when_true": "x"}), "world.procedures[0].output: characters ['x'] not in alphabet"),
        (_set(("world", "direct_atoms"), [["X"]]), "world.direct_atoms[0]: unknown atom ['X']"),
        (_set(("world", "direct_atoms"), 3), "world.direct_atoms: expected an array"),
        (_set(("statements",), 3), "statements: expected an array"),
        (_set(("prove",), 3), "prove: expected an array"),
        (_set(("grid",), 3), "grid: expected an array"),
        (_set(("world", "verifier_of"), 3), "world.verifier_of: expected an array"),
        (_set(("observers",), [{"name": ["o"], "actions": []}]), "observers[0].name: expected a string"),
        (_set(("observers",), [_IMPLEMENT_AT_3]), "observers[0].actions[0].at: expected an array"),
        (_set(("statements",), ["!" * 3000 + "X"]), "statements[0]: parse error: statement nested too deeply"),
        (_set(("search", "max_steps"), True), "search.max_steps: must be a positive integer"),
        (_set(("search", "size_bound"), True), "search.size_bound: must be a positive integer"),
        (_set(("dimension",), False), "dimension: must be a nonnegative integer"),
        (_set(("schema_version",), True), "schema_version: unsupported version True"),
        (_set(("reflection",), {"target": "X", "stages": True}), "reflection.stages: must be a positive integer"),
        (_set(("world", "true_purposes", "pX"), {"kind": "measure_spacetime", "figures": True}), "world.true_purposes.pX: bad purpose fields: figures must be an integer, not True"),
        (_set(("observers",), [_VERIFY_UNCOVERED]), "observers[0].actions[0]: strategy does not cover atoms X"),
        (_set(("observers",), [_IMPLEMENT_ON_PX]), "observers[0].actions[0]: 'pX' is not declared as a space-time measurement"),
        (_set(("observers",), [_IMPLEMENT_NOWHERE]), "observers[0].actions[0]: no space-time procedure declared in world"),
        (None, "error file-unreadable:"),
    ],
)
def test_malformed_input_exits_2_with_an_error_line(tmp_path, capsys, mutate, expected):
    if mutate is None:
        scenario = tmp_path  # a directory, not a scenario file
    else:
        doc = base_doc()
        mutate(doc)
        scenario = tmp_path / "bad.scn"
        scenario.write_text(json.dumps(doc))
    code = main(["--scenario", str(scenario), "--command", "cost", "--out", str(tmp_path / "out")])
    assert code == 2
    assert expected in capsys.readouterr().err


def _node_paths(node, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


_JSON_VALUES = (None, True, 0, -1.5, "x", [], [1], {}, {"x": 1})


@pytest.mark.parametrize("fixture", ["minimal", "nonclosure", "standard", "negative_control"])
@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_a_wrong_typed_node_exits_0_or_2(tmp_path, fixture, data):
    doc = json.loads(Path(f"{FIXTURES}/{fixture}.scn").read_text())
    path = data.draw(st.sampled_from(list(_node_paths(doc))))
    node = doc
    for key in path:
        node = node[key]
    value = data.draw(st.sampled_from([v for v in _JSON_VALUES if type(v) is not type(node)]))
    if path:
        _set(path, value)(doc)
    else:
        doc = value
    scenario = tmp_path / "fuzz.scn"
    scenario.write_text(json.dumps(doc))
    code = main(["--scenario", str(scenario), "--command", "cost", "--out", str(tmp_path / "out")])
    assert code in (0, 2)

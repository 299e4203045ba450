import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resbound
from resbound.cli import main

FIXTURES = Path("fixtures")


def run_cli(*args):
    return main(list(args))


def read_json(path):
    return json.loads(Path(path).read_text())


def test_domain_finds_nonclosure_witness(tmp_path):
    code = run_cli(
        "--scenario", str(FIXTURES / "nonclosure.scn"), "--command", "domain",
        "--out", str(tmp_path),
    )
    assert code == 0
    doc = read_json(tmp_path / "domain.json")
    assert doc["non_closure_witness"] == {"s": "S", "t": "T"}
    members = {m["statement"]: m["in_domain"] for m in doc["memberships"]}
    assert members["S"] and members["T"] and not members["(S&T)"]


def test_prove_emits_three_step_proof(tmp_path):
    code = run_cli(
        "--scenario", str(FIXTURES / "standard.scn"), "--command", "prove",
        "--out", str(tmp_path),
    )
    assert code == 0
    doc = read_json(tmp_path / "proofs.json")
    by_stmt = {p["statement"]: p for p in doc["proofs"]}
    assert by_stmt["B"]["found"] and len(by_stmt["B"]["steps"]) == 3
    assert by_stmt["B"]["steps"][-1]["justification"].startswith("mp(")
    assert not by_stmt["(A&B)"]["found"]


def test_cost_command_outputs(tmp_path):
    code = run_cli(
        "--scenario", str(FIXTURES / "minimal.scn"), "--command", "cost",
        "--out", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "expression_costs.csv").read_text().splitlines()
    assert lines[0] == "statement,length,r1,r2,r3,r4"
    assert "A,1,2,2,2,2" in lines
    summary = read_json(tmp_path / "cost_summary.json")
    assert summary["language_bound"] == 50


def test_check_on_clean_scenarios(tmp_path):
    for name in ("minimal", "nonclosure"):
        out = tmp_path / name
        code = run_cli(
            "--scenario", str(FIXTURES / f"{name}.scn"), "--command", "check",
            "--out", str(out),
        )
        assert code == 0
        assert read_json(out / "check_report.json")["ok"]


def test_check_flags_negative_control(tmp_path):
    code = run_cli(
        "--scenario", str(FIXTURES / "negative_control.scn"), "--command", "check",
        "--out", str(tmp_path),
    )
    assert code == 1
    doc = read_json(tmp_path / "check_report.json")
    assert not doc["ok"]
    assert "C" in doc["soundness"]["violations"]


def test_check_deterministic_across_runs(tmp_path):
    outs = []
    for run in ("one", "two"):
        out = tmp_path / run
        run_cli(
            "--scenario", str(FIXTURES / "minimal.scn"), "--command", "check",
            "--out", str(out), "--seed", "3",
        )
        outs.append((out / "check_report.json").read_bytes())
    assert outs[0] == outs[1]


def test_invalid_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text('{"schema_version": 1, "alphabet": "AB()!&|->_01", "world": {"ground_truth": {"A": true}}, "budget": ["1"]}')
    code = run_cli("--scenario", str(bad), "--command", "domain", "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "error scenario-invalid:" in err


def test_missing_file_exits_2(tmp_path):
    assert run_cli("--scenario", str(tmp_path / "nope.scn"), "--command", "cost",
                   "--out", str(tmp_path)) == 2


def test_undecodable_scenario_and_unusable_out_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_bytes(b"\xff\xfe\x00bad")
    assert run_cli("--scenario", str(bad), "--command", "cost", "--out", str(tmp_path / "o")) == 2
    assert f"error file-unreadable: {bad}" in capsys.readouterr().err
    taken = tmp_path / "taken"
    taken.write_text("")
    code = run_cli(
        "--scenario", str(FIXTURES / "minimal.scn"), "--command", "cost", "--out", str(taken)
    )
    assert code == 2
    assert f"error out-unusable: {taken}" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["0", "1"])
def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, seed):
    env = {
        **os.environ,
        "PYTHONHASHSEED": seed,
        "PYTHONPATH": str(Path(resbound.__file__).parents[1]),
    }
    for command in ("prove", "reflect"):
        out = tmp_path / command
        subprocess.run(
            [sys.executable, "-m", "resbound.cli", "--scenario", str(FIXTURES / "standard.scn"),
             "--command", command, "--out", str(out), "--seed", "0"],
            env=env,
            check=True,
        )
        golden = Path("out") / "standard" / command
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in golden.iterdir())
        for path in golden.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), (seed, command, path.name)


def test_small_lattice_run(tmp_path):
    scenario = {
        "schema_version": 1,
        "dimension": 0,
        "alphabet": "XY()!&|->_01",
        "cost_model": {"delta": ["1", "1"], "delta_e": "0"},
        "world": {
            "ground_truth": {"X": True, "Y": True},
            "direct_atoms": ["X", "Y"],
        },
        "axioms": [
            {"statement": "X", "justification": "verified"},
            {"statement": "(X->Y)", "justification": "verified"},
        ],
        "budget": ["60", "60"],
        "grid": [["5", "5"], ["30", "30"], ["60", "60"]],
        "statements": ["Y"],
        "prove": ["Y"],
        "search": {"max_steps": 4, "size_bound": 5},
    }
    path = tmp_path / "chain.scn"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    code = run_cli("--scenario", str(path), "--command", "lattice", "--out", str(out))
    assert code == 0
    doc = read_json(out / "lattice.json")
    assert doc["monotonicity_violations"] == 0
    edges = (out / "lattice_edges.csv").read_text().splitlines()
    assert edges[1:] == ["5;5,30;30", "30;30,60;60"]
    fa = {x["statement"]: x for x in doc["first_appearance"]}
    assert fa["Y"]["expressible_points"] == [["5", "5"]]
    assert fa["Y"]["theorem_points"] == [["30", "30"]]


def test_observe_traces(tmp_path):
    code = run_cli(
        "--scenario", str(FIXTURES / "standard.scn"), "--command", "observe",
        "--out", str(tmp_path),
    )
    assert code == 0
    sharing = (tmp_path / "trace_sharing.csv").read_text().splitlines()
    assert sharing[0].startswith("t,action,d1")
    assert len(sharing) == 4
    capped = (tmp_path / "trace_capped.csv").read_text().splitlines()
    assert capped[-1].endswith("refused")
    doc = read_json(tmp_path / "observer.json")
    by_name = {s["script"]: s for s in doc["scripts"]}
    assert by_name["sharing"]["knowledge_statement"] == "(A&(B&(A&B)))"
    assert by_name["sharing"]["lattice_location"]


def test_identical_outputs_across_commands(tmp_path):
    # two runs of every command on the nonclosure fixture are byte-identical
    for command in ("cost", "domain", "prove", "observe", "reflect", "check"):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}_{tag}"
            run_cli(
                "--scenario", str(FIXTURES / "nonclosure.scn"), "--command", command,
                "--out", str(out),
            )
            paths.append(out)
        first = sorted(p.name for p in paths[0].iterdir())
        second = sorted(p.name for p in paths[1].iterdir())
        assert first == second
        for name in first:
            assert (paths[0] / name).read_bytes() == (paths[1] / name).read_bytes()


@pytest.mark.parametrize("flag", ["--max-steps", "--max-len"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_bounds_below_one_exit_2(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "--scenario", str(FIXTURES / "minimal.scn"), "--command", "lattice",
            "--out", str(tmp_path), flag, value,
        )
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_python_dash_m_resbound_runs_the_cli(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(resbound.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "resbound", "--scenario", str(FIXTURES / "minimal.scn"),
         "--command", "cost", "--out", str(tmp_path)],
        env=env,
    )
    assert proc.returncode == 0

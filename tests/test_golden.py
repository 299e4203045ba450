"""Every command on every shipped fixture regenerates the committed ``out/`` tree
byte for byte, with the committed exit codes."""

from pathlib import Path

import pytest

from resbound.cli import COMMANDS, main

FIXTURES = ("minimal", "nonclosure", "standard", "negative_control")
GOLDEN = Path("out")


@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixture_outputs_match_committed_tree(fixture, tmp_path):
    for command in COMMANDS:
        out = tmp_path / command
        code = main(
            ["--scenario", f"fixtures/{fixture}.scn", "--command", command,
             "--out", str(out), "--seed", "0"]
        )
        expected_code = 1 if (fixture, command) == ("negative_control", "check") else 0
        assert code == expected_code, (fixture, command)
        golden = GOLDEN / fixture / command
        produced = sorted(p.name for p in out.iterdir())
        assert produced == sorted(p.name for p in golden.iterdir()), (fixture, command)
        for name in produced:
            assert (out / name).read_bytes() == (golden / name).read_bytes(), (
                fixture, command, name,
            )

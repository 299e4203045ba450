"""The resbound benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload fixtures-cli --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Every operation runs in a fresh
Python process, one at a time, the way the CLI is used.  A run repeats whole
rounds of the same operations while another round should end within
``--seconds`` (at least one round), then checks the outputs and reports
medians over its rounds.  The last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from formulas import all_formulas  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# no round starts that would end after this, whatever --seconds says
RUN_LIMIT_S = 120.0
ORACLE_SAMPLES = 3
SOUNDNESS_BUDGET = ["100000"] * 4
# what a traced run reports: medians over rounds of per-round sums
LAYER_METRICS = (
    "theory.prove.self_s",
    "theory.prove.calls",
    "theory.prove.distinct",
    "theory.prove.found",
    "theory.proof_steps",
    "theory.substitute.calls",
    "expressions.expression_cost.calls",
    "theory.check_proof.s",
    "theory.check_proof.calls",
    "statements.evaluate.calls",
    "theory.theorems_up_to.self_s",
    "theory.soundness_check.self_s",
    "statements.enumerate_statements.s",
    "theory.build_theory.s",
    "theory.build_theory.calls",
    "expressions.max_length.calls",
    "lattice.TheoryGrid.build.s",
    "lattice.extension_edges.s",
    "lattice.first_appearance_theorem.self_s",
    "lattice.check_extension_monotonicity.self_s",
    "reflection.reflect_extend.self_s",
    "reflection.reflection_chain.self_s",
    "statements.min_cost.s",
    "statements.min_cost.calls",
    "statements.strategy_cost.calls",
    "statements.verify.s",
    "statements.verify.calls",
    "statements.non_closure_witness.s",
    "resources.pareto_min.s",
    "resources.pareto_min.calls",
    "observer.step.self_s",
    "observer.step.calls",
    "world.implement.calls",
    "statements.render.calls",
    "scenario.load.s",
    "cli.run_command.self_s",
    "trace.wall_s",
)


class Process:
    """One worker process running one operation: a CLI command, or
    build_theory plus soundness_check of one theory.  ``check(out_dir,
    result)`` gives the operation's list of problems."""

    def __init__(self, name: str, job: dict, check, exit_code: int = 0):
        self.name = name
        self.job = job
        self.check = check
        self.exit_code = exit_code


# --- workload plans -----------------------------------------------------------------


def _write_scenario(doc: dict, path: Path) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def _cli_job(scenario: str, command: str, seed: int, max_steps=None) -> dict:
    return {
        "kind": "cli",
        "scenario": scenario,
        "command": command,
        "seed": seed,
        "max_steps": max_steps,
    }


def _cli_check(doc: dict, command: str, seed: int):
    """Checks for one CLI command's output directory."""
    model = checks.DomainModel(doc)
    costs = checks.CostModel.from_scenario(doc)
    budget = doc["budget"]
    steps = doc.get("search", {}).get("max_steps", 4)

    def check(out: Path, result: dict) -> list:
        if command == "cost":
            problems = checks.check_cost(doc, out, model)
            summary = json.loads((out / "cost_summary.json").read_text())
            if summary["language_bound"] != costs.language_bound(budget):
                problems.append("cost_summary.json: N(r) differs from the closed form")
            return problems
        if command == "domain":
            return checks.check_domain(doc, json.loads((out / "domain.json").read_text()), model)
        if command == "prove":
            report = json.loads((out / "proofs.json").read_text())
            return _check_proofs(doc, report, model, costs, steps)
        if command == "lattice":
            problems = checks.check_lattice(doc, out)
            if json.loads((out / "lattice.json").read_text())["monotonicity_violations"]:
                problems.append("lattice.json reports monotonicity violations")
            return problems
        if command == "observe":
            summary = json.loads((out / "observer.json").read_text())
            return checks.check_observer(doc, out, summary)
        if command == "reflect":
            return checks.check_reflect(doc, json.loads((out / "reflect.json").read_text()))
        report = json.loads((out / "check_report.json").read_text())
        problems = [] if report["seed"] == seed else ["check_report.json: wrong seed"]
        violations = report["soundness"]["violations"]
        truth = doc["world"]["ground_truth"]
        false_postulates = sorted(
            ax["statement"]
            for ax in doc.get("axioms", [])
            if ax.get("justification") == "postulated"
            and not checks.evaluate(checks.parse(ax["statement"]), truth)
        )
        for text in false_postulates:
            if text not in violations:
                problems.append(f"check does not name the false axiom {text}")
        if report["ok"] == bool(false_postulates):
            problems.append(f"check_report.json: ok is {report['ok']}")
        if report["proof_recheck"] or report["order_laws"]["violations"]:
            problems.append("check_report.json reports recheck or order-law violations")
        return problems

    return check


def _check_proofs(doc, report, model, costs, steps) -> list:
    problems = []
    admitted = checks.admitted_axioms(doc, doc["budget"], model)
    if report["axioms_admitted"] != admitted:
        problems.append(f"admitted {report['axioms_admitted']}, expected {admitted}")
    cap = costs.language_bound(doc["budget"])
    truth = doc["world"]["ground_truth"]
    found = [p for p in report["proofs"] if p["found"]]
    problems += checks.check_theorems([p["statement"] for p in found], admitted, truth)
    for p in found:
        for problem in checks.check_proof(
            p["steps"], p["statement"], admitted, costs, doc["budget"], cap, steps, p["total_cost"]
        ):
            problems.append(f"proof of {p['statement']}: {problem}")
    return problems


def plan_fixtures_cli(seed: int, work: Path) -> list:
    processes = []
    for fixture in wl.FIXTURES:
        path = ROOT / "fixtures" / f"{fixture}.scn"
        doc = json.loads(path.read_text())
        for command in wl.COMMANDS:
            if (fixture, command) in wl.SKIPPED:
                continue
            expected = 1 if (fixture, command) == ("negative_control", "check") else 0
            job = _cli_job(str(path), command, seed)
            processes.append(Process(f"{fixture}/{command}", job, _cli_check(doc, command, seed), expected))
    return processes


def plan_deep_chain(seed: int, work: Path) -> list:
    processes = []
    for length, doc in zip(wl.CHAIN_LENGTHS, wl.deep_chain(seed)):
        path = _write_scenario(doc, work / "inputs" / f"chain{length}.scn")
        base = _cli_check(doc, "prove", seed)

        def check(out, result, base=base, length=length):
            problems = base(out, result)
            proofs = json.loads((out / "proofs.json").read_text())["proofs"]
            for depth, entry in enumerate(proofs[:length], start=1):
                if not entry["found"]:
                    problems.append(f"chain goal {entry['statement']} is not proved")
                elif len(entry["steps"]) > 2 * depth + 1:
                    problems.append(f"chain goal {entry['statement']} takes {len(entry['steps'])} steps")
            return problems

        job = _cli_job(path, "prove", seed, 2 * length + 1)
        processes.append(Process(f"chain{length}/prove", job, check))
    return processes


def plan_domain_observe(seed: int, work: Path) -> list:
    processes = []
    doc = wl.domain_world(seed)
    path = _write_scenario(doc, work / "inputs" / "world.scn")
    for command in ("cost", "domain", "observe"):
        job = _cli_job(path, command, seed)
        processes.append(Process(f"world/{command}", job, _cli_check(doc, command, seed)))
    return processes


def plan_random_soundness(seed: int, work: Path) -> list:
    model = checks.CostModel(["1"] * 4, "0")
    cap = model.language_bound(SOUNDNESS_BUDGET)
    goals = {checks.render(f) for f in all_formulas(["A", "B", "C"], wl.SOUNDNESS_SIZE_BOUND)}

    def check_one(spec: dict, report: dict) -> list:
        truth = spec["truths"]
        admitted = [a for a in spec["axioms"] if checks.evaluate(checks.parse(a), truth)]
        problems = []
        if report["admitted"] != admitted:
            problems.append(f"admitted {report['admitted']}, expected {admitted}")
        if report["violations"]:
            problems.append(f"soundness violations {report['violations']}")
        if not set(report["theorems"]) <= goals:
            problems.append("a theorem lies outside the size bound")
        problems += checks.check_theorems(report["theorems"], admitted, truth)
        for goal, steps in report["proofs"].items():
            for problem in checks.check_proof(
                steps, goal, admitted, model, SOUNDNESS_BUDGET, cap, wl.SOUNDNESS_MAX_STEPS
            ):
                problems.append(f"proof of {goal}: {problem}")
        return problems

    job = {
        "kind": "soundness",
        "alphabet": wl.ALPHABET,
        "budget": SOUNDNESS_BUDGET,
        "size_bound": wl.SOUNDNESS_SIZE_BOUND,
        "max_steps": wl.SOUNDNESS_MAX_STEPS,
    }
    return [
        Process(
            f"theory{i}",
            dict(job, theory=spec),
            lambda out, result, spec=spec: check_one(spec, result["report"]),
        )
        for i, spec in enumerate(wl.random_soundness(seed))
    ]


PLANS = {
    "fixtures-cli": plan_fixtures_cli,
    "random-soundness": plan_random_soundness,
    "deep-chain": plan_deep_chain,
    "domain-observe": plan_domain_observe,
}


# --- running ------------------------------------------------------------------------


def run_process(job: dict, folder: Path, trace: bool) -> tuple:
    """Run one worker to its end; returns (result or None, peak RSS in MB)."""
    folder.mkdir(parents=True, exist_ok=True)
    job = dict(job, src=str(SRC), trace=trace, out=str(folder / "out"))
    (folder / "job.json").write_text(json.dumps(job))
    result_path = folder / "result.json"
    with open(folder / "log.txt", "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(folder / "job.json"), str(result_path)],
            stdout=log,
            stderr=subprocess.STDOUT,
            cwd=str(ROOT),
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.exists():
        return None, usage.ru_maxrss / 1024
    return json.loads(result_path.read_text()), usage.ru_maxrss / 1024


def _output(folder: Path, result: dict):
    """What a process produced: its files, or its reported theorems."""
    if "report" in result:
        return json.dumps(result["report"])
    out = folder / "out"
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}


def _problems(process: Process, folder: Path, result: dict) -> list:
    if result["exit_code"] != process.exit_code:
        return [f"exit code {result['exit_code']}, expected {process.exit_code}"]
    try:
        return process.check(folder / "out", result)
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"output unreadable: {exc!r}"]


def run_round(processes: list, folder: Path, trace: bool) -> dict:
    """Run every process once.  ``setup_s``, ``op_s`` and ``results`` line
    up with the processes; None marks a process that did not finish.  No
    output is checked here, so checking takes none of the run's time."""
    outcome = {"setup_s": [], "op_s": [], "rss_mb": 0.0, "layers": {}, "results": []}
    for index, process in enumerate(processes):
        result, rss = run_process(process.job, folder / f"p{index}", trace)
        outcome["rss_mb"] = max(outcome["rss_mb"], rss)
        outcome["results"].append(result)
        outcome["setup_s"].append(None if result is None else result["setup_s"])
        outcome["op_s"].append(None if result is None else result["op_s"])
        for key, value in (result or {}).get("layers", {}).items():
            outcome["layers"][key] = outcome["layers"].get(key, 0) + value
    return outcome


def judge(processes: list, rounds: list, work: Path) -> None:
    """Give every round its ``outputs`` and ``problems``, lined up with the
    processes.  The first round's outputs are checked.  A later output
    identical to the first round's keeps that round's verdict; one that
    differs fails, since two runs of one operation must agree byte for
    byte."""
    first = None
    for i, r in enumerate(rounds):
        r["outputs"], r["problems"] = [], []
        for index, (process, result) in enumerate(zip(processes, r["results"])):
            pfolder = work / f"r{i}" / f"p{index}"
            if result is None:
                output, problems = None, ["process failed, see its log"]
            else:
                output = _output(pfolder, result)
                if first is None:
                    problems = _problems(process, pfolder, result)
                elif output == first["outputs"][index]:
                    problems = first["problems"][index]
                else:
                    problems = ["output differs from the first round"] + _problems(process, pfolder, result)
            r["outputs"].append(output)
            r["problems"].append(problems)
        first = first or r


def medians(rounds: list, key: str) -> list:
    """Per operation, the median over the rounds it finished."""
    columns = zip(*(r[key] for r in rounds))
    return [median([v for v in column if v is not None]) for column in columns]


def oracle_agreement(first: dict, work: Path, seed: int) -> None:
    """The engine's verdicts on a seeded sample of goals must match the
    brute-force enumerator in tests/proof_oracle.py."""
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    import proof_oracle
    import resbound

    rng = random.Random(f"oracle:{seed}")
    goals = all_formulas(["A", "B", "C"], wl.SOUNDNESS_SIZE_BOUND)
    cost = resbound.CostParameters.uniform(4, delta=1, delta_e=0)
    budget = resbound.ResourceVector.from_strings(SOUNDNESS_BUDGET)
    cap = checks.CostModel(["1"] * 4, "0").language_bound(SOUNDNESS_BUDGET)
    for _ in range(ORACLE_SAMPLES):
        index = rng.randrange(len(first["outputs"]))
        if first["outputs"][index] is None:
            continue
        report = json.loads((work / "r0" / f"p{index}" / "result.json").read_text())["report"]
        premises = [checks.parse(a) for a in report["admitted"]]
        entailed = [g for g in goals if checks.entails(premises, g)]
        goal = checks.render(rng.choice(entailed or goals))
        verdict = proof_oracle.oracle_provable(
            resbound.parse(goal), [resbound.parse(a) for a in report["admitted"]], budget, cost, cap
        )
        if verdict != (goal in report["theorems"]):
            first["problems"][index] = first["problems"][index] + [f"{goal}: engine and oracle disagree"]


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "resbound" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: no resbound source tree under {ROOT}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    processes = PLANS[args.workload](args.seed, work)
    names = [process.name for process in processes]
    # compile the package once so no timed process pays for writing bytecode
    subprocess.run([sys.executable, "-c", "import resbound.cli"], cwd=str(SRC), check=True)

    trace = bool(args.trace)
    rounds = []
    started = time.monotonic()
    while True:
        rounds.append(run_round(processes, work / f"r{len(rounds)}", trace))
        elapsed = time.monotonic() - started
        # start another round only if it should end within the run's time
        if elapsed + elapsed / len(rounds) > min(args.seconds, RUN_LIMIT_S):
            break

    judge(processes, rounds, work)
    if args.workload == "random-soundness":
        oracle_agreement(rounds[0], work, args.seed)
    failed = 0
    for i, r in enumerate(rounds):
        for name, problems in zip(names, r["problems"]):
            if problems:
                failed += 1
                print(f"FAILED round {i} {name}: {'; '.join(problems[:5])}", file=sys.stderr)

    if trace:
        for r in rounds:
            r["layers"]["trace.wall_s"] = sum(v for v in r["op_s"] if v is not None)
        metrics = {
            key: {
                "value": median([r["layers"].get(key, 0) for r in rounds]),
                "unit": "s" if key.endswith(("_s", ".s")) else "count",
            }
            for key in LAYER_METRICS
        }
    else:
        op_s = medians(rounds, "op_s")
        metrics = {
            "wall_s": {"value": sum(op_s), "unit": "s"},
            "setup_s": {"value": sum(medians(rounds, "setup_s")), "unit": "s"},
            "slowest_op_s": {"value": max(op_s), "unit": "s"},
            "peak_rss_mb": {"value": max(r["rss_mb"] for r in rounds), "unit": "MB"},
        }
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s)", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": len(names) * len(rounds), "failed": failed}
    print(json.dumps(dict(result, metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

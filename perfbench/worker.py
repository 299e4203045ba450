"""One benchmark process: set up, run its one operation, write what it saw.

    python3 perfbench/worker.py <job.json> <result.json>

Set-up is importing ``resbound`` plus loading or building the inputs; the
operation is timed apart from it.  The job names the engine's source tree, so
this file imports nothing of the engine until it runs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path


def _justification(just, theory_mod, render) -> str:
    """The text form `proofs.json` uses, so one checker reads both."""
    if isinstance(just, theory_mod.TheoryAxiom):
        return f"axiom[{just.axiom_index}]"
    if isinstance(just, theory_mod.SchemaInstance):
        bindings = ", ".join(f"{var}:={render(s)}" for var, s in just.bindings)
        return f"schema[{theory_mod.SCHEMAS[just.schema_index].name}] {bindings}"
    return f"mp({just.implication_step},{just.antecedent_step})"


def _proof_steps(proof, theory_mod, render) -> list:
    return [
        {
            "statement": render(step.statement),
            "justification": _justification(step.justification, theory_mod, render),
            "cost": step.cost.to_strings(),
        }
        for step in proof.steps
    ]


def run_cli(job: dict, started: float) -> dict:
    cli = importlib.import_module("resbound.cli")
    errors = importlib.import_module("resbound.errors")
    tracer = _maybe_trace(job)
    scn = cli.load(job["scenario"])
    setup = time.perf_counter() - started
    args = argparse.Namespace(
        scenario=job["scenario"],
        command=job["command"],
        out=job["out"],
        seed=job["seed"],
        max_steps=job["max_steps"],
        max_len=None,
    )
    t0 = time.perf_counter()
    try:
        code = cli.run_command(job["command"], scn, Path(job["out"]), args)
    except errors.ResboundError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        code = 3
    seconds = time.perf_counter() - t0
    result = {"setup_s": setup, "op_s": seconds, "exit_code": code}
    if tracer is not None:
        result["layers"] = tracer.summary()
    return result


def run_soundness(job: dict, started: float) -> dict:
    rb = importlib.import_module("resbound")
    theory_mod = importlib.import_module("resbound.theory")
    world_mod = importlib.import_module("resbound.world")
    tracer = _maybe_trace(job)
    alphabet = rb.Alphabet.from_string(job["alphabet"])
    cost = rb.CostParameters.uniform(4, delta=1, delta_e=0)
    budget = rb.ResourceVector.from_strings(job["budget"])
    spec = job["theory"]
    procedures, purposes = {}, {}
    for name in spec["truths"]:
        pid = f"p{name}"
        procedures[pid] = rb.Procedure(
            pid,
            frozenset(),
            rb.Expression("", alphabet),
            rb.vec(1, 1, 1, 1),
            rb.DetermineTruth(name),
            world_mod.truth_output(name),
        )
        purposes[pid] = rb.DetermineTruth(name)
    world = rb.World(1, alphabet, {}, procedures, dict(spec["truths"]), purposes)
    candidates = tuple(rb.AxiomCandidate(rb.parse(t)) for t in spec["axioms"])
    setup = time.perf_counter() - started
    t0 = time.perf_counter()
    theory = theory_mod.build_theory(budget, candidates, world, cost)
    report = theory_mod.soundness_check(theory, job["size_bound"], job["max_steps"])
    result = {"setup_s": setup, "op_s": time.perf_counter() - t0, "exit_code": 0}
    if tracer is not None:
        # before the proofs below are fetched again from the prover's cache
        result["layers"] = tracer.summary()
    result["report"] = {
        "admitted": [rb.render(a.statement) for a in theory.axioms.admitted],
        "theorems": [rb.render(s) for s in report.theorems],
        "violations": [rb.render(s) for s in report.violations],
        "proofs": {
            rb.render(s): _proof_steps(theory_mod.prove(theory, s, job["max_steps"]), theory_mod, rb.render)
            for s in report.theorems
        },
    }
    return result


def _maybe_trace(job: dict):
    if not job.get("trace"):
        return None
    import tracing

    return tracing.install()


def main() -> int:
    started = time.perf_counter()
    job = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, job["src"])
    runner = run_cli if job["kind"] == "cli" else run_soundness
    result = runner(job, started)
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: one scenario file in, deterministic data files out.

    resbound --scenario fixtures/standard.scn --command prove --out out/

Commands: cost, domain, prove, lattice, observe, reflect, check.  Outputs are
CSV for tabular data (paths, lattices, costs) and sorted-key JSON for
structured reports (proofs, chains, checks); identical inputs produce
bit-identical outputs.  The statement grammar accepted everywhere is
documented in the statements module: atoms are [A-Za-z0-9_]+, negation is
!S, and binary forms are (S & T), (S | T), (S -> T) with parentheses
required.  --seed only affects the randomized spot checks run by ``check``.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import observer as obs
from . import reflection as refl
from .errors import ResboundError, ScenarioError
from .expressions import Expression, expression_cost, max_length
from .lattice import check_extension_monotonicity, extension_edges, first_appearance_theorem
from .resources import ResourceVector, pareto_min
from .scenario import Scenario, load
from .statements import (
    domain_diagnostic,
    min_cost,
    non_closure_witness,
    render,
    rendered_length,
    statement_sort_key,
)
from .theory import (
    ModusPonens,
    SCHEMAS,
    SchemaInstance,
    TheoryAxiom,
    check_proof,
    prove,
    soundness_check,
)

COMMANDS = ("cost", "domain", "prove", "lattice", "observe", "reflect", "check")


def _vec_str(v: ResourceVector) -> str:
    return ";".join(v.to_strings())


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with path.open("w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _analysis_targets(scn: Scenario):
    axioms = (c.statement for c in scn.axiom_candidates)
    return sorted({*scn.statements, *axioms, *scn.prove_targets}, key=statement_sort_key)


def cmd_cost(scn: Scenario, out: Path, args) -> int:
    targets = _analysis_targets(scn)
    n = 2 * scn.dimension + 2
    comp_cols = [f"r{i + 1}" for i in range(n)]
    rows = []
    for s in targets:
        expr = Expression(render(s), scn.world.alphabet)
        cost = expression_cost(expr, 0, scn.cost_model)
        rows.append([render(s), str(rendered_length(s))] + cost.to_strings())
    _write_csv(out / "expression_costs.csv", ["statement", "length"] + comp_cols, rows)

    v_rows = []
    for s in targets:
        try:
            frontier = min_cost(s, scn.world).frontier
        except ResboundError:
            continue
        for i, point in enumerate(frontier):
            v_rows.append([render(s), str(i)] + point.to_strings())
    _write_csv(
        out / "verification_costs.csv", ["statement", "frontier_index"] + comp_cols, v_rows
    )
    _write_json(
        out / "cost_summary.json",
        {
            "budget": scn.budget.to_strings(),
            "language_bound": max_length(scn.budget, scn.cost_model),
        },
    )
    return 0


def _witness_payload(scn: Scenario) -> Optional[dict]:
    witness = non_closure_witness(scn.domain_budget, scn.world)
    return None if witness is None else {"s": render(witness[0]), "t": render(witness[1])}


def _rejected_payload(theory) -> list[dict]:
    return [{"statement": render(r.statement), "reason": r.reason} for r in theory.axioms.rejected]


def cmd_domain(scn: Scenario, out: Path, args) -> int:
    budget = scn.domain_budget
    memberships = []
    for s in _analysis_targets(scn):
        reason = domain_diagnostic(s, budget, scn.world)
        entry = {"statement": render(s), "in_domain": reason is None}
        if reason is not None:
            entry["reason"] = reason
        memberships.append(entry)
    payload = {
        "budget": budget.to_strings(),
        "memberships": memberships,
        "non_closure_witness": _witness_payload(scn),
    }
    _write_json(out / "domain.json", payload)
    return 0


def _justification_text(just) -> str:
    if isinstance(just, TheoryAxiom):
        return f"axiom[{just.axiom_index}]"
    if isinstance(just, SchemaInstance):
        bindings = ", ".join(f"{var}:={render(s)}" for var, s in just.bindings)
        return f"schema[{SCHEMAS[just.schema_index].name}] {bindings}"
    if isinstance(just, ModusPonens):
        return f"mp({just.implication_step},{just.antecedent_step})"
    return repr(just)


def _proof_payload(theory, s) -> dict:
    entry: dict = {"statement": render(s)}
    try:
        proof = prove(theory, s)
    except ResboundError as exc:
        entry.update({"found": False, "reason": exc.code})
        return entry
    if proof is None:
        entry.update({"found": False, "reason": "no-proof-within-budget"})
        return entry
    steps = []
    cumulative = ResourceVector.zeros(len(theory.budget.components))
    for st in proof.steps:
        cumulative = cumulative.add(st.cost)
        steps.append(
            {
                "statement": render(st.statement),
                "justification": _justification_text(st.justification),
                "cost": st.cost.to_strings(),
                "cumulative": cumulative.to_strings(),
            }
        )
    entry.update({"found": True, "steps": steps, "total_cost": proof.cost.to_strings()})
    return entry


def cmd_prove(scn: Scenario, out: Path, args) -> int:
    theory = scn.base_theory(args.max_steps)
    payload = {
        "budget": scn.budget.to_strings(),
        "axioms_admitted": [render(a.statement) for a in theory.axioms.admitted],
        "axioms_rejected": _rejected_payload(theory),
        "proofs": [_proof_payload(theory, s) for s in scn.prove_targets],
    }
    _write_json(out / "proofs.json", payload)
    return 0


def cmd_lattice(scn: Scenario, out: Path, args) -> int:
    grid = scn.theory_grid(args.max_steps)
    size_bound = args.max_len or scn.search.size_bound
    edges = extension_edges(grid)
    _write_csv(
        out / "lattice_edges.csv",
        ["tail", "head"],
        [[_vec_str(a), _vec_str(b)] for a, b in edges],
    )
    report = check_extension_monotonicity(grid, size_bound, args.max_steps)
    rows = []
    for p in grid.points:
        theory = grid.theory_at(p)
        rows.append(
            [
                _vec_str(p),
                str(theory.length_cap()),
                str(len(theory.axioms.admitted)),
                str(len(report.theorems[p])),
            ]
        )
    _write_csv(
        out / "lattice_points.csv",
        ["point", "language_bound", "axioms_admitted", "theorem_count"],
        rows,
    )
    appearance = []
    for s in _analysis_targets(scn):
        fa = first_appearance_theorem(s, grid, args.max_steps)
        appearance.append(
            {
                "statement": render(s),
                "theorem_points": [p.to_strings() for p in fa.theorem_points],
                "expressible_points": [p.to_strings() for p in fa.expressible_points],
            }
        )
    _write_json(
        out / "lattice.json",
        {
            "points": len(grid.points),
            "edges": len(edges),
            "monotonicity_violations": len(report.violations),
            "first_appearance": appearance,
        },
    )
    return 0 if report.ok else 1


def cmd_observe(scn: Scenario, out: Path, args) -> int:
    n = 2 * scn.dimension + 2
    comp_cols = [f"d{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(n)]
    summary = []
    for script in scn.observers:
        trace, state = obs.run(script, scn.world)
        rows = [
            [str(rec.t), rec.action]
            + rec.delta.to_strings()
            + rec.cumulative.to_strings()
            + [rec.outcome]
            for rec in trace.records
        ]
        _write_csv(
            out / f"trace_{script.name}.csv",
            ["t", "action"] + comp_cols + ["outcome"],
            rows,
        )
        entry = {
            "script": script.name,
            "final_spent": state.spent.to_strings(),
            "knowledge_size": len(state.knowledge),
        }
        if state.knowledge:
            entry["knowledge_statement"] = render(obs.knowledge_statement(state))
        if scn.grid:
            entry["lattice_location"] = [
                p.to_strings() for p in obs.locate_in_lattice(state, scn.grid)
            ]
        summary.append(entry)
    _write_json(out / "observer.json", {"scripts": summary})
    return 0


def cmd_reflect(scn: Scenario, out: Path, args) -> int:
    if scn.reflection is None:
        _write_json(out / "reflect.json", {"stages": [], "marker": "NoReflectionConfigured"})
        return 0
    theory = scn.base_theory(args.max_steps)
    chain = refl.reflection_chain(
        theory, scn.reflection.target, scn.reflection.stages, scn.reflection.budget_step
    )
    stages = []
    for report in chain.stages:
        step = report.step
        stages.append(
            {
                "stage": report.stage,
                "budget_label": step.budget_label,
                "base_budget": step.base_budget.to_strings(),
                "extended_budget": step.extended_budget.to_strings(),
                "target": render(step.target),
                "thm_atom": step.thm_atom_id,
                "val_axiom": render(step.val_axiom),
                "target_was_theorem_in_base": step.target_was_theorem,
                "base_proof_cost": None
                if step.base_proof_cost is None
                else step.base_proof_cost.to_strings(),
                "target_proved": report.target_proved_in_stage,
                "thm_atom_proved": report.thm_atom_proved,
                "val_proved": report.val_proved,
                "ablation": {
                    "full_proves_target": report.ablation.full_proves_target,
                    "reflection_axioms_alone_prove_target": report.ablation.reflection_axioms_alone_prove_target,
                    "without_val_proves_target": report.ablation.without_val_proves_target,
                    "logic_alone_proves_val": report.ablation.logic_alone_proves_val,
                },
                "admitted_axioms": [render(a.statement) for a in step.theory.axioms.admitted],
            }
        )
    _write_json(out / "reflect.json", {"stages": stages, "marker": chain.marker})
    return 0


def _random_vector(rng: random.Random, n: int) -> ResourceVector:
    return ResourceVector(
        tuple(Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(n))
    )


def _spot_check_order_laws(rng: random.Random, n: int, samples: int) -> int:
    violations = 0
    for _ in range(samples):
        a, b, c = (_random_vector(rng, n) for _ in range(3))
        if not a.leq(a):
            violations += 1
        if a.leq(b) and b.leq(a) and a != b:
            violations += 1
        if a.leq(b) and b.leq(c) and not a.leq(c):
            violations += 1
        if a.join(a.meet(b)) != a or a.meet(a.join(b)) != a:
            violations += 1
        if not (a.meet(b).leq(a) and a.leq(a.join(b))):
            violations += 1
        frontier = pareto_min({a, b, c})
        for x in frontier:
            for y in frontier:
                if x != y and x.leq(y):
                    violations += 1
    return violations


def cmd_check(scn: Scenario, out: Path, args) -> int:
    rng = random.Random(args.seed)
    n = 2 * scn.dimension + 2
    report: dict = {"seed": args.seed}
    failures = 0

    theory = scn.base_theory(args.max_steps)
    size_bound = args.max_len or scn.search.size_bound
    sound = soundness_check(theory, size_bound, args.max_steps)
    report["soundness"] = {
        "theorems_checked": sound.checked,
        "violations": [render(s) for s in sound.violations],
        "rejected_axioms": _rejected_payload(theory),
    }
    failures += len(sound.violations)

    if scn.grid:
        grid = scn.theory_grid(args.max_steps)
        mono = check_extension_monotonicity(grid, size_bound, args.max_steps)
        report["lattice_monotonicity"] = {
            "edges_checked": mono.edges_checked,
            "violations": [
                {"tail": t.to_strings(), "head": h.to_strings(), "statement": render(s)}
                for t, h, s in mono.violations
            ],
        }
        failures += len(mono.violations)

    law_violations = _spot_check_order_laws(rng, n, 200)
    report["order_laws"] = {"samples": 200, "violations": law_violations}
    failures += law_violations

    accounting = []
    for script in scn.observers:
        trace, state = obs.run(script, scn.world)
        bad = 0
        previous = ResourceVector.zeros(n)
        total = ResourceVector.zeros(n)
        for rec in trace.records:
            if not previous.leq(rec.cumulative):
                bad += 1
            previous = rec.cumulative
            total = total.add(rec.delta)
        if total != state.spent:
            bad += 1
        accounting.append({"script": script.name, "violations": bad})
        failures += bad
    report["observer_accounting"] = accounting

    proof_problems = []
    for s in scn.prove_targets:
        try:
            proof = prove(theory, s)
        except ResboundError:
            continue
        if proof is not None:
            problems = check_proof(theory, proof)
            if problems:
                proof_problems.append({"statement": render(s), "problems": problems})
                failures += len(problems)
    report["proof_recheck"] = proof_problems

    report["non_closure_witness"] = _witness_payload(scn)

    report["ok"] = failures == 0
    _write_json(out / "check_report.json", report)
    return 0 if failures == 0 else 1


_HANDLERS = {
    "cost": cmd_cost,
    "domain": cmd_domain,
    "prove": cmd_prove,
    "lattice": cmd_lattice,
    "observe": cmd_observe,
    "reflect": cmd_reflect,
    "check": cmd_check,
}


def run_command(command: str, scn: Scenario, out_dir: Path, args) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    return _HANDLERS[command](scn, out_dir, args)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="resbound", description="Resource-bounded deduction engine"
    )
    parser.add_argument("--scenario", required=True, help="path to a .scn scenario file")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized spot checks")
    parser.add_argument(
        "--max-steps", type=_positive_int, default=None, help="proof step bound override"
    )
    parser.add_argument(
        "--max-len", type=_positive_int, default=None, help="statement size bound override"
    )
    args = parser.parse_args(argv)

    try:
        scn = load(args.scenario)
    except FileNotFoundError:
        print(f"error file-not-found: {args.scenario}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error file-unreadable: {args.scenario}: {exc.strerror}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(
            f"error file-unreadable: {args.scenario}: not UTF-8 at byte {exc.start}",
            file=sys.stderr,
        )
        return 2
    except ScenarioError as exc:
        for problem in exc.problems:
            print(f"error scenario-invalid: {problem}", file=sys.stderr)
        return 2

    try:
        return run_command(args.command, scn, Path(args.out), args)
    except OSError as exc:
        print(f"error out-unusable: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except ResboundError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

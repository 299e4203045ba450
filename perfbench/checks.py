"""Output checks that recompute everything apart from the engine.

Each function returns a list of problem strings; an empty list means the
output stands.  Nothing here imports ``resbound``: schemas come from their
textbook form, costs from the closed-form step cost, orderings from an exact
subset DP, domains from brute force over every covering strategy.
"""

from __future__ import annotations

import csv
import itertools
import re
from fractions import Fraction
from pathlib import Path

from formulas import entails, evaluate, parse, render

# The nine Hilbert schemas as printed in textbooks, metavariables ?a ?b ?c.
SCHEMAS = {
    "weakening": "(?a->(?b->?a))",
    "distribution": "((?a->(?b->?c))->((?a->?b)->(?a->?c)))",
    "contraposition": "((!?a->!?b)->(?b->?a))",
    "and-elim-left": "((?a&?b)->?a)",
    "and-elim-right": "((?a&?b)->?b)",
    "and-intro": "(?a->(?b->(?a&?b)))",
    "or-intro-left": "(?a->(?a|?b))",
    "or-intro-right": "(?b->(?a|?b))",
    "or-elim": "((?a->?c)->((?b->?c)->((?a|?b)->?c)))",
}
_TEMPLATES = {name: parse(text) for name, text in SCHEMAS.items()}

_AXIOM = re.compile(r"axiom\[(\d+)\]\Z")
_MP = re.compile(r"mp\((\d+),(\d+)\)\Z")
_SCHEMA = re.compile(r"schema\[([a-z-]+)\] (.*)\Z")


class CostModel:
    """Closed-form prices: 2*len*delta_i + base_i + slope_i*len, plus
    (k-1-pos)*len*delta_e on the last (energy) component."""

    def __init__(self, delta, delta_e, base=None, slope=None):
        self.delta = [Fraction(x) for x in delta]
        n = len(self.delta)
        self.delta_e = Fraction(delta_e)
        self.base = [Fraction(x) for x in (base or ["0"] * n)]
        self.slope = [Fraction(x) for x in (slope or ["0"] * n)]

    @classmethod
    def from_scenario(cls, doc: dict) -> "CostModel":
        cm = doc.get("cost_model", {})
        n = 2 * doc.get("dimension", 1) + 2
        return cls(
            cm.get("delta", ["1"] * n),
            cm.get("delta_e", "0"),
            cm.get("overhead_base"),
            cm.get("overhead_slope"),
        )

    def step_cost(self, length: int, remaining: int) -> list:
        out = [
            2 * length * d + b + s * length
            for d, b, s in zip(self.delta, self.base, self.slope)
        ]
        out[-1] += remaining * length * self.delta_e
        return out

    def language_bound(self, budget):
        """N(r): the largest n with n*(delta_i + slope_i) + base_i (plus
        n*r_time*delta_e on energy) <= r_i for every bounded component."""
        r = [Fraction(x) for x in budget]
        time = r[(len(r) - 2) // 2]
        best = None
        for i in range(len(r)):
            per = self.delta[i] + self.slope[i]
            if i == len(r) - 1:
                per += time * self.delta_e
            slack = r[i] - self.base[i]
            if per == 0:
                n = None if slack >= 0 else 0
            else:
                n = 0 if slack < 0 else int(slack // per)
            if n is not None:
                best = n if best is None else min(best, n)
        return best


def leq(a, b) -> bool:
    return all(Fraction(x) <= Fraction(y) for x, y in zip(a, b))


def vec_add(a, b):
    return [Fraction(x) + Fraction(y) for x, y in zip(a, b)]


def fracs(values):
    return [Fraction(v) for v in values]


def _match(template: tuple, f: tuple, env: dict) -> bool:
    if template[0] == "atom" and template[1].startswith("?"):
        bound = env.setdefault(template[1], f)
        return bound == f
    if template[0] != f[0] or len(template) != len(f):
        return False
    if template[0] == "atom":
        return template[1] == f[1]
    return all(_match(t, x, env) for t, x in zip(template[1:], f[1:]))


def _schema_problem(name: str, binding_text: str, stmt: tuple):
    template = _TEMPLATES.get(name)
    if template is None:
        return f"unknown schema {name!r}"
    env: dict = {}
    if not _match(template, stmt, env):
        return f"{render(stmt)} is not an instance of {name}"
    reported = {}
    for part in binding_text.split(", "):
        var, _, text = part.partition(":=")
        reported[var] = parse(text)
    if reported != env:
        return f"bindings {binding_text!r} do not give {render(stmt)}"
    return None


def cheapest_maintenance(lengths: list, deps: list) -> int:
    """Exact minimum of sum(len_j * (k-1-pos_j)) over orderings that put every
    step after the steps it cites and the last step last (subset DP)."""
    k = len(lengths)
    rest = k - 1
    full = (1 << rest) - 1
    need = [sum(1 << d for d in deps[j] if d < rest) for j in range(rest)]
    inf = float("inf")
    best = [inf] * (1 << rest)
    best[0] = 0
    for mask in range(1 << rest):
        here = best[mask]
        if here == inf:
            continue
        pos = bin(mask).count("1")
        for j in range(rest):
            bit = 1 << j
            if mask & bit or need[j] & ~mask:
                continue
            value = here + lengths[j] * (k - 1 - pos)
            if value < best[mask | bit]:
                best[mask | bit] = value
    return best[full]


def check_proof(
    steps: list,
    goal: str,
    axioms: list,
    model: CostModel,
    budget,
    cap,
    max_steps: int,
    total_cost=None,
) -> list:
    """``steps`` are dicts with ``statement``, ``justification`` (CLI text form)
    and ``cost``; ``axioms`` the admitted axiom texts in index order."""
    problems = []
    k = len(steps)
    if k == 0 or k > max_steps:
        problems.append(f"{k} steps against a bound of {max_steps}")
    if k == 0:
        return problems
    if steps[-1]["statement"] != goal:
        problems.append(f"proof ends in {steps[-1]['statement']}, not {goal}")
    parsed = [parse(s["statement"]) for s in steps]
    lengths = [len(s["statement"]) for s in steps]
    deps: list = []
    total = [Fraction(0)] * len(budget)
    for pos, (step, stmt) in enumerate(zip(steps, parsed)):
        where = f"step {pos} ({step['statement']})"
        if render(stmt) != step["statement"]:
            problems.append(f"{where}: not in canonical form")
        if cap is not None and lengths[pos] > cap:
            problems.append(f"{where}: longer than N(r)={cap}")
        just = step["justification"]
        cited: list = []
        if m := _AXIOM.match(just):
            i = int(m.group(1))
            if i >= len(axioms) or parse(axioms[i]) != stmt:
                problems.append(f"{where}: is not admitted axiom {i}")
        elif m := _MP.match(just):
            i, j = int(m.group(1)), int(m.group(2))
            cited = [i, j]
            if not (i < pos and j < pos):
                problems.append(f"{where}: cites a later step")
            elif parsed[i] != ("->", parsed[j], stmt):
                problems.append(f"{where}: steps {i},{j} do not fit modus ponens")
        elif m := _SCHEMA.match(just):
            bad = _schema_problem(m.group(1), m.group(2), stmt)
            if bad:
                problems.append(f"{where}: {bad}")
        else:
            problems.append(f"{where}: unknown justification {just!r}")
        deps.append(cited)
        expected = model.step_cost(lengths[pos], k - 1 - pos)
        if fracs(step["cost"]) != expected:
            problems.append(f"{where}: cost {step['cost']} but closed form gives {expected}")
        total = vec_add(total, expected)
        if "cumulative" in step and fracs(step["cumulative"]) != total:
            problems.append(f"{where}: cumulative cost does not sum the steps")
    if len(set(parsed)) != k:
        problems.append("a statement appears twice")
    if total_cost is not None and fracs(total_cost) != total:
        problems.append("total cost does not sum the steps")
    if not leq(total, budget):
        problems.append("proof cost exceeds the budget")
    if model.delta_e and not problems:
        used = sum(lengths[p] * (k - 1 - p) for p in range(k))
        best = cheapest_maintenance(lengths, deps)
        if used != best:
            problems.append(f"ordering pays maintenance {used}, cheapest is {best}")
    return problems


# --- lattices ------------------------------------------------------------------


def grid_edges(points: list) -> list:
    """Transitive reduction of the strict componentwise order."""
    pts = sorted({tuple(fracs(p)) for p in points})

    def below(a, b):
        return a != b and all(x <= y for x, y in zip(a, b))

    edges = []
    for a in pts:
        for b in pts:
            if below(a, b) and not any(below(a, m) and below(m, b) for m in pts):
                edges.append((a, b))
    return sorted(edges)


def _point(text: str) -> tuple:
    return tuple(Fraction(x) for x in text.split(";"))


def read_csv(path: Path) -> list:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_lattice(doc: dict, out: Path) -> list:
    problems = []
    model = CostModel.from_scenario(doc)
    points = read_csv(out / "lattice_points.csv")
    edges = read_csv(out / "lattice_edges.csv")
    want = grid_edges(doc.get("grid", []))
    got = sorted((_point(e["tail"]), _point(e["head"])) for e in edges)
    if got != want:
        problems.append(f"lattice_edges.csv has {len(got)} edges, the Hasse diagram {len(want)}")
    counts = {}
    for row in points:
        p = _point(row["point"])
        counts[p] = int(row["theorem_count"])
        bound = model.language_bound(list(p))
        if row["language_bound"] != str(bound):
            problems.append(f"point {row['point']}: N(r) {row['language_bound']}, closed form {bound}")
    if sorted(counts) != sorted({tuple(fracs(p)) for p in doc.get("grid", [])}):
        problems.append("lattice_points.csv does not list the grid")
    for a, b in want:
        if counts.get(a, 0) > counts.get(b, 0):
            problems.append(f"theorem count falls along edge {a} -> {b}")
    return problems


# --- domains ------------------------------------------------------------------


class DomainModel:
    """Brute-force statement costing: every choice of decider per atom, each
    distinct piece of equipment charged once."""

    def __init__(self, doc: dict):
        world = doc.get("world", {})
        n = 2 * doc.get("dimension", 1) + 2
        self.n = n
        self.equipment = {
            e["id"]: fracs(e.get("construction_cost", ["0"] * n))
            for e in world.get("equipment", [])
        }
        self.deciders: dict = {}
        purposes = world.get("true_purposes", {})
        for p in world.get("procedures", []):
            purpose = purposes.get(p["id"], {})
            if purpose.get("kind") == "determine_truth":
                self.deciders.setdefault(purpose["statement"], []).append(
                    (p["id"], fracs(p.get("implementation_cost", ["0"] * n)), sorted(set(p.get("equipment", []))))
                )
        for atom in world.get("direct_atoms", []):
            self.deciders.setdefault(atom, []).append((f"direct_{atom}", [Fraction(0)] * n, []))
        for claim in world.get("string_claims", []):
            self.deciders.setdefault(claim["atom"], []).append(
                (f"eval_{claim['atom']}", fracs(claim.get("cost", ["0"] * n)), [])
            )
        self._frontiers: dict = {}
        claims = {c["atom"] for c in world.get("string_claims", [])}
        self.atoms = sorted(set(world.get("ground_truth", {})) | claims)

    def strategy_cost(self, choice) -> tuple:
        total = [Fraction(0)] * self.n
        built: set = set()
        for _, impl, equipment in choice:
            total = vec_add(total, impl)
            for eq in equipment:
                if eq not in built:
                    built.add(eq)
                    total = vec_add(total, self.equipment[eq])
        return tuple(total)

    def frontier(self, f: tuple):
        """Sorted Pareto frontier of strategy costs, or None without a strategy."""
        needed = tuple(sorted(_atom_names(f)))
        if needed not in self._frontiers:
            options = [self.deciders.get(a, []) for a in needed]
            front = None
            if all(options):
                front = []
                # in lexicographic order a cost can only be dominated by an
                # earlier one, and then by a frontier member
                for c in sorted({self.strategy_cost(ch) for ch in itertools.product(*options)}):
                    if not any(leq(d, c) for d in front):
                        front.append(c)
            self._frontiers[needed] = front
        return self._frontiers[needed]

    def in_domain(self, f: tuple, budget) -> bool:
        front = self.frontier(f)
        return front is not None and any(leq(p, budget) for p in front)


def _atom_names(f: tuple) -> set:
    if f[0] == "atom":
        return {f[1]}
    return set().union(*(_atom_names(x) for x in f[1:]))


def analysis_targets(doc: dict) -> list:
    texts = list(doc.get("statements", [])) + [a["statement"] for a in doc.get("axioms", [])]
    texts += list(doc.get("prove", []))
    seen = []
    for t in texts:
        r = render(parse(t))
        if r not in seen:
            seen.append(r)
    return sorted(seen, key=lambda r: (len(r), r))


def check_cost(doc: dict, out: Path, model: DomainModel) -> list:
    problems = []
    rows = read_csv(out / "verification_costs.csv")
    got: dict = {}
    for row in rows:
        comps = [Fraction(v) for k, v in row.items() if k.startswith("r")]
        got.setdefault(row["statement"], []).append(tuple(comps))
    for text in analysis_targets(doc):
        front = model.frontier(parse(text))
        if (front or None) != got.get(text):
            problems.append(f"{text}: frontier {got.get(text)} but brute force gives {front}")
    costs = CostModel.from_scenario(doc)
    for row in read_csv(out / "expression_costs.csv"):
        expected = costs.step_cost(len(row["statement"]), 0)
        if [Fraction(v) for k, v in row.items() if k.startswith("r")] != expected:
            problems.append(f"{row['statement']}: expression cost differs from the closed form")
    return problems


def check_domain(doc: dict, report: dict, model: DomainModel) -> list:
    problems = []
    budget = fracs(doc.get("domain_budget", doc["budget"]))
    entries = {e["statement"]: e for e in report["memberships"]}
    for text in analysis_targets(doc):
        expected = model.in_domain(parse(text), budget)
        got = entries.get(text, {}).get("in_domain")
        if got is not expected:
            problems.append(f"{text}: in_domain {got}, brute force {expected}")
    witness = None
    for a, b in itertools.combinations(model.atoms, 2):
        fa = model.in_domain(("atom", a), budget)
        fb = model.in_domain(("atom", b), budget)
        if fa and fb and not model.in_domain(("&", ("atom", a), ("atom", b)), budget):
            witness = {"s": a, "t": b}
            break
    if report["non_closure_witness"] != witness:
        problems.append(f"non-closure witness {report['non_closure_witness']}, brute force {witness}")
    return problems


def check_observer(doc: dict, out: Path, summary: dict) -> list:
    problems = []
    n = 2 * doc.get("dimension", 1) + 2
    by_name = {s["script"]: s for s in summary["scripts"]}
    truth = doc.get("world", {}).get("ground_truth", {})
    for script in doc.get("observers", []):
        name = script["name"]
        rows = read_csv(out / f"trace_{name}.csv")
        previous = [Fraction(0)] * n
        total = [Fraction(0)] * n
        cap = fracs(script["cap"]) if script.get("cap") is not None else None
        if len(rows) != len(script.get("actions", [])):
            problems.append(f"{name}: {len(rows)} trace rows for {len(script['actions'])} actions")
        for row in rows:
            delta = [Fraction(row[f"d{i + 1}"]) for i in range(n)]
            cumulative = [Fraction(row[f"p{i + 1}"]) for i in range(n)]
            total = vec_add(total, delta)
            if not leq(previous, cumulative):
                problems.append(f"{name} t={row['t']}: spend decreased")
            if total != cumulative:
                problems.append(f"{name} t={row['t']}: deltas do not sum to the spend")
            if cap is not None and not leq(cumulative, cap):
                problems.append(f"{name} t={row['t']}: spend exceeds the cap")
            if row["outcome"] == "refused" and any(delta):
                problems.append(f"{name} t={row['t']}: a refused action spent resources")
            previous = cumulative
            action = row["action"]
            if action.startswith("verify ") and row["outcome"] in ("True", "False"):
                f = parse(action[len("verify "):])
                if _atom_names(f) <= set(truth) and str(evaluate(f, truth)) != row["outcome"]:
                    problems.append(f"{name} t={row['t']}: verdict {row['outcome']} is wrong")
        entry = by_name.get(name)
        if entry is None or fracs(entry["final_spent"]) != total:
            problems.append(f"{name}: final_spent does not match the trace")
    return problems


# --- reflection -----------------------------------------------------------------


def godel_code(text: str, alphabet: str) -> str:
    width = len(str(len(alphabet) - 1))
    return "".join(str(alphabet.index(ch)).zfill(width) for ch in text)


def check_reflect(doc: dict, report: dict) -> list:
    config = doc.get("reflection")
    if not config:
        ok = report == {"stages": [], "marker": "NoReflectionConfigured"}
        return [] if ok else ["reflect.json without a reflection block is not the empty report"]
    problems = []
    alphabet = doc["alphabet"]
    target = render(parse(config["target"]))
    budget = fracs(doc["budget"])
    step = fracs(config["budget_step"])
    if len(report["stages"]) != config.get("stages", 1) or report["marker"] != "NonTerminating":
        problems.append("reflection chain length or marker is wrong")
    for stage in report["stages"]:
        label = f"Tr{stage['stage'] - 1}"
        atom = f"Thm_{label}_{godel_code(target, alphabet)}"
        extended = vec_add(budget, step)
        if stage["budget_label"] != label or stage["target"] != target:
            problems.append(f"stage {stage['stage']}: label or target is wrong")
        if stage["thm_atom"] != atom:
            problems.append(f"stage {stage['stage']}: atom {stage['thm_atom']}, expected {atom}")
        if stage["val_axiom"] != f"({atom}->{target})":
            problems.append(f"stage {stage['stage']}: validity axiom is {stage['val_axiom']}")
        if fracs(stage["base_budget"]) != budget or fracs(stage["extended_budget"]) != extended:
            problems.append(f"stage {stage['stage']}: budgets do not climb by the step")
        if stage["target_was_theorem_in_base"] != (stage["base_proof_cost"] is not None):
            problems.append(f"stage {stage['stage']}: proof cost disagrees with the verdict")
        budget, target = extended, stage["val_axiom"]
    return problems


# --- theories -------------------------------------------------------------------


def admitted_axioms(doc: dict, budget, model: DomainModel) -> list:
    """Candidates that fit N(r), are decidable within r and, when verified,
    are true in the world."""
    cap = CostModel.from_scenario(doc).language_bound(budget)
    truth = doc.get("world", {}).get("ground_truth", {})
    out = []
    for ax in doc.get("axioms", []):
        f = parse(ax["statement"])
        text = render(f)
        if cap is not None and len(text) > cap or not model.in_domain(f, fracs(budget)):
            continue
        if ax.get("justification", "verified") == "verified" and not evaluate(f, truth):
            continue
        out.append(text)
    return out


def check_theorems(theorems: list, axioms: list, truth: dict) -> list:
    """Every theorem must be entailed by the axioms, and true in the world
    when the axioms are (a false postulate makes an unsound theory)."""
    problems = []
    premises = [parse(a) for a in axioms]
    known = set(truth)
    sound = all(not _atom_names(p) <= known or evaluate(p, truth) for p in premises)
    for text in theorems:
        f = parse(text)
        if not entails(premises, f):
            problems.append(f"{text} is proved but not entailed by the axioms")
        if sound and _atom_names(f) <= known and not evaluate(f, truth):
            problems.append(f"{text} is proved but false in the world")
    return problems

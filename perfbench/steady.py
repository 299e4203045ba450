"""Steadiness check: two sets of runs of the same commit must agree.

    python3 perfbench/steady.py                      # 10 runs per set, all workloads
    python3 perfbench/steady.py --runs 5 --workloads random-soundness
    python3 perfbench/steady.py --trace              # also one traced run per workload

Run from the root of a checkout.  Each run gets its own seed.  Per workload
and end-to-end metric the report gives each set's median and quartiles, the
spread (interquartile distance over the median) and whether the sets agree:
every spread within the metric's bound, the two medians apart by no more than
the bound (relative to the first), and the same share of failed operations.
Set one uses seeds 1000, 1001, ..., set two 1100, 1101, ...  With ``--trace``
it adds the tracing overhead: three untraced and three traced runs of seed
1000, alternating, and the median traced ``trace.wall_s`` minus the median
untraced ``wall_s``.  The full report, with every value, is written to
``.perfbench/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 1000


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    report: dict = {}
    agree = True
    for workload in names:
        # the two sets alternate, so slow drift of the machine hits both alike
        sets: list = [[], []]
        for i in range(args.runs):
            for s in range(2):
                sets[s].append(run(spec, workload, FIRST_SEED + 100 * s + i, 0))
        entry: dict = {"failed_share": [], "metrics": {}}
        for results in sets:
            attempted = sum(r["attempted"] for r in results)
            entry["failed_share"].append(sum(r["failed"] for r in results) / attempted)
        ok_failed = entry["failed_share"][0] == entry["failed_share"][1]
        agree &= ok_failed
        print(f"{workload}: failed share {entry['failed_share']} {'ok' if ok_failed else 'DIFFERS'}")
        for name, meta in bounds.items():
            a, b = (summarize([r["metrics"][name]["value"] for r in results]) for results in sets)
            bound = meta["bound"]
            apart = abs(b["median"] - a["median"]) / a["median"]
            ok = apart <= bound and max(a["spread"], b["spread"]) <= bound
            agree &= ok
            values = [[r["metrics"][name]["value"] for r in results] for results in sets]
            both = summarize(values[0] + values[1])
            entry["metrics"][name] = {
                "set1": a, "set2": b, "all": both, "bound": bound, "agree": ok, "values": values,
            }
            print(
                f"  {name:14s} median {a['median']:.4g} / {b['median']:.4g}"
                f"  quartiles [{a['q1']:.4g}, {a['q3']:.4g}] / [{b['q1']:.4g}, {b['q3']:.4g}]"
                f"  spread {a['spread']:.3f} / {b['spread']:.3f} (all {both['spread']:.3f})  bound {bound}"
                f"  {'ok' if ok else 'DISAGREE'}"
            )
        if args.trace:
            pairs = [
                (run(spec, workload, FIRST_SEED, 0)["metrics"]["wall_s"]["value"],
                 run(spec, workload, FIRST_SEED, 1)["metrics"]["trace.wall_s"]["value"])
                for _ in range(3)
            ]
            untraced = statistics.median(p[0] for p in pairs)
            traced = statistics.median(p[1] for p in pairs)
            entry["trace_overhead_s"] = traced - untraced
            entry["trace_pairs"] = pairs
            print(f"  tracing overhead {traced - untraced:.3f} s on {untraced:.3f} s")
        report[workload] = entry
    out = ROOT / ".perfbench" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2))
    print("sets agree" if agree else "sets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())

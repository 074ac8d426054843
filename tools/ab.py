"""Alternating-pair comparison of two checkouts on one bench workload.

    python tools/ab.py PARENT_ROOT CHANGE_ROOT --workload W [--seed N] [--pairs 10] [--seconds 30]

Each ROOT is a checkout of this repository.  The script runs each root's
own `bench/run.py --workload W --seed N --seconds S`, in a fresh process
from that root, PAIRS times each side: the parent first in odd pairs and
the change first in even ones, so that a drift in the host's speed falls
on both sides alike.  For each end-to-end metric that CHANGE_ROOT's
`BENCHMARK.json` declares, it prints each side's median and quartiles over
the runs, the change's median less the parent's, the parent's
interquartile spread, and the number of pairs the change won (a tie wins
nothing).  It lists every run that was not `correct`: a run that exited
with an error, printed no JSON line, or reported a failed check.  Stdlib
only; it changes nothing in either root.  Exit code 1 when a run was not
correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def bench(root: Path, workload: str, seed: int | None, seconds: float) -> tuple[dict | None, str]:
    """One `bench/run.py` run in `root`: its last JSON line (None if there is
    none) and, when the run was not correct, why."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, f"exit {proc.returncode}, no JSON line: {proc.stderr.strip()[-200:]}"
    if proc.returncode != 0 or not result.get("correct"):
        return result, f"exit {proc.returncode}, correct={result.get('correct')}, failed={result.get('failed')}"
    return result, ""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_ROOT")
    parser.add_argument("change", type=Path, metavar="CHANGE_ROOT")
    parser.add_argument("--workload", required=True, help="one workload, not all")
    parser.add_argument("--seed", type=int, help="default: the bench's own")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    values: dict[str, dict[str, list]] = {side: {m["name"]: [] for m in metrics} for side in roots}
    faults = []
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            result, fault = bench(roots[side], args.workload, args.seed, args.seconds)
            if fault:
                faults.append(f"pair {pair} {side}: {fault}")
            got = (result or {}).get("metrics", {})
            for m in metrics:
                entry = got.get(m["name"])
                values[side][m["name"]].append(None if entry is None else entry["value"])
        print(f"pair {pair}/{args.pairs} done ({' then '.join(order)})", file=sys.stderr, flush=True)

    print(f"workload {args.workload}  seed {args.seed if args.seed is not None else 'default'}  "
          f"pairs {args.pairs}  seconds {args.seconds:g}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(p, c) for p, c in zip(values["parent"][name], values["change"][name])
                 if p is not None and c is not None]
        if not pairs:
            print(f"  {name:14} no values")
            continue
        parent = quartiles([p for p, _ in pairs])
        change = quartiles([c for _, c in pairs])
        won = sum(1 for p, c in pairs if (c < p if lower else c > p))
        print(f"  {name:14} parent {parent[1]:.6g} [{parent[0]:.6g}, {parent[2]:.6g}]  "
              f"change {change[1]:.6g} [{change[0]:.6g}, {change[2]:.6g}]  {m['unit']}  "
              f"delta {change[1] - parent[1]:+.4g}  parent IQR {parent[2] - parent[0]:.4g}  "
              f"change won {won}/{len(pairs)} ({m['better']} is better)")
    for fault in faults:
        print(f"not correct: {fault}")
    print(f"{len(faults)} of {2 * args.pairs} runs not correct")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

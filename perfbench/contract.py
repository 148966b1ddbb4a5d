"""The benchmark's acceptance rules, and a command that applies them.

    python3 perfbench/contract.py --runs 10 [--workloads fig6-single ...]
        [--save sets.json] [--against sets.json]

Runs ``run.py`` ``--runs`` times per workload, with seeds 1 to ``--runs``,
and prints every end-to-end metric's median and spread: the distance
between the first and third quartiles of the runs as a share of their
median. A spread above the metric's bound in ``BENCHMARK.json`` is a
failure. With ``--against`` each median is also compared with the
median of a saved earlier set; a median worse than that one by more
than the bound is a regression. Exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"

def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(parent: Sequence[float], change: Sequence[float], better: str) -> float:
    """How much worse the change's median is than the parent's, as a
    share of the parent's median (negative when it is better)."""
    before = statistics.median(parent)
    after = statistics.median(change)
    if better == "higher":
        return (before - after) / before
    return (after - before) / before


def regressed(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> bool:
    return worsening(parent, change, better) > bound


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    command = json.loads(BENCHMARK.read_text(encoding="utf-8"))["command"]
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}{done.stderr}"
        )
    return json.loads(lines[-1])


def main() -> int:
    benchmark = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    earlier = json.loads(args.against.read_text()) if args.against else {}

    sets: Dict[str, Dict[str, List[float]]] = {}
    ok = True
    for workload in args.workloads:
        values: Dict[str, List[float]] = {}
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, benchmark["run_seconds"])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} failed cells")
                ok = False
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={entry['value']:.6g}" for name, entry in result["metrics"].items()
            ), flush=True)
        sets[workload] = values
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            series = values[name]
            line = (
                f"  {workload} {name}: median {statistics.median(series):.6g} "
                f"spread {spread(series):.4f} (bound {bound})"
            )
            if spread(series) > bound:
                line += " SPREAD TOO WIDE"
                ok = False
            before = earlier.get(workload, {}).get(name)
            if before:
                shift = worsening(before, series, metric["better"])
                line += f"; {shift:+.4f} worse than the earlier set"
                if shift > bound:
                    line += " REGRESSION"
                    ok = False
            print(line, flush=True)
    if args.save:
        args.save.write_text(json.dumps(sets, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

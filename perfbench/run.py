"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload fig6-single --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the workload's grid runs end to end, untraced, in
whole passes for ``--seconds`` (at least one pass), and the end-to-end
metrics are reported; ``refs_per_s`` comes from the fastest pass.
With ``--trace 1`` one untraced pass, one traced pass and the layer
ladder give the per-layer metrics (see ``layers.py``). Every cell's result is checked: at the default seed
against the committed digests, at any other seed against the
accounting invariants. The last line of standard output is the result
object; the exit code is 1 when a cell failed and 2 on a usage error or
a missing program.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"
WORK = HERE / ".work"

WORKLOADS = ("fig6-single", "fig7-multi", "policy-grid")

#: ``setup_s`` is the median of this many set-ups, each in a fresh
#: interpreter, so that the imports (most of a set-up) are timed as
#: often as the trace builds.
SETUP_REPEATS = 5

#: One set-up, timed from the child interpreter's first line: the
#: imports and the workload's set-up (trace generation, the Figure-7
#: sizing build, cell lists). Arguments: src, perfbench, workload,
#: seed, workdir.
SETUP_CHILD = """
import time
started = time.perf_counter()
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import grids
grids.SETUPS[sys.argv[3]](int(sys.argv[4]), Path(sys.argv[5]))
print(time.perf_counter() - started)
"""


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    run_seconds = json.loads(BENCHMARK.read_text(encoding="utf-8"))["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def stamp() -> Dict[str, object]:
    """Which code ran, and on what machine."""
    def git(*command: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", *command],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout if done.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    import numpy

    return {
        "git_rev": rev.strip() if rev else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any reaped child (the
    pool workers), in MiB (``ru_maxrss`` is KiB on Linux)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def setup_seconds(workload: str, seed: int, workdir: Path) -> float:
    """Median seconds of ``SETUP_REPEATS`` set-ups in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE),
             workload, str(seed), str(workdir)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def measure(grid, seconds: float, expected) -> Tuple[List[float], int, Dict[str, str]]:
    """Untraced passes of the whole grid for ``seconds`` (at least one
    pass; no pass starts that would end after ``seconds`` at the last
    pass's pace): each pass's seconds, cells attempted and failures by
    cell. Garbage is collected between passes, outside the timing, so
    every pass starts from the same heap."""
    import grids

    passes: List[float] = []
    attempted = 0
    failures: Dict[str, str] = {}
    started = time.perf_counter()
    while not passes or time.perf_counter() - started + passes[-1] <= seconds:
        gc.collect()
        done = grid.run()
        passes.append(done.seconds)
        attempted += len(grid.cell_ids)
        for cell_id, reason in grids.failed_cells(grid, done, expected).items():
            failures[f"pass{len(passes)}:{cell_id}"] = reason
    return passes, attempted, failures


def grid_seconds(passes: List[float]) -> float:
    """The grid's time: its fastest whole pass.

    Other tenants of the host only ever slow a pass down, in bursts of
    a second or more, so the fastest pass is the grid's time with the
    least interference. Every cost of the program, also one that comes
    and goes within a pass (a garbage collection, a burst of
    allocation), is inside each pass.
    """
    return min(passes)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'repro'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import grids

    expected = None
    if args.seed == grids.DEFAULT_SEED:
        expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[args.workload]
    else:
        print(
            f"digests skipped: seed {args.seed} is not the default "
            f"{grids.DEFAULT_SEED}; checking the accounting invariants instead"
        )

    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            import layers

            metrics, attempted, failures, spans = layers.traced_run(
                args.workload, args.seed, workdir, expected
            )
        else:
            grid = grids.SETUPS[args.workload](args.seed, workdir)
            passes, attempted, failures = measure(grid, args.seconds, expected)
            timed_s = grid_seconds(passes)
            print(
                f"{len(passes)} passes of {grid.refs} refs; pass seconds "
                + ", ".join(f"{seconds:.3f}" for seconds in passes)
                + f"; fastest {timed_s:.3f}"
            )
            # Read before the set-up children exist, so that only this
            # process and its pool workers count.
            rss_mb = peak_rss_mb()
            metrics = {
                "refs_per_s": {"value": grid.refs / timed_s, "unit": "refs/s"},
                "setup_s": {
                    "value": setup_seconds(args.workload, args.seed, workdir),
                    "unit": "s",
                },
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
            spans = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for cell_id, reason in sorted(failures.items()):
        print(f"FAILED {cell_id}: {reason}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "digests_checked": expected is not None,
        **stamp(),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: entry["value"] for name, entry in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    if spans is not None:
        spans.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print("record: " + json.dumps(record))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

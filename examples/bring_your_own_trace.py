"""End-to-end: bring your own trace file through the whole pipeline.

Writes a small demonstration trace to disk (stand-in for your real trace
dump), then: loads it, characterises it, classifies its access pattern,
and simulates the three Figure-6 schemes over it — the workflow for
evaluating ULC against *your* workload.

Trace format: one reference per line, either ``block`` or
``client block`` (both integers); ``#`` comments allowed. A compact
``.npz`` format is also supported (see ``repro.workloads.io``).

Run:  python examples/bring_your_own_trace.py [path/to/trace.txt]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import Engine, paper_three_level
from repro.hierarchy import IndependentScheme, ULCScheme, UnifiedLRUScheme
from repro.util.tables import format_table
from repro.workloads import classify_pattern, describe, load_text


def demo_trace_file() -> Path:
    """A stand-in trace: a database-style loop with hot index pages."""
    import random

    rng = random.Random(42)
    path = Path(tempfile.gettempdir()) / "ulc_demo_trace.txt"
    with open(path, "w") as handle:
        handle.write("# demo: table scan loop + hot index pages\n")
        step = 0
        for _ in range(30000):
            if rng.random() < 0.25:
                handle.write(f"{1000 + int(rng.paretovariate(1.2)) % 40}\n")
            else:
                handle.write(f"{step % 300}\n")
                step += 1
    return path


def main() -> None:
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else demo_trace_file()
    trace = load_text(path)

    stats = describe(trace)
    verdict = classify_pattern(trace)
    print(f"trace    : {path}")
    print(f"shape    : {stats.num_refs} refs over {stats.num_unique_blocks} "
          f"blocks, {stats.num_clients} client(s)")
    print(f"reuse    : {stats.reuse_fraction:.1%} of references, median "
          f"stack distance {stats.median_reuse_distance:.0f}")
    print(f"pattern  : {verdict.label}  "
          f"({', '.join(f'{k}={v:.2f}' for k, v in verdict.features.items())})")
    print()

    # Size the hierarchy off the measured working set: each of the three
    # levels gets ~1/6 of the distinct blocks.
    capacity = max(8, stats.num_unique_blocks // 6)
    costs = paper_three_level()
    rows = []
    for scheme in (
        IndependentScheme([capacity] * 3),
        UnifiedLRUScheme([capacity] * 3),
        ULCScheme([capacity] * 3),
    ):
        result = Engine(scheme, costs).drive(trace)
        rows.append(
            [
                result.scheme,
                result.total_hit_rate,
                sum(result.demotion_rates),
                result.t_ave_ms,
            ]
        )
    print(
        format_table(
            ["scheme", "total hit rate", "demotions/ref", "T_ave (ms)"],
            rows,
            title=f"three {capacity}-block levels over your trace",
        )
    )


if __name__ == "__main__":
    main()

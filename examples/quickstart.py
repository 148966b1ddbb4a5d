"""Quickstart: simulate a three-level hierarchy under ULC.

Builds the paper's client / server / disk-array structure, drives a Zipf
workload through ULC, and prints the per-level hit rates and the average
access time breakdown.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import Engine, ULCScheme, paper_three_level, zipf_trace


def main() -> None:
    # A 48 MB data set (6000 x 8 KB blocks) accessed with Zipf popularity.
    trace = zipf_trace(num_blocks=6000, num_refs=200_000, seed=1)

    # Three cache levels of 800 blocks (6.25 MB) each; costs from the
    # paper: LAN 1 ms, SAN 0.2 ms, disk 10 ms.
    scheme = ULCScheme(capacities=[800, 800, 800])
    costs = paper_three_level()

    result = Engine(scheme, costs).drive(trace)

    print(f"workload        : {result.workload} ({result.references} refs measured)")
    print(f"scheme          : {result.scheme} {result.capacities}")
    for level, rate in enumerate(result.level_hit_rates, start=1):
        print(f"L{level} hit rate     : {rate:6.1%}")
    print(f"miss rate       : {result.miss_rate:6.1%}")
    for boundary, rate in enumerate(result.demotion_rates, start=1):
        print(f"demotions B{boundary}    : {rate:6.1%} of references")
    print(f"average access  : {result.t_ave_ms:.3f} ms "
          f"(hits {result.t_hit_ms:.3f} + misses {result.t_miss_ms:.3f} "
          f"+ demotions {result.t_demotion_ms:.3f})")


if __name__ == "__main__":
    main()

"""Experiment E4: Figure 6 — three-level single-client comparison.

For each of the five traces (random, zipf, httpd, dev1, tpcc1) runs
indLRU, uniLRU and ULC through the client / server / disk-array-cache
hierarchy and reports per-level hit rates, per-boundary demotion rates
and the average-access-time breakdown.

Paper geometry: 100 MB per level (50 MB for tpcc1), 8 KB blocks, LAN
1 ms / SAN 0.2 ms / disk 10 ms, first tenth of the trace as warm-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.report import render_figure6
from repro.errors import ConfigurationError
from repro.experiments.scaling import Scale, resolve_scale
from repro.runner import CostSpec, RunSpec, WorkloadSpec, run_specs
from repro.sim import RunResult, paper_three_level

#: Paper per-level cache sizes in 8 KB blocks: 100 MB (50 MB for tpcc1).
CACHE_BLOCKS_100MB = 12800
CACHE_BLOCKS_50MB = 6400

#: Baseline reference counts per workload (scaled ~1/100 of the paper).
BASELINE_REFS = {
    "random": 400_000,
    "zipf": 400_000,
    "httpd": 400_000,
    "dev1": 100_000,
    "tpcc1": 400_000,
}

FIGURE6_WORKLOADS = ("random", "zipf", "httpd", "dev1", "tpcc1")

#: The figure's scheme labels and the registry name behind each.
SCHEME_NAMES: Dict[str, str] = {
    "indLRU": "indlru",
    "uniLRU": "unilru",
    "ULC": "ulc",
}


@dataclass(frozen=True)
class Figure6Result:
    """One RunResult per (scheme, workload)."""

    results: Dict[str, List[RunResult]]
    scale: str

    def render(self) -> str:
        return render_figure6(self.results)

    def result_for(self, scheme: str, workload: str) -> RunResult:
        for result in self.results[scheme]:
            if result.workload == workload:
                return result
        raise KeyError(f"no result for {scheme}/{workload}")

    def access_time_reduction(self, workload: str, base: str, new: str) -> float:
        """Fractional T_ave reduction of ``new`` over ``base`` — the
        paper quotes uniLRU-over-indLRU (17%–80%) and ULC-over-uniLRU
        (11%–71%)."""
        t_base = self.result_for(base, workload).t_ave_ms
        t_new = self.result_for(new, workload).t_ave_ms
        if t_base == 0:
            return 0.0
        return (t_base - t_new) / t_base


def cache_blocks(workload: str, scale: Scale) -> int:
    """Per-level cache size for a workload under a scale."""
    paper_blocks = (
        CACHE_BLOCKS_50MB if workload == "tpcc1" else CACHE_BLOCKS_100MB
    )
    return scale.blocks(paper_blocks)


def run_figure6(
    scale: Union[str, Scale] = "bench",
    workloads: Sequence[str] = FIGURE6_WORKLOADS,
    schemes: Sequence[str] = tuple(SCHEME_NAMES),
    jobs: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    check_invariants: Optional[int] = None,
) -> Figure6Result:
    """Run the Figure-6 grid and return all results.

    Every (scheme, workload) cell is a :class:`repro.runner.RunSpec`;
    the grid fans out over ``jobs`` worker processes (``None``/1 serial,
    0 all cores) and reuses ``cache_dir`` results where the spec is
    unchanged. ``check_invariants`` validates every scheme's structure
    each N references while it runs (results are unchanged).
    """
    scale = resolve_scale(scale)
    costs = CostSpec.from_model(paper_three_level())
    for workload in workloads:
        if workload not in BASELINE_REFS:
            raise ConfigurationError(
                f"unknown Figure-6 workload {workload!r}; "
                f"available: {sorted(BASELINE_REFS)}"
            )
    for name in schemes:
        if name not in SCHEME_NAMES:
            raise ConfigurationError(
                f"unknown scheme {name!r}; available: {sorted(SCHEME_NAMES)}"
            )
    cells: List[str] = []
    specs: List[RunSpec] = []
    for workload in workloads:
        capacity = cache_blocks(workload, scale)
        workload_spec = WorkloadSpec(
            "large",
            workload,
            {
                "scale": scale.geometry,
                "num_refs": scale.references(BASELINE_REFS[workload]),
            },
        )
        for name in schemes:
            cells.append(name)
            specs.append(
                RunSpec(
                    scheme=SCHEME_NAMES[name],
                    capacities=(capacity,) * 3,
                    workload=workload_spec,
                    costs=costs,
                )
            )
    results: Dict[str, List[RunResult]] = {name: [] for name in schemes}
    runs = run_specs(
        specs, jobs, cache_dir, check_invariants=check_invariants
    )
    for name, result in zip(cells, runs):
        results[name].append(result)
    return Figure6Result(results=results, scale=scale.name)

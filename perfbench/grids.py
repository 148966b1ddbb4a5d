"""The benchmark's three workloads as grids of simulation cells.

Each grid is built from the constants of the command it reproduces
(``repro figure6``, ``repro figure7``, ``repro tournament``), so at the
default seed every cell is the command's own cell. Setup generates the
traces; the timed pass only drives them.

- ``fig6-single``: the Figure-6 grid at ``bench`` geometry, every cell
  driven serially in-process through ``Engine.drive``.
- ``fig7-multi``: the Figure-7 grid at ``bench`` geometry through
  ``run_specs`` on two pool workers with a fresh result cache, then the
  same grid again against the now-warm cache.
- ``policy-grid``: the tournament grid (every registered policy as
  client and as server of a two-level ``indlru`` composition) at
  ``tiny`` geometry, driven serially in-process.

The Figure-6 and tournament traces come straight from the
``LARGE_WORKLOADS`` factories, because a ``WorkloadSpec("large", ...)``
cannot carry a seed: ``make_large_workload`` does not accept one and
raises ``TypeError``. That defect is left for a later change.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments import figure6, figure7, tournament
from repro.experiments.scaling import BENCH, TINY
from repro.hierarchy.registry import make_scheme
from repro.policies.registry import available_policies
from repro.runner import CostSpec, RunSpec, WorkloadSpec, run_specs
from repro.runner.executor import materialize_trace
from repro.runner.spec import specs_for_sweep
from repro.sim import Engine, RunResult, paper_three_level, paper_two_level
from repro.workloads import NUM_CLIENTS
from repro.workloads.base import Trace
from repro.workloads.largescale import LARGE_WORKLOADS
from repro.workloads.multiclient import MULTI_WORKLOADS

WORKLOADS = ("fig6-single", "fig7-multi", "policy-grid")

#: The benchmark seed at which every generator keeps its built-in seed.
DEFAULT_SEED = 0

#: Pool workers of the ``fig7-multi`` grid (``repro figure7 --jobs 2``).
FIG7_JOBS = 2

#: Scale of the tournament grid: 675 cells of 2,000 references.
POLICY_SCALE = TINY


def generator_seed(factory: Callable[..., Trace], seed: int) -> int:
    """The seed a trace generator gets for benchmark seed ``seed``.

    The default benchmark seed maps to the generator's own default, so
    the default cells are the CLI's cells.
    """
    builtin = inspect.signature(factory).parameters["seed"].default
    return builtin + 1000 * (seed - DEFAULT_SEED)


@dataclass(frozen=True)
class Cell:
    """One in-process simulation: a registry scheme over a live trace."""

    cell_id: str
    scheme: str
    capacities: Tuple[int, ...]
    trace: Trace
    costs: object
    scheme_kwargs: Mapping[str, object] = field(default_factory=dict)


def drive(cell: Cell) -> RunResult:
    """Run one cell exactly as the figure commands do."""
    scheme = make_scheme(
        cell.scheme, list(cell.capacities), 1, **dict(cell.scheme_kwargs)
    )
    return Engine(scheme, cell.costs).drive(cell.trace)


@dataclass
class Grid:
    """One workload's cells, ready to run.

    ``cells`` is set for the in-process grids and ``specs`` for the
    pooled one; ``cell_ids`` names the cells in result order. A pass
    of the pooled grid makes one ``run_specs`` call per Figure-7
    workload (as ``repro figure7`` makes them), each followed by its
    warm-cache rerun.
    """

    cell_ids: List[str] = field(default_factory=list)
    refs: int = 0
    cells: List[Cell] = field(default_factory=list)
    specs: List[RunSpec] = field(default_factory=list)
    #: (start, stop) cell-index ranges of the pooled grid's
    #: ``run_specs`` calls.
    units: List[Tuple[int, int]] = field(default_factory=list)
    workdir: Optional[Path] = None

    @property
    def workers(self) -> int:
        return FIG7_JOBS if self.specs else 1

    def run(self, jobs: Optional[int] = None) -> "Pass":
        """One untraced pass, timed whole; the pooled grid runs on
        ``jobs`` workers (default ``workers``). A cell that raises
        fails; the pass goes on with the next unit."""
        done = Pass()
        if not self.specs:
            started = time.perf_counter()
            for index, cell in enumerate(self.cells):
                try:
                    done.results.append(drive(cell))
                except Exception:
                    done.results.append(None)
                    done.raised[index] = traceback.format_exc(limit=-1).strip()
            done.seconds = time.perf_counter() - started
            return done
        jobs = self.workers if jobs is None else jobs
        done.warm = []
        cache_dirs = [
            tempfile.mkdtemp(prefix="cache-", dir=self.workdir) for _ in self.units
        ]
        started = time.perf_counter()
        for (start, stop), cache_dir in zip(self.units, cache_dirs):
            try:
                cold = run_specs(self.specs[start:stop], jobs=jobs, cache_dir=cache_dir)
                warm = run_specs(self.specs[start:stop], jobs=jobs, cache_dir=cache_dir)
            except Exception:
                cold = warm = [None] * (stop - start)
                for index in range(start, stop):
                    done.raised[index] = traceback.format_exc(limit=-1).strip()
            done.results += cold
            done.warm += warm
        done.seconds = time.perf_counter() - started
        return done


@dataclass
class Pass:
    """One pass over a grid: results in cell order (``None`` where the
    cell raised), the warm-cache rerun's results (pooled grid only), the
    pass's seconds, and the error of each cell that raised."""

    results: List[Optional[RunResult]] = field(default_factory=list)
    warm: Optional[List[Optional[RunResult]]] = None
    seconds: float = 0.0
    raised: Dict[int, str] = field(default_factory=dict)


def _large_trace(name: str, scale, num_refs: int, seed: int) -> Trace:
    factory = LARGE_WORKLOADS[name]
    return factory(
        scale=scale.geometry,
        num_refs=num_refs,
        seed=generator_seed(factory, seed),
    )


def setup_fig6(seed: int, workdir: Path) -> Grid:
    costs = paper_three_level()
    grid = Grid()
    for workload in figure6.FIGURE6_WORKLOADS:
        trace = _large_trace(
            workload,
            BENCH,
            BENCH.references(figure6.BASELINE_REFS[workload]),
            seed,
        )
        capacity = figure6.cache_blocks(workload, BENCH)
        for scheme in figure6.SCHEME_NAMES.values():
            cell = Cell(
                f"{workload}/{scheme}", scheme, (capacity,) * 3, trace, costs
            )
            grid.cells.append(cell)
            grid.cell_ids.append(cell.cell_id)
            grid.refs += len(trace)
    return grid


def setup_policy_grid(seed: int, workdir: Path) -> Grid:
    costs = paper_two_level()
    capacities = (
        POLICY_SCALE.blocks(tournament.CLIENT_BLOCKS_PAPER),
        POLICY_SCALE.blocks(tournament.SERVER_BLOCKS_PAPER),
    )
    policies = available_policies()
    grid = Grid()
    for workload in tournament.TOURNAMENT_WORKLOADS:
        trace = _large_trace(
            workload,
            POLICY_SCALE,
            POLICY_SCALE.references(tournament.BASELINE_REFS[workload]),
            seed,
        )
        for client in policies:
            for server in policies:
                cell = Cell(
                    f"{workload}/{client}/{server}",
                    "indlru",
                    capacities,
                    trace,
                    costs,
                    {"policies": [client, server]},
                )
                grid.cells.append(cell)
                grid.cell_ids.append(cell.cell_id)
                grid.refs += len(trace)
    return grid


def fig7_workload_spec(workload: str, seed: int) -> WorkloadSpec:
    """The Figure-7 recipe; the seed is named only when it is not the
    generator's own, so default specs hash like ``repro figure7``'s."""
    geometry = BENCH.geometry * figure7.EXTRA_GEOMETRY[workload]
    params: Dict[str, object] = {
        "scale": geometry,
        "num_refs": BENCH.references(figure7.BASELINE_REFS[workload]),
    }
    if seed != DEFAULT_SEED:
        params["seed"] = generator_seed(MULTI_WORKLOADS[workload], seed)
    return WorkloadSpec("multi", workload, params)


def fig7_client_blocks(workload: str) -> int:
    geometry = BENCH.geometry * figure7.EXTRA_GEOMETRY[workload]
    return max(16, int(round(figure7.CLIENT_BLOCKS[workload] * geometry)))


def setup_fig7(seed: int, workdir: Path) -> Grid:
    costs = CostSpec.from_model(paper_two_level())
    grid = Grid(workdir=workdir)
    for workload in figure7.FIGURE7_WORKLOADS:
        clients = NUM_CLIENTS[workload]
        client_blocks = fig7_client_blocks(workload)
        workload_spec = fig7_workload_spec(workload, seed)
        # Built through the runner's per-process memo, as run_figure7
        # does, so the forked pool workers inherit the trace.
        trace = materialize_trace(workload_spec)
        sizes = figure7.server_sizes(
            client_blocks,
            clients,
            BENCH.sweep_points,
            universe=trace.num_unique_blocks,
        )
        rows = specs_for_sweep(
            figure7.SCHEME_SPECS,
            workload_spec,
            client_blocks,
            sizes,
            costs,
            num_clients=clients,
        )
        grid.units.append((len(grid.specs), len(grid.specs) + len(rows)))
        for _, size, spec in rows:
            grid.cell_ids.append(f"{workload}/{spec.scheme}/{size}")
            grid.specs.append(spec)
            grid.refs += len(trace)
    return grid


SETUPS: Dict[str, Callable[[int, Path], Grid]] = {
    "fig6-single": setup_fig6,
    "fig7-multi": setup_fig7,
    "policy-grid": setup_policy_grid,
}


# -- correctness -----------------------------------------------------------


def digest(result: RunResult) -> str:
    """sha256 of the canonical JSON of everything the simulation
    determines (``RunResult.comparable()``)."""
    payload = json.dumps(
        result.comparable(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def invariant_errors(result: RunResult, trace_length: int) -> List[str]:
    """Accounting identities every result must satisfy, whatever the
    seed: level hits + misses = measured references, warm-up + measured
    = references driven, and the T_ave decomposition is exact."""
    errors = []
    refs = result.references
    if refs + result.warmup_references != trace_length:
        errors.append(
            f"{refs} measured + {result.warmup_references} warm-up "
            f"!= {trace_length} driven"
        )
    counts = [rate * refs for rate in result.level_hit_rates]
    counts.append(result.miss_rate * refs)
    rounded = [round(count) for count in counts]
    if any(abs(c - r) > 1e-6 * max(1, refs) for c, r in zip(counts, rounded)):
        errors.append(f"hit/miss rates are not whole counts of {refs}")
    elif sum(rounded) != refs:
        errors.append(f"hits + misses = {sum(rounded)} != {refs} measured")
    parts = (
        result.t_hit_ms + result.t_miss_ms + result.t_demotion_ms
        + result.t_message_ms
    )
    if parts != result.t_ave_ms:
        errors.append(f"T_ave components sum to {parts}, not {result.t_ave_ms}")
    return errors


def failed_cells(
    grid: Grid,
    done: Pass,
    expected: Optional[Mapping[str, str]],
) -> Dict[str, str]:
    """Cell id -> reason for every cell of one pass that failed.

    A cell fails when it raised. With ``expected`` digests it must also
    match its digest; without, it must satisfy
    :func:`invariant_errors`. A pooled grid's warm-cache results must
    equal the cold ones.
    """
    failures: Dict[str, str] = {}
    traces = [cell.trace for cell in grid.cells] or [
        materialize_trace(spec.workload) for spec in grid.specs
    ]
    for index, (cell_id, result) in enumerate(zip(grid.cell_ids, done.results)):
        if result is None:
            failures[cell_id] = f"raised {done.raised[index]}"
            continue
        if expected is not None:
            want = expected.get(cell_id)
            got = digest(result)
            if got != want:
                failures[cell_id] = f"digest {got[:12]} != expected {str(want)[:12]}"
                continue
        else:
            errors = invariant_errors(result, len(traces[index]))
            if errors:
                failures[cell_id] = "; ".join(errors)
                continue
        if done.warm is not None and done.warm[index].comparable() != result.comparable():
            failures[cell_id] = "warm-cache result differs from cold"
    return failures

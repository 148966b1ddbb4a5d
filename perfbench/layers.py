"""The traced run: per-layer self times and the layer ladder.

The traced grid runs the workload's cells serially through the same
calls as the untraced grid, split at each layer boundary and wrapped in
spans:

- ``workloads``: trace builds (``materialize_trace``);
- ``hierarchy``: ``make_scheme`` / ``RunSpec.build_scheme``;
- ``sim``: ``Engine.collect`` and ``result_from_metrics`` (``drive`` is
  exactly these two calls), which include the protocol and policy work
  of every ``scheme.access``;
- ``runner``: ``spec_hash``, ``ResultCache.get`` / ``put`` and
  ``build_costs`` (``fig7-multi`` only, as ``execute_spec`` does them).

The ladder then sends one default-seed cell of the workload through
bare loops one layer at a time (protocol or policy ``access``,
``scheme.access``, ``Engine.collect``, ``Engine.drive``,
``execute_spec``, ``run_specs``); each rung's added ns/ref is the cost
of the layer it adds. The first rung is no metric of its own: it is the
cell's bare protocol or policy loop (``core.ulc_ns_per_ref``,
``core.ulc_multi_ns_per_ref`` or ``policies.lru_ns_per_ref``), timed with
every registered policy and the six Figure-6/7 schemes on that cell's
trace. The ladder always uses the
default-seed cell, so its numbers do not move with ``--seed`` and the
cell can go through a ``RunSpec``.
"""

from __future__ import annotations

import gc
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import grids
from tracing import Tracer

from repro.core import ULCClient, ULCMultiSystem
from repro.experiments import figure6, tournament
from repro.hierarchy.registry import available_schemes, make_scheme, registry_items
from repro.policies.registry import available_policies, make_policy
from repro.runner import CostSpec, RunSpec, WorkloadSpec, run_specs
from repro.runner.cache import ResultCache
from repro.runner.executor import execute_spec, materialize_trace
from repro.sim import Engine, MetricsCollector, RunResult, paper_three_level, paper_two_level
from repro.sim.engine import result_from_metrics
from repro.workloads.base import Trace

#: The schemes of the Figure-6 and Figure-7 grids, timed on every ladder.
LADDER_SCHEMES = ("indlru", "unilru", "ulc", "unilru-lru", "unilru-adaptive", "mq")

#: Each ladder loop repeats until it has run this long (and 3 times).
LADDER_MIN_SECONDS = 0.1

#: Layers whose self time is reported.
LAYERS = ("workloads", "hierarchy", "sim", "runner")


def _package(engine: Engine, scheme, trace: Trace, metrics: MetricsCollector) -> RunResult:
    """The second half of ``Engine.drive``: counters -> RunResult."""
    return result_from_metrics(
        scheme.name,
        trace.info.name,
        list(scheme.capacities),
        metrics,
        engine.costs,
        int(len(trace) * engine.warmup_fraction),
    )


def _traced_cell(tracer: Tracer, cell: grids.Cell) -> Tuple[RunResult, MetricsCollector]:
    with tracer.span("bench.cell", cell.cell_id):
        with tracer.span("hierarchy.make_scheme"):
            scheme = make_scheme(
                cell.scheme, list(cell.capacities), 1, **dict(cell.scheme_kwargs)
            )
        engine = Engine(scheme, cell.costs)
        with tracer.span("sim.collect"):
            metrics = engine.collect(cell.trace)
        with tracer.span("sim.package"):
            result = _package(engine, scheme, cell.trace, metrics)
    return result, metrics


def _traced_spec(
    tracer: Tracer, cell_id: str, spec: RunSpec, cache: ResultCache
) -> Tuple[RunResult, MetricsCollector]:
    """``run_specs``' cold path for one spec, serial and split by layer."""
    with tracer.span("bench.cell", cell_id):
        with tracer.span("runner.spec_hash"):
            spec.spec_hash()
        with tracer.span("runner.cache_get"):
            cache.get(spec)
        with tracer.span("workloads.materialize"):
            trace = materialize_trace(spec.workload)
        with tracer.span("hierarchy.make_scheme"):
            scheme = spec.build_scheme()
        with tracer.span("runner.build_costs"):
            costs = spec.build_costs()
        engine = Engine(scheme, costs, warmup_fraction=spec.warmup_fraction)
        with tracer.span("sim.collect"):
            metrics = engine.collect(trace)
        with tracer.span("sim.package"):
            result = _package(engine, scheme, trace, metrics)
        with tracer.span("runner.cache_put"):
            cache.put(spec, result)
    return result, metrics


def traced_grid(
    grid: grids.Grid, tracer: Tracer, cache: ResultCache
) -> Tuple[List[RunResult], Optional[List[RunResult]], List[MetricsCollector]]:
    """Run every cell serially under spans; the pooled grid's cells go
    through ``cache`` and are then read back from it."""
    if not grid.specs:
        pairs = [_traced_cell(tracer, cell) for cell in grid.cells]
        return [r for r, _ in pairs], None, [m for _, m in pairs]
    pairs = [
        _traced_spec(tracer, cell_id, spec, cache)
        for cell_id, spec in zip(grid.cell_ids, grid.specs)
    ]
    warm = []
    for cell_id, spec in zip(grid.cell_ids, grid.specs):
        with tracer.span("bench.warm_cell", cell_id):
            with tracer.span("runner.cache_get"):
                warm.append(cache.get(spec))
    return [r for r, _ in pairs], warm, [m for _, m in pairs]


# -- the ladder --------------------------------------------------------------


def ns_per_ref(
    loops: Dict[str, Callable[[], Callable[[], object]]], refs: int
) -> Dict[str, float]:
    """ns per reference of each loop: its fastest run.

    ``loops`` maps a metric name to a function that builds fresh state
    outside the timed call and returns the call. The loops run
    round-robin, so that every loop sees the same host conditions,
    until each has run at least 3 times and ``LADDER_MIN_SECONDS``.
    """
    best = {name: float("inf") for name in loops}
    spent = {name: 0.0 for name in loops}
    rounds = 0
    while rounds < 3 or min(spent.values()) < LADDER_MIN_SECONDS:
        for name, prepare in loops.items():
            run = prepare()
            # Collect the previous run's garbage outside the timed call.
            gc.collect()
            started = time.perf_counter()
            run()
            elapsed = time.perf_counter() - started
            spent[name] += elapsed
            best[name] = min(best[name], elapsed)
        rounds += 1
    return {name: seconds / refs * 1e9 for name, seconds in best.items()}


def _block_loop(access: Callable, blocks: memoryview) -> Callable[[], None]:
    def run() -> None:
        for block in blocks:
            access(block)
    return run


def _client_loop(access: Callable, clients: memoryview, blocks: memoryview) -> Callable[[], None]:
    def run() -> None:
        for client, block in zip(clients, blocks):
            access(client, block)
    return run


def _build_scheme(name: str, capacities: Sequence[int], num_clients: int):
    """A ladder scheme; on a single-client trace the multi-client-only
    variants are built with one client over the first two levels."""
    if num_clients == 1 and name in available_schemes(False):
        return make_scheme(name, list(capacities), 1)
    if num_clients > 1:
        return make_scheme(name, list(capacities), num_clients)
    return registry_items(True)[name](list(capacities[:2]), 1)


def ladder_cell(workload: str, workdir: Path) -> RunSpec:
    """The default-seed cell each workload's ladder runs."""
    if workload == "fig6-single":
        spec = RunSpec(
            scheme="ulc",
            capacities=(figure6.cache_blocks("httpd", grids.BENCH),) * 3,
            workload=WorkloadSpec(
                "large",
                "httpd",
                {
                    "scale": grids.BENCH.geometry,
                    "num_refs": grids.BENCH.references(figure6.BASELINE_REFS["httpd"]),
                },
            ),
            costs=CostSpec.from_model(paper_three_level()),
        )
        return spec
    if workload == "fig7-multi":
        grid = grids.setup_fig7(grids.DEFAULT_SEED, workdir)
        for cell_id, spec in zip(grid.cell_ids, grid.specs):
            if cell_id.startswith("httpd/ulc/"):
                return spec
    scale = grids.POLICY_SCALE
    spec = RunSpec(
        scheme="indlru",
        capacities=(
            scale.blocks(tournament.CLIENT_BLOCKS_PAPER),
            scale.blocks(tournament.SERVER_BLOCKS_PAPER),
        ),
        workload=WorkloadSpec(
            "large",
            "zipf",
            {
                "scale": scale.geometry,
                "num_refs": scale.references(tournament.BASELINE_REFS["zipf"]),
            },
        ),
        costs=CostSpec.from_model(paper_two_level()),
        scheme_kwargs={"policies": ["lru", "lru"]},
    )
    return spec


def ladder(workload: str, workdir: Path) -> Dict[str, float]:
    spec = ladder_cell(workload, workdir)
    trace = materialize_trace(spec.workload)
    caps = list(spec.capacities)
    clients_n = spec.num_clients
    blocks = memoryview(trace.blocks)
    clients = memoryview(trace.clients)
    costs = spec.build_costs()

    def ulc_single() -> Callable[[], None]:
        return _block_loop(ULCClient(caps).access, blocks)

    def ulc_multi() -> Callable[[], None]:
        system = ULCMultiSystem(
            num_clients=clients_n,
            client_capacity=caps[0],
            server_capacity=caps[1],
        )
        return _client_loop(system.access, clients, blocks)

    def engine_call(method: str) -> Callable[[], object]:
        engine = Engine(spec.build_scheme(), costs)
        return lambda: getattr(engine, method)(trace)

    def run_specs_cold() -> Callable[[], object]:
        cache_dir = tempfile.mkdtemp(prefix="rung-", dir=workdir)
        return lambda: run_specs([spec], cache_dir=cache_dir)

    loops: Dict[str, Callable[[], Callable[[], object]]] = {
        "core.ulc_ns_per_ref": ulc_single,
        "core.ulc_multi_ns_per_ref": ulc_multi,
    }
    for name in available_policies():
        loops[f"policies.{name}_ns_per_ref"] = (
            lambda name=name: _block_loop(make_policy(name, caps[0]).access, blocks)
        )
    for name in LADDER_SCHEMES:
        loops[f"hierarchy.{name}_ns_per_ref"] = lambda name=name: _client_loop(
            _build_scheme(name, caps, clients_n).access, clients, blocks
        )
    # Rungs 2-6, each adding one layer to the one below it; rung 1 is
    # the cell's protocol or policy loop above.
    loops["ladder.scheme_ns_per_ref"] = lambda: _client_loop(
        spec.build_scheme().access, clients, blocks
    )
    loops["ladder.collect_ns_per_ref"] = lambda: engine_call("collect")
    loops["ladder.drive_ns_per_ref"] = lambda: engine_call("drive")
    loops["ladder.execute_spec_ns_per_ref"] = lambda: lambda: execute_spec(spec)
    loops["ladder.run_specs_ns_per_ref"] = run_specs_cold

    out = ns_per_ref(loops, len(trace))
    out["sim.engine_ns_per_ref"] = (
        out["ladder.collect_ns_per_ref"] - out["ladder.scheme_ns_per_ref"]
    )

    # The runner's per-call costs on the ladder cell.
    cache = ResultCache(tempfile.mkdtemp(prefix="calls-", dir=workdir))
    result = execute_spec(spec)
    out["runner.spec_hash_us"] = _median_call(spec.spec_hash) * 1e6
    out["runner.cache_put_ms"] = _median_call(lambda: cache.put(spec, result)) * 1e3
    out["runner.cache_get_ms"] = _median_call(lambda: cache.get(spec)) * 1e3
    started = time.perf_counter()
    run_specs([spec], cache_dir=cache.root)
    out["runner.warm_rerun_ms"] = (time.perf_counter() - started) * 1e3
    return out


def _median_call(call: Callable[[], object], repeats: int = 21) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


# -- the traced run ----------------------------------------------------------


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def traced_run(workload: str, seed: int, workdir: Path, expected) -> Tuple[
    Dict[str, Dict[str, object]], int, Dict[str, str], Tracer
]:
    """Per-layer metrics of one workload: cells attempted, failures by
    cell, and the spans."""
    tracer = Tracer()
    with tracer.span("workloads.setup", "setup"):
        grid = grids.SETUPS[workload](seed, workdir)
    setup_span = tracer.spans[-1]
    attempted = 0
    failures: Dict[str, str] = {}

    def check(label: str, done: grids.Pass) -> float:
        nonlocal attempted
        attempted += len(grid.cell_ids)
        for cell_id, reason in grids.failed_cells(grid, done, expected).items():
            failures[f"{label}:{cell_id}"] = reason
        return done.seconds

    untraced_s = check("untraced", grid.run())
    # The traced grid runs serially. It is compared with the serial
    # untraced passes around it (for the pooled grid only the one after
    # it, to keep the run short), so that a drift in host speed shifts
    # both sides alike.
    serial_s = [] if grid.specs else [untraced_s]

    first_span = len(tracer.spans)
    started = time.perf_counter()
    cache_dir = Path(tempfile.mkdtemp(prefix="traced-", dir=workdir))
    results, warm, collectors = traced_grid(grid, tracer, ResultCache(cache_dir))
    traced_s = time.perf_counter() - started
    check("traced", grids.Pass(results, warm))
    serial_s.append(check("untraced-after", grid.run(jobs=1)))

    self_s = tracer.self_times(first_span)
    cell_s = sum(tracer.durations("bench.cell"))

    values: Dict[str, Tuple[float, str]] = {
        "workloads.build_s": (setup_span.duration, "s"),
        "core.demotions": (sum(sum(m.boundary_demotions) for m in collectors), "count"),
        "core.control_messages": (sum(m.control_messages for m in collectors), "count"),
        "core.temp_hits": (sum(m.temp_hits for m in collectors), "count"),
        "hierarchy.make_scheme_ms": (_mean(tracer.durations("hierarchy.make_scheme")) * 1e3, "ms"),
        "sim.package_us": (_mean(tracer.durations("sim.package")) * 1e6, "us"),
        "sim.refs": (sum(m.references for m in collectors), "count"),
        "sim.l1_hits": (sum(m.level_hits[0] for m in collectors), "count"),
        "sim.misses": (sum(m.misses for m in collectors), "count"),
        "sim.evictions": (sum(m.evictions for m in collectors), "count"),
        "runner.pool_efficiency": (cell_s / (grid.workers * untraced_s), "ratio"),
        "trace.overhead": (traced_s / _mean(serial_s) - 1.0, "ratio"),
        "trace.unattributed_s": (traced_s - sum(self_s.get(layer, 0.0) for layer in LAYERS), "s"),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")

    for name, value in ladder(workload, workdir).items():
        values[name] = (value, _unit(name))
    if grid.specs:
        # The pooled grid goes through the runner itself: take its
        # per-cell costs from the traced grid, not from the ladder cell.
        values["runner.spec_hash_us"] = (_mean(tracer.durations("runner.spec_hash")) * 1e6, "us")
        values["runner.cache_put_ms"] = (_mean(tracer.durations("runner.cache_put")) * 1e3, "ms")
        reads = tracer.durations("runner.cache_get", parent="bench.warm_cell")
        values["runner.cache_get_ms"] = (_mean(reads) * 1e3, "ms")
        started = time.perf_counter()
        run_specs(grid.specs, jobs=grid.workers, cache_dir=cache_dir)
        values["runner.warm_rerun_ms"] = ((time.perf_counter() - started) * 1e3, "ms")
    metrics = {
        name: {"value": float(value), "unit": unit}
        for name, (value, unit) in sorted(values.items())
    }
    return metrics, attempted, failures, tracer


def _unit(name: str) -> str:
    for suffix, unit in (("_ns_per_ref", "ns/ref"), ("_us", "us"), ("_ms", "ms")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {name}")

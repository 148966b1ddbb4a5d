"""Executing batches of :class:`RunSpec` s, serially or across processes.

:func:`run_specs` is the single entry point every driver (sweeps, figure
runners, the CLI) funnels through:

1. each spec is looked up in the result cache (if one is configured) —
   warm entries skip scheme and trace construction entirely;
2. the remaining specs fan out over a :class:`ProcessPoolExecutor`
   (``jobs`` workers; ``jobs=1`` or a single pending spec runs inline);
3. results are returned in input order, so parallel and serial execution
   produce identically-ordered, identical results.

Workers rebuild schemes and traces from the spec alone; traces are
memoized per process (keyed by the workload recipe's content hash) so a
sweep of N points over one workload generates the trace once per worker
rather than N times.

Every executed run records wall-clock metadata in ``RunResult.extras``
under :data:`repro.sim.results.TIMING_EXTRAS` (``wall_time_s``,
``refs_per_s``). Timing is measurement metadata, not simulation output —
use :meth:`RunResult.comparable` when checking determinism.
"""

from __future__ import annotations

import os
import time  # repro: noqa DET001 -- wall-clock timing is metadata, not simulation output
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.runner.cache import ResultCache
from repro.runner.spec import RunSpec, WorkloadSpec
from repro.sim.engine import Engine
from repro.sim.results import RunResult
from repro.workloads.base import Trace

#: Traces memoized per process; small and bounded — traces can be large.
_TRACE_CACHE: "OrderedDict[str, Trace]" = OrderedDict()
_TRACE_CACHE_SLOTS = 8


def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker count: ``None``/``1`` → serial, ``0`` → all cores."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def resolve_check_interval(check_invariants: object) -> Optional[int]:
    """Validate a ``check_invariants`` interval: ``None`` or an int >= 1.

    Bools are rejected explicitly — ``True`` is an ``int`` to
    ``isinstance``, and letting it through would silently mean
    check-every-1-reference (the companion of :func:`resolve_jobs` for
    the invariant-checking knob).
    """
    if check_invariants is None:
        return None
    if isinstance(check_invariants, bool) or not isinstance(
        check_invariants, int
    ):
        raise ConfigurationError(
            "check_invariants must be None or an int interval "
            f"(references between checks), got {check_invariants!r}"
        )
    if check_invariants < 1:
        raise ConfigurationError(
            f"check_invariants must be >= 1, got {check_invariants}"
        )
    return check_invariants


def materialize_trace(workload: WorkloadSpec) -> Trace:
    """Build (or reuse) the trace for a workload spec.

    The per-process memo means drivers that need the trace up front
    (e.g. to size a sweep from ``num_unique_blocks``) share the build
    with the serial execution path — and, on fork-based platforms, with
    the workers too.
    """
    key = workload.content_hash()
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        trace = workload.build()
        _TRACE_CACHE[key] = trace
        while len(_TRACE_CACHE) > _TRACE_CACHE_SLOTS:
            _TRACE_CACHE.popitem(last=False)
    else:
        _TRACE_CACHE.move_to_end(key)
    return trace


def execute_spec(
    spec: RunSpec,
    check_invariants: Optional[int] = None,
) -> RunResult:
    """Run one spec to completion, stamping throughput metadata.

    Args:
        spec: the run to perform.
        check_invariants: when set, wrap the scheme in
            :class:`repro.checks.InvariantCheckedScheme` validating its
            structure every ``check_invariants`` references. The wrapper
            is observationally transparent — results are bit-identical
            with or without it — so the flag is deliberately *not* part
            of the spec hash; cached results are reused either way.
    """
    check_invariants = resolve_check_interval(check_invariants)
    trace = materialize_trace(spec.workload)
    scheme = spec.build_scheme()
    if check_invariants is not None:
        from repro.checks import InvariantCheckedScheme

        scheme = InvariantCheckedScheme(scheme, every=check_invariants)
    costs = spec.build_costs()
    engine = Engine(scheme, costs, warmup_fraction=spec.warmup_fraction)
    # Wall time lands only in TIMING_EXTRAS, which RunResult.comparable()
    # strips before any hash or comparison — so the clock reads below
    # cannot leak into cached payloads.
    started = time.perf_counter()  # repro: noqa FLOW001 -- timing extra only
    result = engine.drive(trace)
    wall = time.perf_counter() - started  # repro: noqa FLOW001 -- timing extra only
    extras = dict(result.extras)
    extras["wall_time_s"] = wall
    extras["refs_per_s"] = len(trace) / wall if wall > 0 else 0.0
    return replace(result, extras=extras)


#: Execution options riding alongside the spec dict in worker payloads.
_PAYLOAD_OPTIONS = ("check_invariants",)


def _execute_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """Worker entry point: dicts in, dicts out (stable pickling)."""
    check_every = resolve_check_interval(payload.get("check_invariants"))
    spec_dict = {
        k: v for k, v in payload.items() if k not in _PAYLOAD_OPTIONS
    }
    result = execute_spec(
        RunSpec.from_dict(spec_dict),
        check_invariants=check_every,
    )
    return result.to_dict()


def _cache_accept(spec: RunSpec) -> Callable[[RunResult], bool]:
    """Serving guard for cached entries of ``spec``.

    MRC-derived entries (PR 4) are stored under the same spec hashes a
    point simulation would use, which is sound only while the spec's
    scheme remains MRC-derivable. If eligibility changes (a scheme
    gains kwargs, goes multi-client, or ``supports_scheme`` tightens),
    a stale ``mrc_derived`` entry must be re-simulated, not served.

    Entries flagged ``mrc_approx`` (derived from a sampled SHARDS/AET
    curve) are *never* served: their counters are estimates, and a spec
    hash promises the exact simulation output. They may share a cache
    directory with exact results but only explicit approximate
    pipelines consume them.
    """
    def accept(result: RunResult) -> bool:
        if result.extras.get("mrc_approx"):
            return False
        if not result.extras.get("mrc_derived"):
            return True
        from repro.analysis.mrc import supports_scheme

        return supports_scheme(
            spec.scheme, dict(spec.scheme_kwargs), spec.num_clients
        )

    return accept


def run_specs(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    check_invariants: Optional[int] = None,
) -> List[RunResult]:
    """Execute ``specs`` and return their results in input order.

    Args:
        specs: the runs to perform.
        jobs: worker processes; ``None``/``1`` run inline in this
            process, ``0`` uses every core, ``N`` uses N workers.
        cache_dir: result-cache directory; cached specs are returned
            without simulating, fresh results are stored back.
        check_invariants: when set, every *executed* run validates its
            scheme's structural invariants each ``check_invariants``
            references (see :func:`execute_spec`). Cache hits skip the
            simulation and therefore the checking.
    """
    check_invariants = resolve_check_interval(check_invariants)
    specs = list(specs)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    results: List[Optional[RunResult]] = [None] * len(specs)
    pending: List[int] = []
    for index, spec in enumerate(specs):
        cached = (
            cache.get(spec, accept=_cache_accept(spec))
            if cache is not None
            else None
        )
        if cached is not None:
            results[index] = cached
        else:
            pending.append(index)

    workers = min(resolve_jobs(jobs), max(1, len(pending)))
    if len(pending) <= 1 or workers <= 1:
        for index in pending:
            results[index] = execute_spec(
                specs[index], check_invariants=check_invariants
            )
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = []
            for index in pending:
                payload = dict(specs[index].to_dict())
                if check_invariants is not None:
                    payload["check_invariants"] = check_invariants
                futures.append((index, pool.submit(_execute_payload, payload)))
            for index, future in futures:
                results[index] = RunResult.from_dict(future.result())

    if cache is not None:
        for index in pending:
            cache.put(specs[index], results[index])  # type: ignore[arg-type]
    return results  # type: ignore[return-value]

"""repro — a from-scratch reproduction of the ULC multi-level buffer
cache protocol (Jiang & Zhang, ICDCS 2004).

The package provides:

- :mod:`repro.core` — the ULC protocol: the uniLRUstack with yardsticks,
  the single-client n-level engine, the multi-client gLRU server, and
  the ND/R/NLD/LLD-R locality measures.
- :mod:`repro.policies` — single-level replacement policies (LRU, FIFO,
  CLOCK, LFU, MRU, RANDOM, OPT, MQ, LIRS, ARC).
- :mod:`repro.hierarchy` — multi-level schemes behind one interface:
  indLRU, uniLRU (+ multi-client DEMOTE variants), client-LRU/server-MQ,
  ULC, aggregate-size oracles.
- :mod:`repro.sim` — the trace-driven engine, cost model and metrics.
- :mod:`repro.runner` — declarative :class:`~repro.runner.RunSpec` runs,
  a multi-process executor and a content-addressed result cache.
- :mod:`repro.workloads` — deterministic workload generators standing in
  for the paper's traces.
- :mod:`repro.analysis` — the Section-2 ordered-list measure analysis.
- :mod:`repro.experiments` — one runnable definition per paper figure
  and table, shared by the benches and the CLI.

Quickstart::

    from repro import Engine, ULCScheme, paper_three_level, zipf_trace

    trace = zipf_trace(num_blocks=6000, num_refs=200_000, seed=1)
    scheme = ULCScheme([800, 800, 800])
    result = Engine(scheme, paper_three_level()).drive(trace)
    print(result.level_hit_rates, result.t_ave_ms)
"""

from repro._version import __version__
from repro.core import ULCClient, ULCMultiSystem, ULCServer, UniLRUStack
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    TraceFormatError,
)
from repro.hierarchy import (
    AggregateLRUOracle,
    AggregateOPTOracle,
    ClientLRUServerMQ,
    IndependentScheme,
    MultiLevelScheme,
    ULCMultiScheme,
    ULCScheme,
    UnifiedLRUMultiScheme,
    UnifiedLRUScheme,
    make_scheme,
)
from repro.policies import ReplacementPolicy, make_policy
from repro.runner import (
    CostSpec,
    ResultCache,
    RunSpec,
    SchemeSpec,
    WorkloadSpec,
    run_specs,
)
from repro.sim import (
    CostModel,
    Engine,
    RunResult,
    paper_three_level,
    paper_two_level,
)
from repro.workloads import (
    Trace,
    looping_trace,
    random_trace,
    temporal_trace,
    zipf_trace,
)

__all__ = [
    "__version__",
    "ReproError",
    "ConfigurationError",
    "ProtocolError",
    "TraceFormatError",
    "ULCClient",
    "ULCServer",
    "ULCMultiSystem",
    "UniLRUStack",
    "MultiLevelScheme",
    "IndependentScheme",
    "UnifiedLRUScheme",
    "UnifiedLRUMultiScheme",
    "ClientLRUServerMQ",
    "ULCScheme",
    "ULCMultiScheme",
    "AggregateLRUOracle",
    "AggregateOPTOracle",
    "make_scheme",
    "ReplacementPolicy",
    "make_policy",
    "CostModel",
    "paper_three_level",
    "paper_two_level",
    "Engine",
    "RunResult",
    "RunSpec",
    "WorkloadSpec",
    "CostSpec",
    "SchemeSpec",
    "ResultCache",
    "run_specs",
    "Trace",
    "zipf_trace",
    "random_trace",
    "looping_trace",
    "temporal_trace",
]

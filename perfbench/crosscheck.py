"""Check the benchmark's default-seed cells against the CLI's own cells.

    python3 perfbench/crosscheck.py [--write]

Runs ``run_figure6("bench")``, ``run_figure7("bench")`` and
``run_tournament("tiny")`` with a fresh result cache each, reads every
cell those commands stored back from the cache, and compares its
digest with the digest of the benchmark's cell of the same name. With
``--write`` the benchmark's digests are saved to ``digests.json`` once
every cell matches. Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import grids  # noqa: E402

from repro.experiments.figure6 import run_figure6  # noqa: E402
from repro.experiments.figure7 import run_figure7  # noqa: E402
from repro.experiments.tournament import run_tournament  # noqa: E402
from repro.runner.cache import ResultCache  # noqa: E402
from repro.runner.spec import RunSpec  # noqa: E402
from repro.sim import RunResult  # noqa: E402


def cell_id(workload: str, spec: RunSpec) -> str:
    if workload == "fig6-single":
        return f"{spec.workload.name}/{spec.scheme}"
    if workload == "fig7-multi":
        return f"{spec.workload.name}/{spec.scheme}/{spec.capacities[1]}"
    client, server = spec.scheme_kwargs["policies"]
    return f"{spec.workload.name}/{client}/{server}"


def command_digests(workload: str, cache_dir: Path) -> Dict[str, str]:
    """Digest of every cell the CLI command stored in ``cache_dir``."""
    out = {}
    for path in ResultCache(cache_dir).root.glob("*/*.json"):
        payload = json.loads(path.read_text(encoding="utf-8"))
        spec = RunSpec.from_dict(payload["spec"])
        out[cell_id(workload, spec)] = grids.digest(RunResult.from_dict(payload["result"]))
    return out


COMMANDS = {
    "fig6-single": lambda cache: run_figure6("bench", jobs=2, cache_dir=cache),
    "fig7-multi": lambda cache: run_figure7("bench", jobs=2, cache_dir=cache),
    "policy-grid": lambda cache: run_tournament(
        grids.POLICY_SCALE, jobs=2, cache_dir=cache
    ),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    work = HERE / ".work"
    work.mkdir(parents=True, exist_ok=True)
    digests: Dict[str, Dict[str, str]] = {}
    ok = True
    for workload in grids.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            grid = grids.SETUPS[workload](grids.DEFAULT_SEED, Path(tmp))
            results = grid.run().results
            ours = {cid: grids.digest(r) for cid, r in zip(grid.cell_ids, results)}
            command_cache = Path(tmp) / "command"
            COMMANDS[workload](command_cache)
            theirs = command_digests(workload, command_cache)
        mismatched = sorted(
            cid for cid in set(ours) | set(theirs) if ours.get(cid) != theirs.get(cid)
        )
        print(
            f"{workload}: {len(ours)} benchmark cells, {len(theirs)} command "
            f"cells, {len(ours) - len(mismatched)} equal digest for digest, "
            f"{len(mismatched)} differ"
        )
        for cid in mismatched[:10]:
            print(f"  {cid}: benchmark {ours.get(cid)} command {theirs.get(cid)}")
        ok = ok and not mismatched
        digests[workload] = dict(sorted(ours.items()))
    if args.write and ok:
        (HERE / "digests.json").write_text(
            json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {HERE / 'digests.json'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's own checks.

    python3 -m pytest perfbench -q

They run the real grids, so they take several minutes.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import contract  # noqa: E402
import grids  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFS_BOUND = next(
    m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "refs_per_s"
)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_line(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def copy_checkout(into: Path, with_program: bool = True) -> Path:
    """BENCHMARK.json and perfbench/ (and src/) copied under ``into``."""
    shutil.copy(ROOT / "BENCHMARK.json", into)
    shutil.copytree(HERE, into / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    if with_program:
        shutil.copytree(ROOT / "src", into / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return into


def test_corrupted_digest_fails_its_cell_and_the_command(tmp_path):
    checkout = copy_checkout(tmp_path)
    digests_file = checkout / "perfbench" / "digests.json"
    digests = json.loads(digests_file.read_text(encoding="utf-8"))
    victim = "zipf/ulc"
    digests["fig6-single"][victim] = "0" * 64
    digests_file.write_text(json.dumps(digests), encoding="utf-8")

    done = bench("--workload", "fig6-single", "--seed", "0", "--seconds", "0",
                 "--trace", "0", cwd=checkout)

    assert done.returncode == 1, done.stderr
    result = result_line(done)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == 15
    assert f"FAILED pass1:{victim}:" in done.stdout


def test_committed_digests_pass_and_other_seeds_check_invariants():
    done = bench("--workload", "fig6-single", "--seed", "0", "--seconds", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    assert result_line(done)["failed"] == 0
    assert "digests skipped" not in done.stdout

    done = bench("--workload", "fig6-single", "--seed", "7", "--seconds", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "digests skipped: seed 7" in done.stdout
    result = result_line(done)
    assert result["correct"] is True and result["attempted"] == 15


def test_invariants_reject_broken_accounting():
    grid = grids.setup_fig6(1, HERE)
    cell = next(c for c in grid.cells if c.cell_id == "dev1/ulc")
    good = grids.drive(cell)
    assert grids.invariant_errors(good, len(cell.trace)) == []
    assert grids.invariant_errors(good, len(cell.trace) + 1)
    shifted = dataclasses.replace(good, t_ave_ms=good.t_ave_ms + 1e-9)
    assert grids.invariant_errors(shifted, len(cell.trace))
    rates = list(good.level_hit_rates)
    rates[0] += 1.0 / good.references
    recounted = dataclasses.replace(good, level_hit_rates=rates)
    assert grids.invariant_errors(recounted, len(cell.trace))


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    checkout = copy_checkout(tmp_path, with_program=False)
    done = bench("--workload", "fig6-single", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=checkout)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_traced_run_reports_every_per_layer_metric():
    done = bench("--workload", "fig6-single", "--seed", "0", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    metrics = result_line(done)["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(entry["unit"] == units[name] for name, entry in metrics.items())
    # Fixed work: the counts repeat exactly (the Figure-6 grid measures
    # 15 cells' post-warm-up references).
    assert metrics["sim.refs"]["value"] == sum(
        len(c.trace) - int(len(c.trace) * 0.1)
        for c in grids.setup_fig6(0, HERE).cells
    )


# -- the comparison catches a planted slowdown and stays quiet otherwise ----


class Slowed:
    """A scheme whose every access costs ``extra_s`` more."""

    def __init__(self, inner, extra_s: float) -> None:
        self._inner = inner
        self._extra_s = extra_s

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def access(self, client, block):
        event = self._inner.access(client, block)
        until = time.perf_counter() + self._extra_s
        while time.perf_counter() < until:
            pass
        return event


def _small_grid() -> grids.Grid:
    grid = grids.setup_fig6(0, HERE)
    grid.cells = [c for c in grid.cells if c.cell_id.startswith("dev1/")]
    grid.cell_ids = [c.cell_id for c in grid.cells]
    grid.refs = sum(len(c.trace) for c in grid.cells)
    return grid


def _rate(grid: grids.Grid) -> float:
    """refs/s of one 2-second measurement of ``grid``."""
    passes, _, failures = run.measure(grid, 2.0, None)
    assert not failures
    return grid.refs / run.grid_seconds(passes)


def test_a_raising_cell_fails_and_the_pass_goes_on(monkeypatch):
    grid = _small_grid()
    real_make_scheme = grids.make_scheme

    def make_scheme(name, *args, **kwargs):
        if name == "unilru":
            raise RuntimeError("planted")
        return real_make_scheme(name, *args, **kwargs)

    monkeypatch.setattr(grids, "make_scheme", make_scheme)
    passes, attempted, failures = run.measure(grid, 0.0, None)
    assert attempted == 3 and len(passes) == 1
    assert list(failures) == ["pass1:dev1/unilru"]
    assert "RuntimeError: planted" in failures["pass1:dev1/unilru"]


def test_planted_slowdown_is_flagged_and_unchanged_code_is_not(monkeypatch):
    grid = _small_grid()
    real_make_scheme = grids.make_scheme
    for trial in range(5):
        parent, unchanged, slowed = [], [], []
        # Interleaved so that each side sees the same host conditions.
        for _ in range(5):
            parent.append(_rate(grid))
            unchanged.append(_rate(grid))
            # The whole 1.5x lands on every third cell: a cost that
            # comes and goes within a pass must still be caught.
            extra_s = 1.5 / statistics.median(parent)
            built = itertools.count()

            def make_scheme(*args, **kwargs):
                scheme = real_make_scheme(*args, **kwargs)
                return Slowed(scheme, extra_s) if next(built) % 3 == 2 else scheme

            monkeypatch.setattr(grids, "make_scheme", make_scheme)
            slowed.append(_rate(grid))
            monkeypatch.setattr(grids, "make_scheme", real_make_scheme)
        assert contract.regressed(parent, slowed, "higher", REFS_BOUND), (
            trial, parent, slowed)
        assert not contract.regressed(parent, unchanged, "higher", REFS_BOUND), (
            trial, parent, unchanged)


def test_spread_and_worsening_follow_the_contract():
    values = [10.0, 11.0, 9.0, 10.0, 12.0, 8.0, 10.0, 10.5, 9.5, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert contract.spread(values) == pytest.approx((q3 - q1) / 10.0)
    assert contract.worsening([10.0], [8.0], "higher") == pytest.approx(0.2)
    assert contract.worsening([10.0], [8.0], "lower") == pytest.approx(-0.2)
    assert contract.regressed([10.0], [7.0], "higher", 0.25)
    assert not contract.regressed([10.0], [8.0], "higher", 0.25)

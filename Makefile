# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); `make check` is the local equivalent of the
# lint + check-deep jobs. ruff/mypy are optional extras — install with
# `pip install ruff mypy` (the repro passes need only the package).

PYTHON ?= python

.PHONY: check check-shallow check-deep check-kernel check-bounds lint \
	test perfbench-test bench-files-test bench mrc-approx baseline \
	hash-schema

check: lint check-shallow check-deep check-kernel check-bounds

check-shallow:
	$(PYTHON) -m repro check src/repro

check-deep:
	$(PYTHON) -m repro check src/repro --deep

check-kernel:
	$(PYTHON) -m repro check src/repro --kernel

check-bounds:
	$(PYTHON) -m repro check src/repro --bounds

lint:
	$(PYTHON) -m ruff check src tests
	$(PYTHON) -m mypy

test:
	$(PYTHON) -m pytest -q

# The repo benchmark's self-tests (also run by CI's perfbench job): the
# real fig6-single / fig7-multi / policy-grid grids against every
# committed cell digest in perfbench/digests.json (~3 min on 2 cores).
perfbench-test:
	$(PYTHON) -m pytest -q perfbench/test_perfbench.py

# Every benchmarks/bench_* file once at tiny scale with timing disabled
# (also run by CI's bench-files job): catches bench files broken by an
# API change.
bench-files-test:
	ULC_BENCH_SCALE=tiny $(PYTHON) -m pytest benchmarks/ -q \
		--benchmark-disable

bench:
	$(PYTHON) -m repro bench --smoke --threshold 0.30 \
		--baseline BENCH_core_ops.json --output bench_smoke.json

# The approximate-MRC validation ladder: the fast SHARDS/AET-vs-exact
# accuracy suite (also run by CI's bench-smoke job), then the
# REPRO_BIG_TESTS tentpole gate — 10^7 references, >= 20x over exact
# Mattson at <= 1% MAE under a fixed memory budget (takes ~2 min).
mrc-approx:
	$(PYTHON) -m pytest -q tests/analysis/test_mrc_approx.py
	REPRO_BIG_TESTS=1 $(PYTHON) -m pytest -q \
		tests/analysis/test_mrc_approx.py -k tentpole_gate

# Maintenance: regenerate the check-pass artefacts after reviewing
# that the new findings / schema drift are intentional. The baseline
# file is shared by every pass; --all --update-baseline rewrites it
# from the shallow, deep, kernel and bounds passes in one go.
baseline:
	$(PYTHON) -m repro check src/repro --all --update-baseline

hash-schema:
	$(PYTHON) -m repro check src/repro --deep --update-hash-schema

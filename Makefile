# Test split: tier-1 stays fast, soak tests run on demand.
#
#   make test-fast   - everything except tests marked `slow` (the default
#                      pytest configuration, what CI gates on)
#   make test-all    - the full suite including the fault/stress soaks
#   make test-slow   - only the slow soaks
#   make test-chaos  - fault-domain resilience soak (degradation + the
#                      replica-world leg at team sizes 2 and 3) +
#                      BENCH_resilience.json and BENCH_resilience_t3.json;
#                      `repro chaos` exits 1 on a NO-GO resilience claim
#   make demo-faults - the fault-injection acceptance demo (repro faults)
#   make trace       - the observed stream: one Perfetto JSON file
#   make profile     - unrprof host-time profile of the latency demo
#                      (flamegraph stacks, exit 1 below 90% coverage),
#                      then the slow profiler-tax test (<= 10%)
#   make perf        - perfbench: host-time ladder of eight workloads
#                      (~4 min), writes perfbench/out/record.json
#   make perf-selfcheck - perfbench twice on the same code against its
#                      own bounds (~8 min); `make test-perf` runs the
#                      benchmark's tests (outside pytest's testpaths)
#   make perf-pairs PARENT=<dir> [WORKLOAD=fig7_thxy288 PAIRS=10 SEED=300]
#                    - alternating parent/change pairs of one perfbench
#                      workload (tools/perf_pairs.py): medians, quartiles,
#                      pairs won — the numbers a perf PR quotes; with
#                      COUNTERS=1, one traced run per side and a diff of
#                      the counters that must repeat exactly instead
#   make test-golden - the golden corpus: the 16 wire schedules plus the
#                      seven witness entries (faults, chaos and trace
#                      output, the observed corpus runs' records)
#   make loc         - line totals of src/repro, per package, of core/engine.py, replication.py and cli.py
#   make lint        - unrlint determinism rules (+ ruff when installed)
#   make verify      - unrverify: happens-before trace verifier over the
#                      golden + mutation corpora
#   make typecheck   - mypy strict-lite gate (skipped when not installed)
#   make check       - lint + typecheck + unrverify

PYTHON ?= python
PYTEST  = PYTHONPATH=src $(PYTHON) -m pytest
REPRO   = PYTHONPATH=src $(PYTHON) -m repro

.PHONY: test test-fast test-all test-slow test-chaos test-golden test-perf loc demo-faults trace profile perf perf-selfcheck perf-pairs lint verify typecheck check

test: test-fast

test-fast:
	$(PYTEST) -q -m "not slow"

test-all:
	$(PYTEST) -q -m "slow or not slow"

test-slow:
	$(PYTEST) -q -m slow

# The chaos soak: node-kill schedules on all four Table III platforms,
# then the CLI runs that write the BENCH_resilience.json record (two
# replica worlds) and BENCH_resilience_t3.json (three) and exit 1 on a
# NO-GO among the ledger's ext.resilience.* claims, which it applies to
# the record it wrote (src/repro/bench/paper.py).
test-chaos:
	$(PYTEST) -q -m chaos
	$(REPRO) chaos --out BENCH_resilience.json
	$(REPRO) chaos --team-size 3 --out BENCH_resilience_t3.json

demo-faults:
	$(REPRO) faults

trace:
	$(REPRO) trace stream --perfetto trace_obs.json

# Host-time attribution of the latency demo (collapsed stacks; exits 1
# below 90% coverage), then the profiler-tax test on a 64 KiB PUT
# ping-pong + GET pull: profiled wall time may exceed observed by <=10%.
profile:
	$(REPRO) trace latency --profile --flame profile_flame.txt
	$(PYTEST) -q -m slow tests/obs/test_profile.py

# Host-time benchmark (BENCHMARK.json; protocol in perfbench/README.md).
# It sets its own sys.path, so no PYTHONPATH here.
perf:
	$(PYTHON) perfbench/run.py

perf-selfcheck:
	$(PYTHON) perfbench/run.py --selfcheck

test-perf:
	$(PYTHON) -m pytest perfbench/tests -q

# Parent vs change, alternating which side runs first.  PARENT is a
# checkout of the parent commit (git clone / git archive); measure the
# change from an export beside it, not from the tree being edited.
WORKLOAD ?= fig7_thxy288
PAIRS ?= 10
SEED ?= 300
perf-pairs:
	@test -n "$(PARENT)" || { echo "usage: make perf-pairs PARENT=<dir of the parent commit>"; exit 2; }
	$(PYTHON) tools/perf_pairs.py --parent $(PARENT) --workload $(WORKLOAD) \
		--pairs $(PAIRS) --seed $(SEED) $(if $(COUNTERS),--counters)

# The lockdown gate of every datapath change: the 20 golden wire
# fingerprints (16 UNR, 4 MPI) and the seven witness entries (the sha256 of `repro
# faults`, `repro chaos` and `repro trace stream --faults` output and of
# the observed corpus runs' records) must match the committed corpus.
test-golden:
	$(PYTEST) -q tests/core/test_fingerprints.py

# What a simplicity PR quotes in CHANGES.md.
loc:
	@for d in src/repro/*/ src/repro/core/engine.py src/repro/core/reliability.py src/repro/replication.py src/repro/cli.py src/repro; do \
		printf '%6d  %s\n' "$$(find $$d -name '*.py' | xargs cat | wc -l)" "$$d"; \
	done

# ruff/mypy are optional locally (the container may not ship them); the
# unrlint and unrverify gates always run.  CI installs the full set.
lint:
	$(REPRO) lint src/repro examples
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks tools; \
	else \
		echo "ruff not installed; skipping (CI runs it)"; \
	fi

verify:
	$(REPRO) verify

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping (CI runs it)"; \
	fi

check: lint typecheck verify

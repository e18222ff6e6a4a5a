PY := PYTHONPATH=src python

.PHONY: test test-robustness test-durability test-replication \
	test-observability test-governor test-mvcc bench bench-check \
	bench-macro bench-macro-smoke load-harness load-harness-overload \
	load-harness-mixed footprint

test: test-robustness test-durability test-replication \
	test-observability test-governor test-mvcc
	$(PY) -m pytest -x -q

# Request-lifecycle suites: deadlines, cancellation, fair locking,
# retry/reconnect, and the fault-injection harness (also run by `test`)
test-robustness:
	$(PY) -m pytest tests/test_lifecycle.py tests/test_server_extras.py -q

# Durability suite: WAL record round-trips, the simulated-crash matrix,
# checksummed reads, and verify/repair quarantine (also run by `test`)
test-durability:
	$(PY) -m pytest tests/test_durability.py -q

# Replication suite: WAL streaming, replica semantics, epoch-fenced
# failover, and the deterministic failover matrix (also run by `test`)
test-replication:
	$(PY) -m pytest tests/test_replication.py -q

# Observability suite: query traces, the metrics registry, the
# slow-query log, and the server metrics/slowlog ops (also run by `test`)
test-observability:
	$(PY) -m pytest tests/test_observability.py -q

# Resource-governor suite: per-query row/byte budgets, the two-lane
# admission queue, pressure-driven degradation, pin hygiene on killed
# queries, and the replica circuit breaker (also run by `test`)
test-governor:
	$(PY) -m pytest tests/test_governor.py -q

# MVCC suite: snapshot isolation vs the hash-graph oracle, the
# publish-then-swap consolidation race, bounded retention and
# SNAPSHOT_GONE, at_seq exact reads, writer/reader non-blocking, and
# the deterministic chaos matrix (also run by `test`)
test-mvcc:
	$(PY) -m pytest tests/test_mvcc.py -q

bench:
	$(PY) -m pytest benchmarks -q --benchmark-only \
		--benchmark-json=bench_results_new.json

# Gate: fail if exp1/exp7/exp8 means regressed >25% vs the baseline
bench-check:
	$(PY) benchmarks/check_regression.py bench_results_new.json

# Macro scoreboard: generate the ~1M-triple SP2Bench-style dataset,
# load it through the WAL/dictionary update path, run the 12-query mix,
# and append a trajectory point (fingerprints gated vs the committed one)
bench-macro:
	$(PY) benchmarks/macro/run.py --scale full --output BENCH_macro.json

# The CI gate: ~50k triples in seconds, fingerprints checked against
# both the HashIndexGraph oracle and the committed BENCH_macro.json
bench-macro-smoke:
	$(PY) benchmarks/macro/run.py --scale smoke --check-oracle \
		--output BENCH_macro.json

# Open-loop load: spawn an in-process server over the smoke dataset and
# drive the query mix at a fixed arrival rate with SLO gates
load-harness:
	$(PY) scripts/load_harness.py --scale smoke --rate 150 \
		--duration 10 --processes 2 --threads 2 \
		--slo-p99-ms 500 --slo-error-rate 0.01

# Overload smoke: arrivals well past a single admission slot with a
# mixed interactive/batch lane split; gates on the *admitted* p99 and
# a bounded error rate — graceful degradation, not collapse
load-harness-overload:
	$(PY) scripts/load_harness.py --scale tiny --rate 400 \
		--duration 5 --threads 8 --batch-fraction 0.5 \
		--max-concurrent 1 --max-queue 2 \
		--slo-admitted-p99-ms 2000 --slo-error-rate 0.05

# MVCC reader-tail gate: a read-only baseline run, then the same load
# with a 10% INSERT DATA update stream; fails when the mixed run's
# reader admitted p99 exceeds 2x the read-only baseline (the ratio
# gate never trips below the 50ms floor, so a microsecond-fast
# baseline cannot make it flaky)
load-harness-mixed:
	$(PY) scripts/load_harness.py --scale tiny --rate 150 \
		--duration 5 --threads 4 --slo-error-rate 0.01 \
		--output harness_read_baseline.json
	$(PY) scripts/load_harness.py --scale tiny --rate 150 \
		--duration 5 --threads 4 --update-fraction 0.1 \
		--baseline harness_read_baseline.json \
		--slo-read-p99-ratio 2.0 --slo-error-rate 0.01

# Report dictionary + permutation-index memory cost at the exp8 scale
# (fails above the per-triple byte budget; see the script's --max-bytes)
footprint:
	$(PY) scripts/report_footprint.py

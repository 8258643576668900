# Convenience targets (mirror the commands in README / CONTRIBUTING)

.PHONY: install test test-quick bench bench-watch results examples explain-demo ci chaos clean

install:
	python setup.py develop

test:
	pytest tests/ 2>&1 | tee test_output.txt

test-quick:
	HYPOTHESIS_PROFILE=quick pytest tests/

bench:
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# append one timing record to benchmarks/BENCH_HISTORY.jsonl and fail
# (exit 4) when the latest run regressed against the trailing median
bench-watch:
	python benchmarks/collect_results.py --history-only
	python -m repro.cli bench-watch

results:
	python benchmarks/collect_results.py

# what .github/workflows/ci.yml runs; the per-test timeout needs the
# pytest-timeout plugin, which local environments may not have
ci:
	@if python -c "import pytest_timeout" 2>/dev/null; then \
		pytest tests/ --timeout=300 --timeout-method=thread; \
	else \
		echo "pytest-timeout not installed; running without per-test timeouts"; \
		pytest tests/; \
	fi
	pytest benchmarks/bench_e13_budget_overhead.py -s
	pytest benchmarks/bench_e14_trace_overhead.py -s
	pytest benchmarks/bench_e15_kernel_cache.py -s
	pytest benchmarks/bench_e16_telemetry_overhead.py -s
	pytest benchmarks/bench_e18_resilience.py -s --benchmark-disable
	pytest benchmarks/bench_e21_analysis.py -s --benchmark-disable

# the cross-process chaos matrix: deterministic faults and worker
# crashes injected inside pool workers; the oracle must still match
# the serial reference byte for byte with guard parity
chaos:
	REPRO_CHAOS=1 python tests/parallel/oracle.py
	REPRO_CHAOS=1 REPRO_DIFF_POOL=process python tests/parallel/oracle.py

# the observability walkthrough: profile a transitive-closure run and
# export the JSON trace (TRACE_OUT overrides the export path)
explain-demo:
	python examples/observability_profile.py

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		python $$script || exit 1; \
	done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +

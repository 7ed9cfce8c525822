# Convenience targets for the reproduction workflow.
#
# Every python invocation exports PYTHONPATH=src so the targets work on
# an uninstalled checkout — the same command ROADMAP.md's tier-1 verify
# uses.

PYENV = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH}

.PHONY: install test verify bench bench-selftest bench-service obs-smoke trace-smoke shard-smoke engine-smoke kernel-smoke cache-smoke serve-smoke bench-shard bench-engine bench-serve bench-obs experiments examples serve-sim clean

install:
	pip install -e . || python setup.py develop

test:
	$(PYENV) python -m pytest -x -q

# Structural invariant validators over synthetic workloads (static HINT,
# storage-unoptimized HINT, the 1D grid, and dynamic insert/delete churn).
verify:
	$(PYENV) python -m repro.cli verify

bench:
	$(PYENV) python -m pytest benchmarks/ --benchmark-only

bench-service:
	$(PYENV) python benchmarks/bench_service.py --out results/service.csv

# Observability smoke: the disabled-plane overhead gate (<5% policy) in
# quick mode, plus a schema check of the `repro stats --json` snapshot.
obs-smoke:
	$(PYENV) python benchmarks/bench_obs_overhead.py --quick
	$(PYENV) python -m repro.cli stats --json | python scripts/check_stats_schema.py

# Tracing smoke: serve a traced burst over a real socket on a 2-shard
# index with the threads backend; every client trace id must
# reconstruct as one parented tree with its pool-thread spans under
# engine.execute, and its Chrome-trace dump must carry every layer on
# >= 2 thread lanes (docs/observability.md).
trace-smoke:
	$(PYENV) python scripts/trace_smoke.py

# Sharding smoke: tiny 2-shard differential check — the sharded backend
# must agree with the single index in every result mode; exits non-zero
# on any mismatch (docs/sharding.md).
shard-smoke:
	$(PYENV) python -m repro.cli shard-sim --k 2 --cardinality 5000 --m 12 --queries 2000 --repeat 1

# Engine smoke: quick backend sweep of the execution engine
# (docs/parallelism.md); its CSV goes to a temporary directory that is
# removed whether the sweep passes or fails.
engine-smoke:
	@dir=$$(mktemp -d); \
	$(PYENV) python benchmarks/bench_process_scaling.py --quick --out $$dir/process-scaling-smoke.csv; \
	status=$$?; rm -rf "$$dir"; exit $$status

# Kernel smoke: the kernel unit + differential suite — the JIT backend
# (when numba is importable) and the NumPy fallback must be
# result-identical across strategies, modes and index kinds
# (docs/kernels.md).
kernel-smoke:
	$(PYENV) python -m pytest -x -q tests/test_kernels.py

# Cache smoke: a reduced differential sweep of the caching executor
# (cached == uncached for every backend × strategy × mode) plus the
# stateful machine covering live mutation, eviction and the
# cache.invalidate fault site (docs/caching.md).
cache-smoke:
	REPRO_CACHE_TRIALS=40 $(PYENV) python -m pytest -x -q \
		tests/test_cache_differential.py tests/test_cache_stateful.py
	$(PYENV) python -m repro.cli cache-sim --cardinality 5000 --m 12 \
		--batch 256 --batches 4 --universe 512 --skew 1.2 --repeat 1

# Serving smoke: differential agreement over the socket, then a real
# `repro.cli serve` subprocess under a bursty open-loop trace with one
# overload window — every request must be answered (typed OVERLOAD
# included, hung sockets not); see docs/serving.md.
serve-smoke:
	$(PYENV) python scripts/serve_smoke.py

# Benchmark selftest (~20 s): BENCHMARK.json matches bench/metrics.py,
# the generators, percentile and span arithmetic and the oracle are
# right, no descendant process outlives a run, and a small copy of each
# in-process workload runs end to end in both modes (bench/README.md).
bench-selftest:
	python3 -m bench --selftest

# Shard-count scaling sweep on the default synthetic workload; records
# results/shard-scaling.csv (uploaded as a CI artifact).
bench-shard:
	$(PYENV) python benchmarks/bench_shard_scaling.py --out results/shard-scaling.csv

# Execution-backend scaling sweep (serial/threads/auto × strategy ×
# mode × workers); records results/process-scaling.csv (uploaded as a
# CI artifact).
bench-engine:
	$(PYENV) python benchmarks/bench_process_scaling.py --out results/process-scaling.csv

# Serving latency/goodput sweep: open-loop bursty load at multiples of
# calibrated capacity through both backpressure policies; records
# results/serve-net.csv (uploaded as a CI artifact) and gates on
# reject-mode goodput >= block-mode goodput at >= 2x capacity.
bench-serve:
	$(PYENV) python benchmarks/bench_serve_net.py --out results/serve-net.csv

# Disabled-plane overhead gate at full fidelity; records
# results/obs-overhead.csv (uploaded as a CI artifact) and fails if the
# obs-off path costs more than 5% over the baseline.
bench-obs:
	$(PYENV) python benchmarks/bench_obs_overhead.py --out results/obs-overhead.csv

experiments:
	$(PYENV) python -m repro.experiments all --csv results/ --repeats 3

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYENV) python $$f; done

serve-sim:
	$(PYENV) python -m repro.cli serve-sim

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +

PYTHON ?= python

.PHONY: install test perfbench-test lint analyze-smoke trace-smoke chaos-smoke kernel-smoke parallel-smoke bench bench-wallclock bench-obs bench-chaos bench-kernel bench-parallel figures fuzz examples results clean

install:
	$(PYTHON) setup.py develop

test: trace-smoke chaos-smoke analyze-smoke kernel-smoke parallel-smoke perfbench-test
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# The end-to-end benchmark's own tests (perfbench reads result.protocol_log
# and wraps the runtime's public entry points on every pass).
perfbench-test:
	$(PYTHON) -m pytest perfbench/tests -q

# Static analysis gate: the analyzer over its own shipped workloads (the
# semantic clean targets plus a file scan of examples/ and the workload
# sources) must report nothing at warning level, and the soundness
# dogfood (static effect sets vs recorded access sets over the clean
# targets and dynamic scenarios) must report zero violations.  ruff and
# mypy are hard gates: they are pinned dev dependencies (pip install
# -e '.[dev]').  On a box without them set LINT_TOOLS=skip — an explicit
# opt-out that prints why, never a silent pass.
LINT_TOOLS ?= run
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint \
		fig1 fig2 fig3 fig5 fig6 chain pipeline pipeline-relay random \
		examples src/repro/workloads
	PYTHONPATH=src $(PYTHON) -m repro.analyze.soundness
ifeq ($(LINT_TOOLS),run)
	$(PYTHON) -m ruff check src/repro tests examples
	PYTHONPATH=src $(PYTHON) -m mypy src/repro/csp src/repro/core/messages.py
else
	@echo "LINT_TOOLS=$(LINT_TOOLS): skipping ruff/mypy (pinned dev deps; pip install -e '.[dev]' to enable)"
endif

# No dead rules, no false positives: every registered rule must fire on
# the bad-program corpus and every clean target must stay clean.
analyze-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.analyze.smoke

trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.obs.smoke

# Fast chaos subset: 3 network-fault seeds plus the exec-fault smoke
# pair (one worker-kill schedule, one hang-past-deadline schedule) and
# the pool-demotion fallback gate.
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.bench.chaos --smoke

# Fast kernel-throughput sanity gate (loose ratio floor, no pin update).
kernel-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.bench.kernel --smoke

# Real-parallelism sanity gate: tiny thread-pool speedup + 3 parity seeds.
parallel-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.bench.parallel --smoke

bench: bench-kernel
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-wallclock:
	PYTHONPATH=src $(PYTHON) -m repro.bench.wallclock

bench-obs:
	PYTHONPATH=src $(PYTHON) -m repro.bench.speculation_health

bench-chaos:
	PYTHONPATH=src $(PYTHON) -m repro.bench.chaos

# Full kernel throughput tier: measures events/sec on both kernels and
# rewrites the BENCH_kernel.json pin (gate: >=5x over the seed kernel).
bench-kernel:
	PYTHONPATH=src $(PYTHON) -m repro.bench.kernel

# Full parallelism tier: wall-clock speedup at 8 workers + all 24 chaos
# parity schedules; rewrites the BENCH_parallel.json pin (gate: >=2x).
bench-parallel:
	PYTHONPATH=src $(PYTHON) -m repro.bench.parallel

figures:
	$(PYTHON) -m repro figures

examples:
	@for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f; done

results: test bench bench-obs bench-chaos bench-parallel
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +

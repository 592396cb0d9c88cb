# Developer entry points.  Everything runs against the in-tree sources
# (PYTHONPATH=src) so no editable install is needed.

PYTHON ?= python
PYTHONPATH := src

.PHONY: test golden lint lint-json lint-changed lint-bench lint-tests chaos durability serve serve-tests serve-smoke live-chaos live-chaos-full bench-selftest

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# The format-freeze gate for hot-loop edits (well under a minute): golden
# containers, exponent-cap digests, Huffman scan round trips, handover
# resumes, and the coding stage in a worker's coder against the one in
# process.  A codec speed change must pass it unedited.
golden:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q tests/core/test_golden_containers.py tests/core/test_exponent_caps.py tests/jpeg/test_scan_roundtrip.py tests/jpeg/test_handover_property.py tests/core/test_two_stage_encode.py

# The chaos suite: deterministic fault injection, degraded reads, and the
# zero-wrong-bytes invariant (run with -m chaos; see docs/deployment.md).
chaos:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m chaos

# The durability suite: crash-recovery kill sweep, backend contracts,
# replication/read-repair, and the scrub loop (docs/durability.md).
durability:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m durability

# The determinism/safety static analysis (docs/lint.md).  Runs the full
# rule set D1-D10 — syntactic rules plus the CFG/dataflow passes — and
# exits non-zero on any finding; the same gate runs inside
# storage.qualification.
lint:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.lint src/repro

lint-json:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.lint --json src/repro

# Incremental lint: only files differing from git HEAD, with the
# content-hash result cache (invalidated whenever repro.lint changes).
lint-changed:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.lint src/repro --changed --cache

# Full-vs-incremental runtime comparison (benchmarks/results/lint_runtime.txt).
lint-bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q benchmarks/bench_lint_runtime.py

# Just the lint-marked portion of the test suite (self-clean gate,
# fixture corpus, reporter schema).
lint-tests:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m lint

# The HTTP front-end (docs/serve.md).  `serve` runs it on port 8080;
# `serve-smoke` boots an in-process server on an ephemeral port and
# calls every route of the route table once over a real socket (PUT,
# full + ranged GET, a resumable upload, /healthz, /metrics, /tenants)
# — the one-command "is the service alive" gate CI runs.
serve:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli serve --port 8080

# `serve-tests` runs the serve suite, then the rest of the codec runner's
# own tests (the pool's scheduler and the store's codec seam), which need
# no server.
serve-tests:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m serve
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m "not serve" tests/storage/test_codec_runner.py tests/storage/test_verify_fallback.py

serve-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.serve.smoke

# The live kill-and-recover drill (docs/serve.md): boots real `lepton
# serve` subprocesses, SIGKILLs them at armed kill points mid-upload and
# mid-stream, and proves recovery + resume.  `live-chaos` runs the
# reduced one-point-per-partition sweep; the full 17-point sweep is
# `lepton chaos --live`.
live-chaos:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m live_chaos

live-chaos-full:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli chaos --live

# The benchmark's tiny-scale self-test (about 45 s): every workload and
# the traced mode end to end.  Its traced mode wraps store and codec
# functions by name, so a refactor that renames one fails here first.
bench-selftest:
	$(PYTHON) perfbench/selftest.py

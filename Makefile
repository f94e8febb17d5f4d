# Development and CI entry points. `make ci` runs the workflow's test
# job steps (vet/build/race/bench-smoke); the GitHub Actions workflow
# additionally runs them under a GOMAXPROCS {1,4} matrix plus the
# `bench-sched` experiment and a `staticcheck` job — run those targets
# too before pushing anything non-trivial (staticcheck downloads the
# tool on first use, so it needs the network once).

GO ?= go

# The packages whose API is the product (documentation gate, size ledger).
PUBLIC_PKGS = keystone keystone/serve keystone/registry keystone/dist keystone/tune

.PHONY: build test race vet staticcheck docs-check ledger bench-smoke bench bench-sched bench-serve bench-canary bench-dist bench-kernels bench-tune benchdiff e2e e2e-compare flake fuzz-serve serve serve-smoke dist-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet; CI runs it on every push. Uses the PATH
# install when present, otherwise runs the pinned version via go run
# (no PATH assumptions).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@2024.1.1 ./...; \
	fi

# The documentation gate: vet, enforced gofmt, and the doccheck tool,
# which fails on any missing package overview or undocumented exported
# identifier in the public packages. CI runs this on every push, so
# `go doc keystone` / `go doc keystone/serve` stay complete.
docs-check: vet
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt -l flags:"; echo "$$out"; exit 1; fi
	$(GO) run ./cmd/doccheck $(PUBLIC_PKGS) internal/linalg internal/linalg/kernels

# The size ledger: the three numbers a simplification is judged by, so a
# CHANGES.md row quotes a figure anyone can reproduce — non-test Go
# lines, With* options of the public API, and exported identifiers of
# the public packages as `go doc -short` lists them.
ledger:
	@echo "non-test Go lines:    $$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | xargs cat | wc -l)"
	@echo "With* options:        $$(grep -rh '^func With' --include='*.go' --exclude='*_test.go' keystone | wc -l)"
	@echo "exported identifiers: $$(for p in $(PUBLIC_PKGS); do $(GO) doc -short ./$$p; done | wc -l)"

# A short benchmark pass at Quick scale: compiles every benchmark and
# runs each once, catching bit-rot without CI-hostile runtimes.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Smoke the schedule-plan benchmark: the branchy-DAG experiment where
# the makespan-aware pin set must beat the sequential-model pin set,
# on a single-proc and a multi-proc schedule.
bench-sched:
	GOMAXPROCS=1 $(GO) run ./cmd/keybench -exp sched
	GOMAXPROCS=4 $(GO) run ./cmd/keybench -exp sched

# The serving autotuner experiment: static batcher limits versus the
# SLO-driven tuner against a p95 target, on a live in-process server
# under closed-loop load.
bench-serve:
	$(GO) run ./cmd/keybench -exp serve

# The rollout-safety experiment: a degraded candidate caught at a 10%
# canary fraction and aborted with zero failed requests, then admission
# control holding p95 near the SLO under 4x overload while the
# unprotected server collapses.
bench-canary:
	$(GO) run ./cmd/keybench -exp canary

# The distributed-fit experiment: measured data-parallel speedup at 1
# vs 2 workers on a latency-bound pipeline, checked against the
# extended makespan simulator's ranking; BENCH_dist.json lands in /tmp.
bench-dist:
	$(GO) run ./cmd/keybench -exp dist -benchout /tmp/keystone-bench

# The kernel-backend experiment: reference vs blocked GEMM/TMul/QR/SVD
# microbenchmarks at GOMAXPROCS 1 and 4, measured-dispatch checks, and
# end-to-end VOC/CIFAR fit deltas; BENCH_kernels.json lands in
# /tmp/keystone-bench for benchdiff.
bench-kernels:
	$(GO) run ./cmd/keybench -exp kernels -benchout /tmp/keystone-bench

# The hyperparameter-search experiment: shared vs isolated prefix-cache
# search wall time over a solver grid (the tracked shared_speedup
# metric), winner bit-identity against a standalone fit, and a halving
# search whose winner auto-deploys to a live route; BENCH_tune.json
# lands in /tmp/keystone-bench for benchdiff.
bench-tune:
	$(GO) run ./cmd/keybench -exp tune -benchout /tmp/keystone-bench

# The perf regression gate: compares the freshly generated kernel and
# tune numbers against the committed baselines in bench/baseline,
# failing on any tracked metric that regresses past 15%. Not part of
# `make ci`: on a 2-CPU host it fails on an unchanged tree (PR 16: 2 of 2
# runs at the parent commit), and a gate that fails without a change
# gates nothing. The GitHub workflow runs it with its own loose
# threshold.
benchdiff: bench-kernels bench-tune bench-dist
	$(GO) run ./cmd/benchdiff -fresh /tmp/keystone-bench

# The end-to-end ledger (bench/e2e, declared in BENCHMARK.json): the four
# train → deploy → serve workloads, first untraced (the end-to-end
# metrics) then traced (the per-layer ones), appended to one result file.
# Informational, not part of `make ci`; ~4 min.
#   make e2e [SEED=1] [OUT=.bench_build/e2e.json]
#   make e2e-compare A=parent.json B=change.json
SEED ?= 1
OUT ?= .bench_build/e2e.json
e2e:
	bash bench/e2e/run.sh -workload all -seed $(SEED) -json $(OUT)
	bash bench/e2e/run.sh -workload all -seed $(SEED) -trace 1 -json $(OUT)

e2e-compare:
	bash bench/e2e/run.sh -compare $(A) $(B)

# Flake sweep: the timing- and socket-sensitive suites (the batcher and
# the serving tier, dist chaos tests, tune deadlines) repeated under the
# race detector at both scheduler widths. Any order/timing dependence
# shows up here long before it flakes in CI.
FLAKE_PKGS = ./keystone/ ./keystone/serve/ ./keystone/dist/ ./keystone/tune/
flake:
	GOMAXPROCS=1 $(GO) test -race -count=5 $(FLAKE_PKGS)
	GOMAXPROCS=4 $(GO) test -race -count=5 $(FLAKE_PKGS)

# Fuzz the numeric serve codecs against their encoding/json oracle (the
# seed corpus alone already runs under `go test`); one target per run is
# go test's rule.
FUZZTIME ?= 30s
fuzz-serve:
	$(GO) test -run '^$$' -fuzz FuzzImageDecode -fuzztime $(FUZZTIME) ./keystone/serve
	$(GO) test -run '^$$' -fuzz FuzzVectorDecode -fuzztime $(FUZZTIME) ./keystone/serve

# The HTTP inference server (trains text + vision pipelines at startup).
serve:
	$(GO) run ./cmd/keyserve -routes text,vision

# End-to-end serving smoke: builds and boots a real keyserve process,
# exercises /predict, /predict/batch, the vision route, a live hot-swap
# under concurrent load, rollback, /versions and /stats, then drains
# gracefully. Pure Go driver — no curl dependency.
serve-smoke:
	$(GO) run ./cmd/servesmoke

# End-to-end cluster smoke: builds keyworker, boots a coordinator plus
# two real worker processes, fits distributed (bit-identical to the
# single-process oracle), ships an artifact to both serving replicas,
# routes predictions through the consistent-hash router, pushes rollout
# state, kills one worker and verifies degraded-but-serving.
dist-smoke:
	$(GO) run ./cmd/distsmoke

ci: docs-check build race bench-smoke serve-smoke dist-smoke

# Development and CI entry points. `make ci` runs the workflow's test
# job steps (vet/build/race/bench-smoke/examples/smokes); the GitHub Actions
# workflow additionally runs them under a GOMAXPROCS {1,4} matrix plus a
# `staticcheck` job — run that target too before pushing anything
# non-trivial (staticcheck downloads the tool on first use, so it needs
# the network once). Measurements live in one place, bench/e2e
# (`make e2e`); `keybench` prints the paper's tables and figures.

GO ?= go

# The packages whose API is the product (documentation gate, size ledger).
PUBLIC_PKGS = keystone keystone/serve keystone/registry keystone/dist keystone/tune

.PHONY: build test race vet staticcheck docs-check ledger bench-smoke bench bench-kernels examples e2e e2e-compare flake fuzz serve serve-smoke dist-smoke ci

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
# identifier in the public packages, the kernels and the engine. CI runs
# this on every push, so `go doc keystone` / `go doc keystone/serve`
# stay complete.
docs-check: vet
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt -l flags:"; echo "$$out"; exit 1; fi
	$(GO) run ./cmd/doccheck $(PUBLIC_PKGS) internal/linalg internal/linalg/kernels internal/engine

# The size ledger: the three numbers a simplification is judged by, so a
# CHANGES.md row quotes a figure anyone can reproduce — non-test Go
# lines, With* options of the public API, and exported identifiers of
# the public packages as `go doc -short` lists them, in total and per
# package (so a row can say which package lost what).
ledger:
	@echo "non-test Go lines:    $$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | xargs cat | wc -l)"
	@echo "With* options:        $$(grep -rh '^func With' --include='*.go' --exclude='*_test.go' keystone | wc -l)"
	@echo "exported identifiers: $$(for p in $(PUBLIC_PKGS); do $(GO) doc -short ./$$p; done | wc -l)"
	@for p in $(PUBLIC_PKGS); do printf '  %-20s %s\n' "$$p" "$$($(GO) doc -short ./$$p | wc -l)"; done

# A short benchmark pass at Quick scale: compiles every benchmark and
# runs each once, catching bit-rot without CI-hostile runtimes.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# The kernel-backend experiment: reference vs blocked GEMM/TMul/QR/SVD
# microbenchmarks at GOMAXPROCS 1 and 4, measured-dispatch checks, and
# end-to-end VOC/CIFAR fit deltas. Informational: it prints a table.
bench-kernels:
	$(GO) run ./cmd/keybench -exp kernels

# Run every example program plus the two caching figures (Fig. 10: the
# greedy pinned set against LRU and rule-based caching; Fig. 11: the
# cache budget sweep), so programs that `go build` only compiles are
# executed too. ~17 s on a 2-CPU host.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done
	$(GO) run ./cmd/keybench -exp fig10
	$(GO) run ./cmd/keybench -exp fig11

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
# the serving tier, dist chaos tests, tune deadlines) and the packages
# whose operators share pooled scratch across goroutines (image, pca)
# or fold per-partition accumulators on the engine's partition loop
# (gmm), repeated under the race detector at both scheduler widths. Any
# order/timing dependence shows up here long before it flakes in CI.
FLAKE_PKGS = ./internal/engine/ ./internal/core/ ./internal/image/ ./internal/pca/ ./internal/gmm/ ./keystone/ ./keystone/serve/ ./keystone/dist/ ./keystone/tune/
flake:
	GOMAXPROCS=1 $(GO) test -race -count=5 $(FLAKE_PKGS)
	GOMAXPROCS=4 $(GO) test -race -count=5 $(FLAKE_PKGS)

# Fuzz each target against its oracle: the numeric serve codecs against
# encoding/json, the fused Figure 2 featuriser's apply and fit against the
# unfused text chain, the dist wire's frame decoder against its own
# encoder, and the dist wire's partition codec against its input (the
# seed corpora alone already run under `go test`); one target per run is
# go test's rule.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzImageDecode$$' -fuzztime $(FUZZTIME) ./keystone/serve
	$(GO) test -run '^$$' -fuzz '^FuzzVectorDecode$$' -fuzztime $(FUZZTIME) ./keystone/serve
	$(GO) test -run '^$$' -fuzz '^FuzzFeaturize$$' -fuzztime $(FUZZTIME) ./internal/text
	$(GO) test -run '^$$' -fuzz '^FuzzFitFeaturize$$' -fuzztime $(FUZZTIME) ./internal/text
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME) ./keystone/dist
	$(GO) test -run '^$$' -fuzz '^FuzzPartitionRoundTrip$$' -fuzztime $(FUZZTIME) ./keystone/dist

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

ci: docs-check build race bench-smoke examples serve-smoke dist-smoke

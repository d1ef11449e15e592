# Verify tiers for the MaxNVM reproduction.
#
#   make check   - tier 1: fmt, build, test, vet, vet-perfbench (the
#                  perfbench module, which `go build ./...` skips),
#                  race-fast (the concurrency-heavy packages, the
#                  explorer's per-layer probers and the seed contract),
#                  serve-smoke, examples-smoke and
#                  chaos. CI (.github/workflows/ci.yml) runs the same
#                  minus chaos, plus paper-golden.
#   make race    - tier 2: go vet + race detector on a fast test pass
#   make cover   - per-package coverage floors on the core packages
#   make fleet-crash - the fleet fault matrix: lease races, zombie
#                  fencing, crash-between-claim-and-record, and the
#                  kill -9 subprocess recovery test, under -race
#   make chaos   - the supervision soak: real subprocess workers under a
#                  seed-pinned SIGKILL/SIGSTOP schedule plus a poison
#                  shard, proving quarantine + bit-identical recovery
#   make fuzz    - short pass over every fuzz target (sparse, ECC,
#                  checkpoint, serve and fleet decoders, k-means, and
#                  the fully-connected kernels and the row-patched
#                  forward pass against their references)
#   make paper-golden - `maxnvm all` (every table and figure, ~15 s)
#                  diffed byte for byte against its golden file
#   make bench   - full benchmark harness (regenerates every figure)
#   make all     - check + race

GO      ?= go
FUZZTIME ?= 10s

# Coverage floor (percent) enforced per package by `make cover` — per
# package rather than aggregate so an untested package cannot hide
# behind a well-tested one.
COVER_FLOOR ?= 70
COVER_PKGS   = internal/campaign internal/envm internal/sparse internal/ecc internal/telemetry internal/cliutil internal/durable internal/errfs internal/fleet internal/serve internal/supervise internal/chaos internal/ares internal/mitigate internal/tensor internal/crossbar internal/core internal/bitstream internal/quant internal/stats

.PHONY: all check fmt build test race race-fast vet vet-perfbench cover fuzz fleet-crash chaos bench serve-smoke examples-smoke paper-golden clean

all: check race

check: fmt build test vet vet-perfbench race-fast serve-smoke examples-smoke chaos

# Fails when any Go file (perfbench included) is not gofmt-formatted,
# listing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# perfbench is its own module (repro/perfbench, `replace repro => ../`),
# so the root `go build ./...` never compiles it: an API change that
# breaks the benchmark would otherwise surface only when it runs.
vet-perfbench:
	GOFLAGS=-mod=mod $(GO) -C perfbench vet ./...

# The race tier runs -short so the exploration-scale benchmarks and the
# slowest campaigns stay out of the hot CI path; the campaign engine's
# concurrency tests always run under it.
race: vet
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/campaign/... ./internal/stats/...

# The telemetry registry, the instrumented campaign engine, the replica
# pool and the Forwarder (replicas read shared cached activations), the
# explorer (it profiles layers on concurrent goroutines, each owning an
# ares.Prober over shared pristine encodings), the fleet lease protocol,
# and the parallel tensor kernels are the most concurrency-sensitive
# pieces; they get a dedicated race pass in tier 1 so a data race cannot
# land even when the full race tier is skipped.
race-fast:
	$(GO) test -race ./internal/campaign/... ./internal/telemetry/... ./internal/ares/... ./internal/core/... ./internal/dnn/... ./internal/sparse/... ./internal/tensor/... ./internal/crossbar/... ./internal/fleet/... ./internal/serve/... ./internal/supervise/... ./internal/chaos/...

# The server's own end-to-end smoke: train, serve every endpoint on an
# ephemeral port, scrape /metrics, drain.
serve-smoke:
	$(GO) run ./cmd/servesim -smoke

# The iot-keyword example measures a naive and a co-designed storage
# configuration with real fault-injected inference; it must keep
# concluding that the co-designed one is safe and the naive one is not.
examples-smoke:
	@out=$$($(GO) run ./examples/iot-keyword) || exit 1; echo "$$out"; \
	echo "$$out" | grep -qF 'co-designed configuration is safe; naive MLC3 storage is not.' || \
		{ echo "examples-smoke: iot-keyword verdict missing"; exit 1; }

# The whole paper: the stdout of `maxnvm all` at its defaults must
# equal $(PAPER_GOLDEN) byte for byte, so a kernel, codec or sampler
# change cannot move a table unnoticed. It takes ~15 s on 2 cores,
# so it stays out of `go test ./...`. When the science is meant to
# move, regenerate with `make paper-golden UPDATE=1` and review the
# diff.
PAPER_GOLDEN = internal/exper/testdata/paper.golden

paper-golden:
	@out=$$(mktemp); \
	$(GO) run ./cmd/maxnvm all > $$out || { rm -f $$out; exit 1; }; \
	if [ -n "$(UPDATE)" ]; then mv $$out $(PAPER_GOLDEN); exit 0; fi; \
	diff -u $(PAPER_GOLDEN) $$out; rc=$$?; rm -f $$out; \
	[ $$rc -eq 0 ] || echo "paper-golden: maxnvm all drifted (make paper-golden UPDATE=1 if intended)"; \
	exit $$rc

# The fleet fault matrix, repeated to shake out schedule-dependent
# flakes: claim races, expiry steals with zombie fencing, simulated
# crashes between claim and first record, double merges, and the real
# kill -9 subprocess recovery test.
fleet-crash:
	$(GO) test -race -count=3 ./internal/fleet/

# The supervision soak: the chaos injector SIGKILLs and SIGSTOPs real
# campaignd-style subprocess workers on a seed-pinned schedule while a
# poison shard crashes every claimant, and the supervisor must converge
# — poison quarantined, healthy shards bit-identical to a clean run,
# zero stuck leases. Seed-pinned and bounded (~60s worst case), so it
# is deterministic enough to sit in tier 1.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Supervis|Quarantin|Poison' ./internal/supervise/ ./internal/chaos/ ./internal/fleet/

cover:
	@fail=0; \
	for pkg in $(COVER_PKGS); do \
		profile=$$(mktemp); \
		$(GO) test -coverprofile=$$profile ./$$pkg/ >/dev/null || { rm -f $$profile; exit 1; }; \
		pct=$$($(GO) tool cover -func=$$profile | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
		rm -f $$profile; \
		if awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(p+0 >= f+0) }'; then \
			printf "ok   %-22s %6s%%  (floor $(COVER_FLOOR)%%)\n" $$pkg $$pct; \
		else \
			printf "FAIL %-22s %6s%%  below the $(COVER_FLOOR)%% floor\n" $$pkg $$pct; fail=1; \
		fi; \
	done; \
	exit $$fail

fuzz:
	$(GO) test -fuzz=FuzzCSRDecode -fuzztime=$(FUZZTIME) ./internal/sparse/
	$(GO) test -fuzz=FuzzBitMaskDecode -fuzztime=$(FUZZTIME) ./internal/sparse/
	$(GO) test -fuzz=FuzzDecode24 -fuzztime=$(FUZZTIME) ./internal/sparse/
	$(GO) test -fuzz=FuzzRedecode -fuzztime=$(FUZZTIME) ./internal/sparse/
	$(GO) test -fuzz=FuzzECCCorrect -fuzztime=$(FUZZTIME) ./internal/ecc/
	$(GO) test -fuzz=FuzzLoadCheckpoint -fuzztime=$(FUZZTIME) ./internal/campaign/
	$(GO) test -fuzz=FuzzDecodeRequest -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzParseLease -fuzztime=$(FUZZTIME) ./internal/fleet/
	$(GO) test -fuzz=FuzzParseHeartbeat -fuzztime=$(FUZZTIME) ./internal/fleet/
	$(GO) test -fuzz=FuzzKMeans1D -fuzztime=$(FUZZTIME) ./internal/stats/
	$(GO) test -fuzz=FuzzMulABt -fuzztime=$(FUZZTIME) ./internal/tensor/
	$(GO) test -fuzz=FuzzForwardRows -fuzztime=$(FUZZTIME) ./internal/dnn/

bench:
	$(GO) test -bench=. -benchmem .

clean:
	$(GO) clean -testcache

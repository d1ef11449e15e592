# Verify tiers for the MaxNVM reproduction.
#
#   make check   - tier 1: build + full test suite + vet (including the
#                  perfbench module, which `go build ./...` skips) + race
#                  pass on the concurrency-heavy packages (the seed
#                  contract) + the servesim end-to-end smoke
#   make race    - tier 2: go vet + race detector on a fast test pass
#   make cover   - per-package coverage floors on the core packages
#   make fleet-crash - the fleet fault matrix: lease races, zombie
#                  fencing, crash-between-claim-and-record, and the
#                  kill -9 subprocess recovery test, under -race
#   make chaos   - the supervision soak: real subprocess workers under a
#                  seed-pinned SIGKILL/SIGSTOP schedule plus a poison
#                  shard, proving quarantine + bit-identical recovery
#   make fuzz    - short fuzz pass over the sparse decode and
#                  checkpoint-loader targets
#   make bench   - full benchmark harness (regenerates every figure)
#   make bench-inference - tracked inference/campaign throughput baseline,
#                  written to BENCH_inference.json. To compare two
#                  revisions benchstat-style, save each run's stdout
#                  (e.g. `make bench-inference | tee old.txt`) and diff
#                  the ns/op, allocs/op, and trials/s columns; the JSON
#                  diff in review serves the same purpose.
#   make all     - check + race

GO      ?= go
FUZZTIME ?= 10s

# Coverage floor (percent) enforced per package by `make cover` — per
# package rather than aggregate so an untested package cannot hide
# behind a well-tested one.
COVER_FLOOR ?= 70
COVER_PKGS   = internal/campaign internal/envm internal/sparse internal/ecc internal/telemetry internal/cliutil internal/durable internal/errfs internal/fleet internal/serve internal/supervise internal/chaos internal/ares internal/mitigate internal/tensor internal/crossbar

.PHONY: all check build test race race-fast vet vet-perfbench cover fuzz fleet-crash chaos bench bench-inference bench-fleet bench-serve bench-crossbar serve-smoke clean

all: check race

check: build test vet vet-perfbench race-fast serve-smoke chaos

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
# pool, the fleet lease protocol, and the parallel tensor kernels are
# the most concurrency-sensitive pieces; they get a dedicated race pass
# in tier 1 so a data race cannot land even when the full race tier is
# skipped.
race-fast:
	$(GO) test -race ./internal/campaign/... ./internal/telemetry/... ./internal/ares/... ./internal/sparse/... ./internal/tensor/... ./internal/crossbar/... ./internal/fleet/... ./internal/serve/... ./internal/supervise/... ./internal/chaos/...

# The server's own end-to-end smoke: train, serve every endpoint on an
# ephemeral port, scrape /metrics, drain.
serve-smoke:
	$(GO) run ./cmd/servesim -smoke

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
	$(GO) test -fuzz=FuzzECCCorrect -fuzztime=$(FUZZTIME) ./internal/ecc/
	$(GO) test -fuzz=FuzzLoadCheckpoint -fuzztime=$(FUZZTIME) ./internal/campaign/
	$(GO) test -fuzz=FuzzDecodeRequest -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzParseLease -fuzztime=$(FUZZTIME) ./internal/fleet/
	$(GO) test -fuzz=FuzzParseHeartbeat -fuzztime=$(FUZZTIME) ./internal/fleet/
	$(GO) test -fuzz=FuzzCrossbarConfig -fuzztime=$(FUZZTIME) ./internal/crossbar/

bench:
	$(GO) test -bench=. -benchmem .

# The tracked baseline: campaign trial throughput (replica pool vs the
# serialized reference path) and the steady-state forward pass, teed
# through cmd/benchjson into BENCH_inference.json so the numbers land in
# review diffs.
bench-inference:
	$(GO) test -run '^$$' -bench 'TrialThroughput|ForwardAllocFree' -benchmem -benchtime=2s . \
		| $(GO) run ./cmd/benchjson -out BENCH_inference.json

# The tracked fleet baseline: end-to-end fleet runs at 1/2/4 workers vs
# the same campaign without the fleet, plus the raw lease-cycle cost,
# written to BENCH_fleet.json. On a single-core container the worker
# counts share one core and trials/s stays flat; the tracked signal is
# fleet overhead vs the baseline row (see internal/fleet/bench_test.go).
bench-fleet:
	$(GO) test -run '^$$' -bench 'Fleet' -benchmem -benchtime=2s ./internal/fleet/ \
		| $(GO) run ./cmd/benchjson -out BENCH_fleet.json

# The tracked crossbar baseline: compute-in-memory trial throughput
# (ADC-quantized analog kernels vs the digital dense route on identical
# effective weights, replica pool vs serialized oracle) plus the
# per-epoch cost of the online detect/remap/degrade loop, written to
# BENCH_crossbar.json (see bench_crossbar_test.go for the row-by-row
# comparisons).
bench-crossbar:
	$(GO) test -run '^$$' -bench 'Crossbar' -benchmem -benchtime=2s . \
		| $(GO) run ./cmd/benchjson -out BENCH_crossbar.json

# The tracked server baseline: a closed-loop client fleet against the
# batched evaluation server (real replica pool behind it), written to
# BENCH_serve.json. Tracked signals: req/s (throughput) and p99-ms
# (tail latency under the coalescing + admission path).
bench-serve:
	$(GO) test -run '^$$' -bench 'ServeLoad' -benchmem -benchtime=2s ./internal/serve/ \
		| $(GO) run ./cmd/benchjson -out BENCH_serve.json

clean:
	$(GO) clean -testcache

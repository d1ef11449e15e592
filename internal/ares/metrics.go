package ares

// Pipeline telemetry: per-phase timers over the trial pipeline
// (encode -> inject -> decode -> eval, see trial.go) and the
// encoding-cache hit/miss counters (the cache holds one encoding per
// format, so misses count encodes per kind), recorded into
// telemetry.Default().
// The handles are resolved once at package init; recording on the
// trial hot path is allocation-free (see internal/telemetry).
//
// Metric names:
//
//	ares.phase.encode    time spent building pristine encodings and
//	                     crossbar mappings (ns)
//	ares.phase.inject    time in inject+ECC incl. the cached-parity copy
//	                     (storage routes) or program+online loop (crossbar) (ns)
//	ares.phase.decode    time in the clean-layer check plus the decodes run (ns)
//	ares.decode.skipped  layer-trials served their reference without a decode
//	ares.phase.eval      time in overlay + inference on the dense-kernel
//	                     and crossbar routes, and in the serial reference (ns)
//	ares.enccache.hits   encoding-cache hits
//	ares.enccache.misses encoding-cache misses: pristine encodes
//	                     performed, at most one per encoding format
//	                     (and one per crossbar mapping design point)
//
// Replica-pool measurement (measure, the parallel inference tail of
// every route):
//
//	ares.eval.parallel   wall time of measure incl. replica wait (ns)
//	ares.eval.direct     time in overlay + inference on the compute-direct
//	                     2:4 route (write-time and lifetime Kind24 trials):
//	                     dirty layers' decoded rows compacted into the
//	                     2:4 kernels, no dense weight matrix (ns)
//	ares.fastpath.hits   trials that reproduced their route's baseline
//	                     exactly (inference skipped, delta 0 by construction)
//	ares.fastpath.misses trials that required real inference
//	ares.prefix.skipped_layers weight layers whose computation prefix
//	                     reuse skipped, summed over measured trials: a
//	                     storage-route trial starts its pass at its first
//	                     corrupted weight layer, fed that layer's cached
//	                     baseline input (see pass in trial.go)
//	ares.prefix.skipped_rows rows of the first corrupted weight layer a
//	                     row-patched pass served from the cache, summed
//	                     over measured trials
//	ares.replicas.created model replicas materialized (lazy, <= GOMAXPROCS)
//	ares.replicas.busy   replicas currently checked out (occupancy gauge)
//
// Error-mitigation events (the lifetime subsystem, internal/mitigate):
//
//	ecc.corrected            blocks repaired by SEC-DED across all trials
//	ecc.detected             uncorrectable blocks reported by SEC-DED
//	mitigate.degrade.blocks  uncorrectable blocks zeroed by graceful decode
//	mitigate.scrub.epochs    lifetime epochs simulated
//	mitigate.scrub.rewrites  scrub rewrites performed (endurance spend)
//	mitigate.floor.violations lifetime trials whose delta breached the floor

import "repro/internal/telemetry"

var met = struct {
	encode, inject, decode, eval *telemetry.Timer
	evalParallel, evalDirect     *telemetry.Timer
	cacheHits, cacheMisses       *telemetry.Counter
	fastHits, fastMisses         *telemetry.Counter
	prefixSkipped, prefixRows    *telemetry.Counter
	decodeSkipped                *telemetry.Counter
	replicasCreated              *telemetry.Counter
	replicasBusy                 *telemetry.Gauge
	eccCorrected, eccDetected    *telemetry.Counter
	degradedBlocks               *telemetry.Counter
	scrubEpochs, scrubRewrites   *telemetry.Counter
	floorViolations              *telemetry.Counter
}{
	encode:          telemetry.Default().Timer("ares.phase.encode"),
	inject:          telemetry.Default().Timer("ares.phase.inject"),
	decode:          telemetry.Default().Timer("ares.phase.decode"),
	eval:            telemetry.Default().Timer("ares.phase.eval"),
	evalParallel:    telemetry.Default().Timer("ares.eval.parallel"),
	evalDirect:      telemetry.Default().Timer("ares.eval.direct"),
	cacheHits:       telemetry.Default().Counter("ares.enccache.hits"),
	cacheMisses:     telemetry.Default().Counter("ares.enccache.misses"),
	fastHits:        telemetry.Default().Counter("ares.fastpath.hits"),
	fastMisses:      telemetry.Default().Counter("ares.fastpath.misses"),
	prefixSkipped:   telemetry.Default().Counter("ares.prefix.skipped_layers"),
	prefixRows:      telemetry.Default().Counter("ares.prefix.skipped_rows"),
	decodeSkipped:   telemetry.Default().Counter("ares.decode.skipped"),
	replicasCreated: telemetry.Default().Counter("ares.replicas.created"),
	replicasBusy:    telemetry.Default().Gauge("ares.replicas.busy"),
	eccCorrected:    telemetry.Default().Counter("ecc.corrected"),
	eccDetected:     telemetry.Default().Counter("ecc.detected"),
	degradedBlocks:  telemetry.Default().Counter("mitigate.degrade.blocks"),
	scrubEpochs:     telemetry.Default().Counter("mitigate.scrub.epochs"),
	scrubRewrites:   telemetry.Default().Counter("mitigate.scrub.rewrites"),
	floorViolations: telemetry.Default().Counter("mitigate.floor.violations"),
}

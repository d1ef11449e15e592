package ares

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/sparse"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/train"
)

// The trial pipeline. Every route — decode-to-dense (corruptDense),
// compute-direct 2:4 (corrupt24, direct24.go) and crossbar
// compute-in-memory (corruptXbar, xbar.go) — supplies only its corrupt
// step: per-layer corruption statistics plus the operand each corrupted
// layer runs on, and the baseline its deltas are measured against. The
// rest is shared: aggregate folds the statistics, measure runs the
// replica pool, and measureSerial is the one serialized reference.

// layerTrial is one weight layer of a corrupted trial: its corruption
// statistics and the operand it runs on. At most one operand field is
// set; none means the layer runs on the pristine snapshot.
type layerTrial struct {
	st TrialStats
	// idx holds decoded cluster indices (a private dense buffer).
	idx []uint8
	// vals/pos hold a corrupted canonical 2:4 compact form (a private
	// compute-direct buffer).
	vals, pos []uint8
	// s24 is the evaluator's shared pristine 2:4 weights (read-only).
	s24 *tensor.Sparse24
	// w and x are borrowed from a crossbar trial: effective dense
	// weights (ideal ADC) or the ADC kernel handle.
	w *tensor.Matrix
	x *tensor.Xbar
}

// trial is one corrupted trial, ready to measure.
type trial struct {
	layers []layerTrial
	stats  TrialStats
	// pristine reports that the trial reproduces the route's baseline
	// exactly, so its delta is 0 without inference (the fast path).
	pristine bool
	baseline float64
	// timer is the route's eval timer (the serial reference always
	// records ares.phase.eval).
	timer *telemetry.Timer
}

// corrupt validates cfg and runs the corrupt step of the route it
// selects, drawing per-layer seeds from tsrc in layer order. direct
// picks the compute-direct route for Kind24; the serial reference
// passes false to decode Kind24 to dense instead (its bit-parity
// oracle).
func (ev *MeasuredEvaluator) corrupt(ctx context.Context, cfg Config, tsrc *stats.Source, direct bool) (trial, error) {
	if err := cfg.Validate(); err != nil {
		return trial{}, err
	}
	switch {
	case cfg.Crossbar != nil:
		return ev.corruptXbar(ctx, cfg, tsrc)
	case direct && cfg.Encoding == sparse.Kind24:
		return ev.corrupt24(ctx, cfg, tsrc)
	}
	return ev.corruptDense(ctx, cfg, tsrc)
}

// corruptDense runs the encode -> inject -> decode stages of the
// decode-to-dense route: every layer's decoded cluster indices.
func (ev *MeasuredEvaluator) corruptDense(ctx context.Context, cfg Config, tsrc *stats.Source) (trial, error) {
	encs, err := ev.encodings(cfg)
	if err != nil {
		return trial{}, err
	}
	refs, baseline, err := ev.refFor(cfg)
	if err != nil {
		return trial{}, err
	}
	layers := make([]layerTrial, len(ev.clustered))
	for i, cl := range ev.clustered {
		st, decoded, err := RunTrialChecked(ctx, encs[i], refs[i], cl.Centroids, cfg, tsrc.Uint64())
		if err != nil {
			return trial{}, err
		}
		layers[i] = layerTrial{st: st, idx: decoded}
	}
	if err := ctx.Err(); err != nil {
		return trial{}, err
	}
	return ev.decodedTrial(layers, refs, baseline)
}

// decodedTrial completes a decode-to-dense trial whose layers carry
// decoded indices (idx): it validates their shapes, marks the trial
// pristine when every layer equals its reference (refs and baseline
// come from refFor), and keeps an overlay only where the decoded
// indices differ from the clustered snapshot — on the Kind24 oracle
// route a clean layer decodes to the projected indices, which still
// differ from it.
func (ev *MeasuredEvaluator) decodedTrial(layers []layerTrial, refs [][]uint8, baseline float64) (trial, error) {
	if len(layers) != len(ev.clustered) {
		return trial{}, fmt.Errorf("ares: %d decoded layers vs %d clustered", len(layers), len(ev.clustered))
	}
	tr := trial{layers: layers, pristine: true, baseline: baseline, timer: met.eval}
	for i, cl := range ev.clustered {
		lt := &layers[i]
		if len(lt.idx) != len(cl.Indices) {
			return trial{}, fmt.Errorf("ares: layer %d: %d decoded indices vs %d weights", i, len(lt.idx), len(cl.Indices))
		}
		tr.pristine = tr.pristine && bytes.Equal(lt.idx, refs[i])
		if bytes.Equal(lt.idx, cl.Indices) {
			lt.idx = nil
		}
	}
	tr.stats = ev.aggregate(layers)
	return tr, nil
}

// aggregate folds per-layer statistics into the trial's: counts sum,
// fractions are weight-count-weighted means over the model.
func (ev *MeasuredEvaluator) aggregate(layers []layerTrial) TrialStats {
	var agg TrialStats
	for i, lt := range layers {
		agg.Faults += lt.st.Faults
		agg.Corrected += lt.st.Corrected
		agg.Detected += lt.st.Detected
		agg.DegradedBlocks += lt.st.DegradedBlocks
		w := float64(len(ev.clustered[i].Indices))
		agg.StructFrac += lt.st.StructFrac * w
		agg.Mismatch += lt.st.Mismatch * w
		agg.ValueNSR += lt.st.ValueNSR * w
	}
	total := float64(ev.totalWeights())
	agg.StructFrac /= total
	agg.Mismatch /= total
	agg.ValueNSR /= total
	return agg
}

// measure is the replica-pool measurement every hot-path trial ends in:
// the fast path when the trial is pristine, otherwise check out a
// replica, overlay the corrupted layers, and run real inference.
// Concurrent calls proceed in parallel up to the pool size.
func (ev *MeasuredEvaluator) measure(tr trial) float64 {
	if tr.pristine {
		met.fastHits.Inc()
		return 0
	}
	met.fastMisses.Inc()
	waitStart := time.Now()
	r := ev.checkout()
	defer ev.checkin(r)
	evalStart := time.Now()
	r.overlay(ev, tr.layers)
	delta := train.ErrorWith(r.fw, ev.Test) - tr.baseline
	tr.timer.Since(evalStart)
	met.evalParallel.Since(waitStart)
	if delta < 0 {
		delta = 0
	}
	return delta
}

// measureSerial is the serialized reference measurement: it overlays
// the trial on the evaluator's own model under ev.mu and always runs
// inference (no fast path), so the replica pool and the fast path are
// pinned against it bit for bit.
func (ev *MeasuredEvaluator) measureSerial(tr trial) float64 {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	evalStart := time.Now()
	ev.serial.overlay(ev, tr.layers)
	delta := train.Error(ev.Model, ev.Test) - tr.baseline
	ev.serial.reset(ev)
	met.eval.Since(evalStart)
	if delta < 0 {
		delta = 0
	}
	return delta
}

package ares

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/dnn"
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
	// rows lists the rows where a dirty layer differs from its baseline.
	rows []int
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

// dirty reports whether the layer runs on a private corrupted operand
// (idx or vals). A layer on the shared pristine 2:4 weights (s24) runs
// on its route's baseline, so it is not dirty.
func (lt *layerTrial) dirty() bool { return lt.idx != nil || lt.vals != nil }

// trial is one corrupted trial, ready to measure.
type trial struct {
	layers []layerTrial
	stats  TrialStats
	// pristine reports that the trial reproduces the route's baseline
	// exactly, so its delta is 0 without inference (the fast path).
	pristine bool
	baseline float64
	// prefix is the route baseline's cached weight-layer inputs (see
	// capturePrefix), from which measure starts the pass at the first
	// dirty layer. Nil on the crossbar route: its trials corrupt every
	// layer.
	prefix []*tensor.Tensor4
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
	encs, err := ev.encodings(cfg.Encoding)
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
// indices differ from the clustered snapshot, listing the rows that
// differ — on the Kind24 oracle and lifetime routes a clean layer
// decodes to the projected indices, which still differ from it.
func (ev *MeasuredEvaluator) decodedTrial(layers []layerTrial, refs [][]uint8, baseline float64) (trial, error) {
	if len(layers) != len(ev.clustered) {
		return trial{}, fmt.Errorf("ares: %d decoded layers vs %d clustered", len(layers), len(ev.clustered))
	}
	tr := trial{layers: layers, pristine: true, baseline: baseline, prefix: ev.prefix, timer: met.eval}
	for i, cl := range ev.clustered {
		lt := &layers[i]
		if len(lt.idx) != len(cl.Indices) {
			return trial{}, fmt.Errorf("ares: layer %d: %d decoded indices vs %d weights", i, len(lt.idx), len(cl.Indices))
		}
		tr.pristine = tr.pristine && bytes.Equal(lt.idx, refs[i])
		if lt.rows = diffRows(cl.Cols, [2][]uint8{lt.idx, cl.Indices}); lt.rows == nil {
			lt.idx = nil
		}
	}
	tr.stats = ev.aggregate(layers)
	return tr, nil
}

// diffRows returns, ascending, the rows of width entries each on which
// some pair's two matrices differ, or nil when none does.
func diffRows(width int, pairs ...[2][]uint8) (rows []int) {
	for lo := 0; lo < len(pairs[0][0]); lo += width {
		for _, p := range pairs {
			if !bytes.Equal(p[0][lo:lo+width], p[1][lo:lo+width]) {
				rows = append(rows, lo/width)
				break
			}
		}
	}
	return rows
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
// replica and run real inference on it (see pass). Concurrent calls
// proceed in parallel up to the pool size.
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
	delta := 1 - train.AccuracyOf(ev.pass(r, tr), ev.Test) - tr.baseline
	tr.timer.Since(evalStart)
	met.evalParallel.Since(waitStart)
	if delta < 0 {
		delta = 0
	}
	return delta
}

// capturePrefix records, from fw's just-finished baseline pass over
// ev.Test, the input of every weight layer a trial's pass may start at:
// each one at a legal cut (dnn.Model.CanCut). Other ordinals stay nil.
// Only the weight layers' inputs are kept, not every activation of the
// pass; model layer 0's input is the test batch itself.
func (ev *MeasuredEvaluator) capturePrefix(fw *dnn.Forwarder) []*tensor.Tensor4 {
	prefix := make([]*tensor.Tensor4, len(ev.layerIdx))
	for o, li := range ev.layerIdx {
		switch {
		case li == 0:
			prefix[o] = ev.Test.Images
		case ev.pristine.CanCut(li):
			prefix[o] = fw.Input(li).Clone()
		}
	}
	return prefix
}

// pass overlays tr on replica r and returns its logits. The layers
// before the first dirty weight layer o, and o's clean rows, run on the
// route baseline's operands, so the cached inputs are what a full pass
// computes: the pass starts at o, or runs only o's dirty rows when o's
// tail ends at weight layer o+1 (dnn.Forwarder.ForwardRows). A route
// without o's input cached runs the full pass.
func (ev *MeasuredEvaluator) pass(r *replica, tr trial) *tensor.Matrix {
	o := slices.IndexFunc(tr.layers, func(lt layerTrial) bool { return lt.dirty() })
	if o < 0 || tr.prefix == nil || tr.prefix[o] == nil {
		r.overlay(ev, tr.layers, 0)
		return r.fw.Forward(ev.Test.Images)
	}
	met.prefixSkipped.Add(int64(o))
	k, lt := ev.layerIdx[o], &tr.layers[o]
	if o+1 < len(tr.prefix) && tr.prefix[o+1] != nil && ev.pristine.RowCut(k) == ev.layerIdx[o+1] {
		met.prefixRows.Add(int64(ev.clustered[o].Rows - len(lt.rows)))
		r.overlay(ev, tr.layers, o+1)
		return r.fw.ForwardRows(k, lt.rows, r.decode(ev, o, lt, lt.rows), tr.prefix[o], tr.prefix[o+1])
	}
	r.overlay(ev, tr.layers, o)
	return r.fw.ForwardFrom(k, tr.prefix[o])
}

// measureSerial is the serialized reference measurement: it overlays
// the trial on the evaluator's own model under ev.mu and always runs
// inference (no fast path), so the replica pool and the fast path are
// pinned against it bit for bit.
func (ev *MeasuredEvaluator) measureSerial(tr trial) float64 {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	evalStart := time.Now()
	ev.serial.overlay(ev, tr.layers, 0)
	delta := train.Error(ev.Model, ev.Test) - tr.baseline
	ev.serial.reset(ev)
	met.eval.Since(evalStart)
	if delta < 0 {
		delta = 0
	}
	return delta
}

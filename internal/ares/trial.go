package ares

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/dnn"
	"repro/internal/ecc"
	"repro/internal/sparse"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/train"
)

// The trial pipeline. Every route — storage (corruptStorage: every
// encoding, measured on the dense kernels or, on the compute-direct 2:4
// route, on the 2:4 kernels, direct24.go) and crossbar
// compute-in-memory (corruptXbar, xbar.go) — supplies only its corrupt
// step: per-layer corruption statistics plus the operand each corrupted
// layer runs on, and the baseline its deltas are measured against. The
// rest is shared: aggregate folds the statistics, measure runs the
// replica pool, and measureSerial is the one full-pass reference.

// layerTrial is one weight layer of a corrupted trial: its corruption
// statistics and the operand it runs on. None set means the layer runs
// on the pristine snapshot.
type layerTrial struct {
	st TrialStats
	// rows lists the rows where a dirty layer differs from its route's
	// clean operand.
	rows []int
	// idx holds decoded cluster indices (private, or a clean layer's ref).
	idx []uint8
	// s24 is the evaluator's shared pristine 2:4 weights (read-only): the
	// layer runs on the 2:4 kernels, on s24 itself when idx is nil and on
	// idx compacted otherwise.
	s24 *tensor.Sparse24
	// w and x are borrowed from a crossbar trial: effective dense
	// weights (ideal ADC) or the ADC kernel handle.
	w *tensor.Matrix
	x *tensor.Xbar
}

// dirty reports whether the layer runs on a private corrupted operand
// (idx). A layer on the shared pristine 2:4 weights alone runs on its
// route's baseline, so it is not dirty.
func (lt *layerTrial) dirty() bool { return lt.idx != nil }

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
	// sc is the storage trial's scratch, which holds its decoded
	// indices and dirty rows: release returns it once the trial is
	// measured. Nil on the crossbar route.
	sc *trialScratch
}

// trialScratch is the reusable working state of one in-flight storage
// trial in one format, so that a trial allocates nothing: the layer
// slice, each layer's working copy of the pristine encoding with its
// streams, decode buffer and ECC codewords, and each layer's dirty-row
// list. Between trials every working stream holds its pristine bits,
// and the format's idle list (formatCache.idle) hands a scratch to one
// trial at a time.
type trialScratch struct {
	fc     *formatCache
	cfg    Config
	layers []layerTrial
	work   []stored
	rows   [][]int
}

// acquire takes an idle scratch of fc, or builds one by cloning the
// pristine encodings, and readies it for a trial under cfg.
func (ev *MeasuredEvaluator) acquire(fc *formatCache, cfg Config) (*trialScratch, error) {
	var sc *trialScratch
	fc.mu.Lock()
	if n := len(fc.idle); n > 0 {
		sc, fc.idle = fc.idle[n-1], fc.idle[:n-1]
	}
	fc.mu.Unlock()
	if sc == nil {
		n := len(ev.clustered)
		sc = &trialScratch{fc: fc, layers: make([]layerTrial, n), work: make([]stored, n), rows: make([][]int, n)}
		for i, enc := range fc.encs {
			clone, err := sparse.CloneEncoding(enc)
			if err != nil {
				return nil, err
			}
			streams := clone.Streams()
			sc.work[i] = stored{clone, streams, make([]uint8, len(ev.clustered[i].Indices)), make([]ecc.Protected, len(streams))}
		}
	}
	sc.cfg = cfg
	return sc, nil
}

// release returns the trial's scratch, if any, to its format's idle
// list: it keeps the grown dirty-row lists and copies the pristine bits
// back into every stream the trial's config stores imperfectly, the
// only ones a trial writes.
func (tr *trial) release() {
	sc := tr.sc
	if sc == nil {
		return
	}
	tr.sc = nil
	for i, w := range sc.work {
		sc.rows[i] = sc.layers[i].rows[:0]
		for s, st := range w.streams {
			if sc.cfg.PolicyFor(st.Name).BPC != 0 {
				st.Bits.CopyFrom(sc.fc.streams[i][s].Bits)
			}
		}
	}
	sc.cfg = Config{}
	sc.fc.mu.Lock()
	sc.fc.idle = append(sc.fc.idle, sc)
	sc.fc.mu.Unlock()
}

// corrupt validates cfg and runs the corrupt step of the route it
// selects, drawing per-layer seeds from tsrc in layer order. hot picks
// the hot path (storageStep's skips, and the compute-direct route for
// Kind24); the serial reference passes false for the full path, its
// bit-parity oracle.
func (ev *MeasuredEvaluator) corrupt(ctx context.Context, cfg Config, tsrc *stats.Source, hot bool) (trial, error) {
	if err := cfg.Validate(); err != nil {
		return trial{}, err
	}
	if cfg.Crossbar != nil {
		return ev.corruptXbar(ctx, cfg, tsrc)
	}
	return ev.corruptStorage(ctx, cfg, tsrc, hot)
}

// corruptStorage runs the encode -> inject -> decode stages of the
// storage route: every layer's decoded cluster indices, held in a
// trialScratch that the returned trial releases.
func (ev *MeasuredEvaluator) corruptStorage(ctx context.Context, cfg Config, tsrc *stats.Source, hot bool) (trial, error) {
	fc, err := ev.format(cfg.Encoding)
	if err != nil {
		return trial{}, err
	}
	refs, sigs, baseline, err := ev.refFor(cfg)
	if err != nil {
		return trial{}, err
	}
	sc, err := ev.acquire(fc, cfg)
	if err != nil {
		return trial{}, err
	}
	tr, err := ev.storageLayers(ctx, sc, refs, sigs, baseline, tsrc, hot)
	if err != nil {
		tr.release()
		return trial{}, err
	}
	return tr, nil
}

// storageLayers runs the storage step of every layer on sc's working
// encodings and completes the trial (see decodedTrial). The trial owns
// sc, also when it comes back with an error.
func (ev *MeasuredEvaluator) storageLayers(ctx context.Context, sc *trialScratch, refs [][]uint8, sigs []float64, baseline float64, tsrc *stats.Source, hot bool) (trial, error) {
	cfg := sc.cfg
	for i, cl := range ev.clustered {
		var pr *pristineLayer
		if hot {
			pr = &pristineLayer{ev, i, sc.fc.streams[i], sigs[i]}
		}
		st, decoded, err := storageStep(ctx, sc.work[i], pr, refs[i], cl.Centroids, cfg, stats.NewSource(tsrc.Uint64()))
		sc.layers[i] = layerTrial{st: st, idx: decoded, rows: sc.rows[i][:0]}
		if err != nil {
			return trial{sc: sc}, err
		}
	}
	if err := ctx.Err(); err != nil {
		return trial{sc: sc}, err
	}
	tr, err := ev.decodedTrial(sc.layers, refs, baseline, hot && cfg.Encoding == sparse.Kind24)
	tr.sc = sc
	return tr, err
}

// decodedTrial completes a storage trial whose layers carry decoded
// indices (idx): it validates their shapes, marks the trial pristine
// when every layer equals its reference (refs and baseline come from
// refFor), and keeps an overlay only where the decoded indices differ
// from the route's clean operand, listing the rows that differ. On the
// dense kernels that operand is the clustered snapshot (on the Kind24
// oracle a clean layer decodes to the projected indices, which still
// differ from it). On the compute-direct route (direct) it is the
// projected indices, and every layer carries their compact form, the
// pristine 2:4 weights.
func (ev *MeasuredEvaluator) decodedTrial(layers []layerTrial, refs [][]uint8, baseline float64, direct bool) (trial, error) {
	if len(layers) != len(ev.clustered) {
		return trial{}, fmt.Errorf("ares: %d decoded layers vs %d clustered", len(layers), len(ev.clustered))
	}
	tr := trial{layers: layers, pristine: true, baseline: baseline, prefix: ev.prefix, timer: met.eval}
	clean := ev.origIdx
	var tf *twofourState
	if direct {
		var err error
		if tf, err = ev.twofour(); err != nil {
			return trial{}, err
		}
		tr.prefix, tr.timer, clean = tf.prefix, met.evalDirect, tf.orig24
	}
	for i, cl := range ev.clustered {
		lt := &layers[i]
		if len(lt.idx) != len(cl.Indices) {
			return trial{}, fmt.Errorf("ares: layer %d: %d decoded indices vs %d weights", i, len(lt.idx), len(cl.Indices))
		}
		tr.pristine = tr.pristine && bytes.Equal(lt.idx, refs[i])
		if tf != nil {
			lt.s24 = tf.pristine24[i]
		}
		if lt.rows = diffRows(lt.rows[:0], cl.Cols, lt.idx, clean[i]); len(lt.rows) == 0 {
			lt.idx = nil
		}
	}
	tr.stats = ev.aggregate(layers)
	return tr, nil
}

// diffRows appends to rows, ascending, the rows of width entries each
// on which matrices a and b differ.
func diffRows(rows []int, width int, a, b []uint8) []int {
	for lo := 0; lo < len(a); lo += width {
		if !bytes.Equal(a[lo:lo+width], b[lo:lo+width]) {
			rows = append(rows, lo/width)
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

package ares

import (
	"context"
	"sync"
	"time"

	"repro/internal/dnn"
	"repro/internal/sparse"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// The compute-direct 2:4 trial route.
//
// For the lossless encodings a trial decodes the corrupted streams back
// to a dense index matrix and runs the dense kernels over it. For
// Kind24 that decode is pure overhead: the format is fixed-rate, so the
// corrupted streams canonicalize straight into the compact
// (value, position) form the tensor.Sparse24 kernels consume — half the
// MACs, no dense materialization anywhere on the hot path. The
// decode-to-dense route is kept (EvalTrialSerial) as the bit-parity
// reference oracle; the grid test in evaltrial24_test.go pins the two
// routes identical.
//
// Because the 2-of-4 projection is lossy, the 2:4 baseline is the
// *projected* model: pristine decode of E24 differs from the clustered
// indices wherever a group held 3+ nonzeros. Trial deltas are measured
// against baselineErr (the projected model's fault-free error) and
// corruption statistics against orig24 (the projected indices), so a
// trial reports only fault damage, never the static projection loss.

// twofourState is the evaluator's lazily-built pristine 2:4 state. It
// is parameter-free given the clustered layers: E24 depends only on
// (indices, shape, index bits, centroids), never on storage policies,
// so one state serves every Kind24 config.
type twofourState struct {
	once sync.Once
	err  error
	// encs holds the pristine per-layer encodings, from the evaluator's
	// encoding cache (trials clone).
	encs []*sparse.E24
	// orig24 holds the projected dense indices — the reference the
	// decode-to-dense oracle and the corruption statistics compare
	// against.
	orig24 [][]uint8
	// compVals/compPos hold the pristine canonical compact form; the
	// fast path is a row-by-row comparison against these.
	compVals, compPos [][]uint8
	// pristine24 holds the shared compute-direct weights for layers a
	// trial did not corrupt (replicas point at them read-only).
	pristine24 []*tensor.Sparse24
	// baselineErr is the fault-free error of the projected model,
	// measured once through the compute-direct kernels.
	baselineErr float64
	// prefix caches the projected model's input to each weight layer
	// over ev.Test (see capturePrefix).
	prefix []*tensor.Tensor4
}

// twofour builds (once) and returns the evaluator's pristine 2:4 state.
func (ev *MeasuredEvaluator) twofour() (*twofourState, error) {
	tf := &ev.tf
	tf.once.Do(func() {
		var encs []sparse.Encoding
		if encs, tf.err = ev.encodings(sparse.Kind24); tf.err != nil {
			return
		}
		n := len(ev.clustered)
		tf.encs = make([]*sparse.E24, n)
		tf.orig24 = make([][]uint8, n)
		tf.compVals = make([][]uint8, n)
		tf.compPos = make([][]uint8, n)
		tf.pristine24 = make([]*tensor.Sparse24, n)
		base := make([]layerTrial, n)
		for i, cl := range ev.clustered {
			enc := encs[i].(*sparse.E24)
			tf.encs[i] = enc
			tf.orig24[i] = enc.Decode()
			ne := sparse.Entries24(cl.Rows, cl.Cols)
			tf.compVals[i] = make([]uint8, ne)
			tf.compPos[i] = make([]uint8, ne)
			enc.CompactInto(tf.compVals[i], tf.compPos[i])
			s24 := tensor.NewSparse24(cl.Rows, cl.Cols)
			for j, v := range tf.compVals[i] {
				s24.Val[j] = cl.Centroids[v]
			}
			copy(s24.Pos, tf.compPos[i])
			tf.pristine24[i] = s24
			base[i].s24 = s24
		}
		// Projected-model baseline, measured through the same kernels the
		// trials use; the pass doubles as the route's prefix pass.
		var fw *dnn.Forwarder
		tf.baselineErr, fw = ev.baseline(base)
		tf.prefix = ev.capturePrefix(fw)
	})
	return tf, tf.err
}

// runTrial24 runs the inject -> canonicalize stages of one layer's 2:4
// trial: clone the pristine encoding, inject faults with the shared
// injectStreams loop (identical fault maps to the decode-to-dense
// oracle), and extract the corrupted canonical compact form. No dense
// matrix is built; the corruption statistics walk the compact groups in
// dense index order, so they are bit-identical to fillCorruption over
// the decoded matrix.
func runTrial24(ctx context.Context, enc *sparse.E24, orig24 []uint8, centroids []float32, cfg Config, seed uint64) (TrialStats, []uint8, []uint8, error) {
	var st TrialStats
	clone, err := sparse.CloneEncoding(enc)
	if err != nil {
		return st, nil, nil, err
	}
	e := clone.(*sparse.E24)
	if err := injectStreams(ctx, e, cfg, stats.NewSource(seed), &st); err != nil {
		return st, nil, nil, err
	}
	decodeStart := time.Now()
	ne := sparse.Entries24(e.RowsN, e.ColsN)
	vals := make([]uint8, ne)
	pos := make([]uint8, ne)
	e.CompactInto(vals, pos)
	met.decode.Since(decodeStart)
	fillCorruption24(&st, orig24, vals, pos, centroids, e.RowsN, e.ColsN)
	return st, vals, pos, nil
}

// fillCorruption24 computes the corruption statistics between the
// projected original indices and a corrupted canonical compact form,
// reconstructing each group's 4-slot window on the stack instead of
// materializing the decoded matrix. The walk visits dense positions in
// exactly fillCorruption's order with the same accumulation statements,
// so the resulting statistics are bit-identical to running
// fillCorruption over Decode()'s output.
func fillCorruption24(st *TrialStats, orig, vals, pos []uint8, centroids []float32, rows, cols int) {
	n := len(orig)
	if n == 0 {
		return
	}
	gpr := (cols + 3) / 4
	var mismatch, structN int
	var deltaSS, signalSS float64
	for r := 0; r < rows; r++ {
		for g := 0; g < gpr; g++ {
			var win [4]uint8
			e := (r*gpr + g) * 2
			if v := vals[e]; v != 0 {
				win[pos[e]] = v
			}
			if v := vals[e+1]; v != 0 {
				win[pos[e+1]] = v
			}
			lim := cols - g*4
			if lim > 4 {
				lim = 4
			}
			for p := 0; p < lim; p++ {
				o, d := orig[r*cols+g*4+p], win[p]
				wo := float64(centroids[o])
				signalSS += wo * wo
				if o == d {
					continue
				}
				mismatch++
				if (o == 0) != (d == 0) {
					structN++
				}
				wd := float64(centroids[d])
				deltaSS += (wd - wo) * (wd - wo)
			}
		}
	}
	st.Mismatch = float64(mismatch) / float64(n)
	st.StructFrac = float64(structN) / float64(n)
	if signalSS > 0 {
		st.ValueNSR = deltaSS / signalSS
	} else if deltaSS > 0 {
		st.ValueNSR = 1
	}
}

// corrupt24 is the compute-direct route's corrupt step: the same
// per-layer seeds as corruptDense, but each layer yields its canonical
// compact form instead of a decoded dense matrix. Canonicalization
// makes compact equality equivalent to decoded-matrix equality, so a
// layer equal to its pristine compact runs on the shared pristine 2:4
// weights and a trial with every layer equal takes the fast path. On a
// miss every weight layer runs on the 2:4 kernels, measured against the
// projected-model baseline.
func (ev *MeasuredEvaluator) corrupt24(ctx context.Context, cfg Config, tsrc *stats.Source) (trial, error) {
	tf, err := ev.twofour()
	if err != nil {
		return trial{}, err
	}
	tr := trial{layers: make([]layerTrial, len(ev.clustered)), pristine: true, baseline: tf.baselineErr,
		prefix: tf.prefix, timer: met.evalDirect}
	for i, cl := range ev.clustered {
		st, vals, pos, err := runTrial24(ctx, tf.encs[i], tf.orig24[i], cl.Centroids, cfg, tsrc.Uint64())
		if err != nil {
			return trial{}, err
		}
		lt := &tr.layers[i]
		lt.st = st
		ne := 2 * tf.pristine24[i].GroupsPerRow
		if lt.rows = diffRows(ne, [2][]uint8{vals, tf.compVals[i]}, [2][]uint8{pos, tf.compPos[i]}); lt.rows == nil {
			lt.s24 = tf.pristine24[i]
		} else {
			lt.vals, lt.pos = vals, pos
			tr.pristine = false
		}
	}
	if err := ctx.Err(); err != nil {
		return trial{}, err
	}
	tr.stats = ev.aggregate(tr.layers)
	return tr, nil
}

package ares

import (
	"sync"

	"repro/internal/dnn"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// The compute-direct 2:4 trial route.
//
// A Kind24 trial runs the storage step every format runs (storageStep:
// inject, ECC-correct, decode, compare) and differs only in what it is
// measured on. The decoded rows of a dirty layer are compacted into
// the (value, position) form the tensor.Sparse24 kernels consume (half
// the MACs, no dense weight matrix), and a clean layer runs on the
// shared pristine 2:4 weights. The same trial on the dense kernels is
// kept (EvalTrialSerial) as the bit-parity reference oracle; the grid
// test in evaltrial24_test.go pins the two routes identical.
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
	// orig24 holds the projected dense indices — the reference the
	// corruption statistics and the dirty rows compare against — and
	// sig24 their signal sums.
	orig24 [][]uint8
	sig24  []float64
	// pristine24 holds orig24's compact form mapped through the
	// centroids: the shared compute-direct weights for layers a trial
	// did not corrupt (replicas point at them read-only).
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
		tf.orig24 = make([][]uint8, n)
		tf.sig24 = make([]float64, n)
		tf.pristine24 = make([]*tensor.Sparse24, n)
		base := make([]layerTrial, n)
		for i, cl := range ev.clustered {
			tf.orig24[i] = encs[i].Decode()
			tf.sig24[i] = signalSS(tf.orig24[i], cl.Centroids)
			s24 := tensor.NewSparse24(cl.Rows, cl.Cols)
			ne := 2 * s24.GroupsPerRow
			for r := 0; r < cl.Rows; r++ {
				sparse.Compact24Row(tf.orig24[i][r*cl.Cols:][:cl.Cols], cl.Centroids, s24.Val[r*ne:][:ne], s24.Pos[r*ne:][:ne])
			}
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

package ares

import (
	"runtime"
	"slices"

	"repro/internal/dnn"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// The inference replica pool: the parallel measurement tail of every
// trial route (see trial.go).
//
// A replica is a CloneShared copy of the evaluator's pristine model
// whose weight matrices point at the shared clustered snapshot; a trial
// checks out a replica, overlays ONLY the layers its route corrupted,
// runs the allocation-free Forwarder pass, and repoints the shared
// matrices on check-in. No trial writes the model the caller handed
// in, so W campaign workers run W passes at once, with no inference
// critical section. Replicas are created lazily up to GOMAXPROCS.
//
// Purity argument (why the (cfg, seed) contract survives): a trial's
// overlays are a pure function of (cfg, seed) — all randomness is drawn
// from stats.NewSource(seed) before measurement begins. The measurement
// itself is a deterministic function of the overlays alone: every
// replica holds bit-identical pristine weights (the shared snapshot),
// private buffers are fully overwritten before use, and the Forwarder's
// arithmetic is independent of worker count and replica identity.
// Prefix reuse keeps this: a pass starts at the trial's first dirty
// layer, fed that layer's input cached from the route baseline's pass
// (see capturePrefix and pass in trial.go). The cache depends only on
// the route baseline, and the per-element arithmetic does not depend on
// where a pass is split, so a cached prefix equals what the full pass
// computes. So does the row patch: a kernel computes each output
// channel from its own weight row alone (see tensor.Operand), so the
// clean channels of the first dirty layer are the cached ones. Replicas
// only read the cached tensors. measureSerial never reads them and
// stays the full-pass reference. Which replica serves a trial, and
// where its pass starts, therefore cannot affect its delta.

// replica is one checked-out-able inference engine. Route baselines and
// the serial reference measure on one-shot replicas outside the pool.
type replica struct {
	model *dnn.Model
	fw    *dnn.Forwarder
	// home[i] is weight-layer ordinal i's pristine dense matrix, which
	// reset repoints the layer back at.
	home []*tensor.Matrix
	// priv[i] and priv24[i] are the private dense and compute-direct
	// 2:4 buffers for weight-layer ordinal i, grown on first use (see
	// decode); all lists every row index.
	priv   []tensor.Matrix
	priv24 []tensor.Sparse24
	all    []int
	// dirty lists the ordinals whose layers currently carry an overlay,
	// so reset is O(corrupted layers).
	dirty []int
}

// newReplica clones the pristine model with shared storage and binds a
// serial (Workers=1) Forwarder: trial-level parallelism already fills
// the machine, so kernel-level goroutines would only add
// oversubscription and per-call allocations.
func (ev *MeasuredEvaluator) newReplica() *replica {
	n := len(ev.clustered)
	r := &replica{
		model:  ev.pristine.CloneShared(),
		home:   make([]*tensor.Matrix, n),
		priv:   make([]tensor.Matrix, n),
		priv24: make([]tensor.Sparse24, n),
		dirty:  make([]int, 0, n),
	}
	for i, li := range ev.layerIdx {
		r.home[i] = r.model.Layers[li].Weights
	}
	r.fw = dnn.NewForwarder(r.model)
	r.fw.Workers = 1
	return r
}

// overlay installs the operand of every layer from ordinal from on (a
// pass that starts later never reads the layers before). A layer with
// no operand keeps the pristine snapshot.
func (r *replica) overlay(ev *MeasuredEvaluator, layers []layerTrial, from int) {
	for i := from; i < len(layers); i++ {
		lt := &layers[i]
		l := r.model.Layers[ev.layerIdx[i]]
		switch {
		case lt.idx != nil && lt.s24 != nil:
			l.Weights24 = r.decode(ev, i, lt, nil).(*tensor.Sparse24)
		case lt.idx != nil:
			l.Weights = r.decode(ev, i, lt, nil).(*tensor.Matrix)
		case lt.s24 != nil:
			l.Weights24 = lt.s24
		case lt.w != nil:
			l.Weights = lt.w
		case lt.x != nil:
			l.WeightsXbar = lt.x
		default:
			continue
		}
		r.dirty = append(r.dirty, i)
	}
}

// decode fills ordinal i's private buffer with the listed rows (all
// when nil) of the trial's corrupted indices and returns it: mapped
// through the centroids into a dense matrix, or, on a layer that runs
// on the 2:4 kernels, compacted (sparse.Compact24Row) into a 2:4 one.
func (r *replica) decode(ev *MeasuredEvaluator, i int, lt *layerTrial, rows []int) tensor.Operand {
	cl := ev.clustered[i]
	for len(r.all) < cl.Rows {
		r.all = append(r.all, len(r.all))
	}
	if rows == nil {
		rows = r.all[:cl.Rows]
	}
	n := len(rows)
	if lt.s24 == nil {
		w := &r.priv[i]
		w.Reshape(n, cl.Cols)
		for j, row := range rows {
			for e, v := range lt.idx[row*cl.Cols:][:cl.Cols] {
				w.Data[j*cl.Cols+e] = cl.Centroids[v]
			}
		}
		return w
	}
	s, gpr := &r.priv24[i], lt.s24.GroupsPerRow
	ne := 2 * gpr
	*s = tensor.Sparse24{Rows: n, Cols: cl.Cols, GroupsPerRow: gpr,
		Val: slices.Grow(s.Val[:0], n*ne)[:n*ne], Pos: slices.Grow(s.Pos[:0], n*ne)[:n*ne]}
	for j, row := range rows {
		sparse.Compact24Row(lt.idx[row*cl.Cols:][:cl.Cols], cl.Centroids, s.Val[j*ne:][:ne], s.Pos[j*ne:][:ne])
	}
	return s
}

// reset repoints every overlaid layer back at its pristine dense
// matrix and clears its 2:4 and crossbar operands (either would
// otherwise shadow the dense weights for the next trial). Private
// buffers are kept for reuse.
func (r *replica) reset(ev *MeasuredEvaluator) {
	for _, i := range r.dirty {
		l := r.model.Layers[ev.layerIdx[i]]
		l.Weights, l.Weights24, l.WeightsXbar = r.home[i], nil, nil
	}
	r.dirty = r.dirty[:0]
}

// initReplicaPool sizes the pool to GOMAXPROCS at construction time.
// Replicas are created lazily: a serial caller only ever pays for one.
func (ev *MeasuredEvaluator) initReplicaPool() {
	size := runtime.GOMAXPROCS(0)
	if size < 1 {
		size = 1
	}
	ev.replicas = make(chan *replica, size)
	ev.replicaSem = make(chan struct{}, size)
}

// checkout returns an idle replica, creating one if the pool is below
// capacity, and blocking otherwise until a trial checks one in.
func (ev *MeasuredEvaluator) checkout() *replica {
	met.replicasBusy.Add(1)
	select {
	case r := <-ev.replicas:
		return r
	default:
	}
	select {
	case r := <-ev.replicas:
		return r
	case ev.replicaSem <- struct{}{}:
		met.replicasCreated.Inc()
		return ev.newReplica()
	}
}

// checkin resets the replica to pristine and returns it to the pool.
func (ev *MeasuredEvaluator) checkin(r *replica) {
	r.reset(ev)
	ev.replicas <- r
	met.replicasBusy.Add(-1)
}

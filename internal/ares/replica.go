package ares

import (
	"runtime"

	"repro/internal/dnn"
	"repro/internal/tensor"
)

// The inference replica pool: the parallel measurement tail of every
// trial route (see trial.go).
//
// The serial reference (measureSerial) mutates the ONE shared model
// under a mutex, so with W campaign workers the encode/inject/decode
// stages parallelize but every trial still funnels through a single
// inference critical section — the campaign's throughput ceiling is one
// core as soon as inference dominates. A replica is a CloneShared copy
// of the evaluator's pristine model whose weight matrices point at the
// shared clustered snapshot; a trial checks out a replica, overlays
// ONLY the layers its route corrupted, runs the allocation-free
// Forwarder pass, and repoints the shared matrices on check-in.
// Replicas are created lazily up to GOMAXPROCS.
//
// Purity argument (why the (cfg, seed) contract survives): a trial's
// overlays are a pure function of (cfg, seed) — all randomness is drawn
// from stats.NewSource(seed) before measurement begins. The measurement
// itself is a deterministic function of the overlays alone: every
// replica holds bit-identical pristine weights (the shared snapshot),
// private buffers are fully overwritten before use, and the Forwarder's
// arithmetic is independent of worker count and replica identity. Which
// replica serves a trial therefore cannot affect its delta.

// replica is one checked-out-able inference engine. The serial
// reference is a replica too: one over the evaluator's own model,
// measured with train.Error under ev.mu.
type replica struct {
	model *dnn.Model
	// fw is the replica's serial Forwarder (nil for the serial
	// reference, which measures through train.Error).
	fw *dnn.Forwarder
	// home[i] is weight-layer ordinal i's pristine dense matrix, which
	// reset repoints the layer back at.
	home []*tensor.Matrix
	// priv[i] and priv24[i] are the lazily materialized private dense
	// and compute-direct 2:4 buffers for weight-layer ordinal i.
	priv   []*tensor.Matrix
	priv24 []*tensor.Sparse24
	// dirty lists the ordinals whose layers currently carry an overlay,
	// so reset is O(corrupted layers).
	dirty []int
}

// newReplica wraps m, whose weight layers hold pristine dense weights.
func (ev *MeasuredEvaluator) newReplica(m *dnn.Model) *replica {
	n := len(ev.clustered)
	r := &replica{
		model:  m,
		home:   make([]*tensor.Matrix, n),
		priv:   make([]*tensor.Matrix, n),
		priv24: make([]*tensor.Sparse24, n),
		dirty:  make([]int, 0, n),
	}
	for i, li := range ev.layerIdx {
		r.home[i] = m.Layers[li].Weights
	}
	return r
}

// newPoolReplica clones the pristine model with shared storage and
// binds a serial (Workers=1) Forwarder: trial-level parallelism already
// fills the machine, so kernel-level goroutines would only add
// oversubscription and per-call allocations.
func (ev *MeasuredEvaluator) newPoolReplica() *replica {
	r := ev.newReplica(ev.pristine.CloneShared())
	r.fw = dnn.NewForwarder(r.model)
	r.fw.Workers = 1
	return r
}

// overlay installs every layer's operand for one measurement. A layer
// with no operand keeps the pristine snapshot.
func (r *replica) overlay(ev *MeasuredEvaluator, layers []layerTrial) {
	for i, lt := range layers {
		l := r.model.Layers[ev.layerIdx[i]]
		cl := ev.clustered[i]
		switch {
		case lt.idx != nil:
			if r.priv[i] == nil {
				r.priv[i] = tensor.NewMatrix(cl.Rows, cl.Cols)
			}
			for j, idx := range lt.idx {
				r.priv[i].Data[j] = cl.Centroids[idx]
			}
			l.Weights = r.priv[i]
		case lt.vals != nil:
			// No dense matrix is materialized on the 2:4 route.
			if r.priv24[i] == nil {
				r.priv24[i] = tensor.NewSparse24(cl.Rows, cl.Cols)
			}
			for j, v := range lt.vals {
				r.priv24[i].Val[j] = cl.Centroids[v]
			}
			copy(r.priv24[i].Pos, lt.pos)
			l.Weights24 = r.priv24[i]
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
		return ev.newPoolReplica()
	}
}

// checkin resets the replica to pristine and returns it to the pool.
func (ev *MeasuredEvaluator) checkin(r *replica) {
	r.reset(ev)
	ev.replicas <- r
	met.replicasBusy.Add(-1)
}

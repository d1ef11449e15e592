package ares

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/dnn"
	"repro/internal/quant"
	"repro/internal/sparse"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/train"
)

// MeasuredEvaluator runs *real inference* on a trained model with
// fault-injected weights — the ground-truth accuracy path used for the
// small models (Figure 5 reproduction) and for calibrating the surrogate.
type MeasuredEvaluator struct {
	Model *dnn.Model
	Test  *train.Dataset
	// BaselineErr is the fault-free classification error of the clustered
	// model (measured at construction).
	BaselineErr float64

	// layerIdx maps weight-layer ordinal to model layer index.
	layerIdx []int
	// clustered holds the pruned+clustered form of each weight layer.
	clustered []*quant.Clustered
	// origIdx aliases each clustered layer's pristine indices (the
	// reference matrix for lossless encodings; see refFor).
	origIdx [][]uint8
	// tf is the lazily-built compute-direct 2:4 state (see direct24.go).
	tf twofourState
	// prefix caches the clustered baseline's input to each weight layer
	// over Test, for the decode-to-dense route (see capturePrefix).
	prefix []*tensor.Tensor4

	// pristine shares the model's layers but holds a private copy of
	// the clustered weights taken at construction: pool replicas and
	// route baselines clone it, so they never observe the serial
	// reference's overlays on Model.
	pristine *dnn.Model
	// mu serializes the serial reference (measureSerial): it overlays
	// trials on the shared model itself (through serial), so only one
	// caller may occupy the model at a time. The hot path measures on a
	// checked-out replica (see replica.go) and never takes this lock.
	mu     sync.Mutex
	serial *replica
	// replicas holds idle inference replicas; replicaSem bounds lazy
	// replica creation to the pool capacity (see initReplicaPool).
	replicas   chan *replica
	replicaSem chan struct{}
	// encMu guards encCache: the pristine per-layer encodings of each
	// format, which depend on nothing else in a config (trials clone).
	encMu    sync.Mutex
	encCache map[sparse.Kind][]sparse.Encoding
	// xbarMu guards xbarCache (pristine crossbar mappings and their
	// mapped baselines, one per tech + mapping design point; see xbar.go).
	xbarMu    sync.Mutex
	xbarCache map[string]*xbarState
}

// NewMeasuredEvaluator prunes and clusters the trained model's weights
// (per its Meta), applies the clustered weights to the model (the
// iso-accuracy baseline includes quantization), and measures the
// fault-free baseline error.
func NewMeasuredEvaluator(m *dnn.Model, test *train.Dataset, seed uint64) (*MeasuredEvaluator, error) {
	if !m.Materialized() {
		return nil, fmt.Errorf("ares: model %q not materialized", m.Name)
	}
	ev := &MeasuredEvaluator{Model: m, Test: test}
	for i, l := range m.Layers {
		if !l.HasWeights() {
			continue
		}
		quant.Prune(l.Weights, m.Meta.TargetSparsity, seed+uint64(i))
		cl := quant.Cluster(l.Weights, m.Meta.ClusterIndexBits, quant.ClusterOptions{Seed: seed + uint64(i)})
		cl.Apply(l.Weights) // model now runs on clustered weights
		ev.layerIdx = append(ev.layerIdx, i)
		ev.clustered = append(ev.clustered, cl)
		ev.origIdx = append(ev.origIdx, cl.Indices)
	}
	ev.pristine = m.CloneShared()
	for li, w := range m.CloneWeights() {
		ev.pristine.Layers[li].Weights = w
	}
	// The baseline pass doubles as the decode-to-dense route's prefix
	// pass.
	var fw *dnn.Forwarder
	ev.BaselineErr, fw = ev.baseline(nil)
	ev.prefix = ev.capturePrefix(fw)
	ev.serial = ev.newReplica(m)
	ev.encCache = make(map[sparse.Kind][]sparse.Encoding)
	ev.xbarCache = make(map[string]*xbarState)
	ev.initReplicaPool()
	return ev, nil
}

// Clustered returns the pruned+clustered layers (weight-layer order).
func (ev *MeasuredEvaluator) Clustered() []*quant.Clustered { return ev.clustered }

// refFor returns the per-layer reference indices and the fault-free
// baseline error that trials under cfg measure against. Lossless
// encodings decode pristinely back to the clustered indices, so the
// references are the clustered layers and the clustered baseline.
// Kind24's 2-of-4 projection is lossy: its references are the projected
// indices and the projected-model baseline, so a trial's delta reports
// only fault damage, never the static projection loss.
func (ev *MeasuredEvaluator) refFor(cfg Config) ([][]uint8, float64, error) {
	if cfg.Encoding == sparse.Kind24 {
		tf, err := ev.twofour()
		if err != nil {
			return nil, 0, err
		}
		return tf.orig24, tf.baselineErr, nil
	}
	return ev.origIdx, ev.BaselineErr, nil
}

// encodings returns the pristine per-layer encodings in format kind,
// encoding each format once and caching the result (trials clone
// before mutating, so sharing the pristine encodings is safe).
func (ev *MeasuredEvaluator) encodings(kind sparse.Kind) ([]sparse.Encoding, error) {
	ev.encMu.Lock()
	defer ev.encMu.Unlock()
	if encs, ok := ev.encCache[kind]; ok {
		met.cacheHits.Inc()
		return encs, nil
	}
	met.cacheMisses.Inc()
	start := time.Now()
	encs := make([]sparse.Encoding, len(ev.clustered))
	for i, cl := range ev.clustered {
		enc, err := EncodeLayer(cl, Config{Encoding: kind})
		if err != nil {
			return nil, err
		}
		encs[i] = enc
	}
	met.encode.Since(start)
	ev.encCache[kind] = encs
	return encs, nil
}

// Bill returns the storage bill of cfg for each clustered layer, in
// weight-layer order: Cost of the layer's cached pristine encoding.
func (ev *MeasuredEvaluator) Bill(cfg Config) ([][]StreamCost, error) {
	encs, err := ev.encodings(cfg.Encoding)
	if err != nil {
		return nil, err
	}
	bill := make([][]StreamCost, len(encs))
	for i, enc := range encs {
		bill[i] = Cost(enc, cfg)
	}
	return bill, nil
}

// baseline measures a route's fault-free error over Test on a one-shot
// replica, outside the pool, overlaid with the route's pristine
// operands (none on the decode-to-dense route). It returns the
// replica's Forwarder too, from whose pass the caller may capture the
// route's prefix.
func (ev *MeasuredEvaluator) baseline(layers []layerTrial) (float64, *dnn.Forwarder) {
	r := ev.newPoolReplica()
	r.overlay(ev, layers, 0)
	return train.ErrorWith(r.fw, ev.Test), r.fw
}

// CorruptTrial runs only the corrupt step of one trial — no inference —
// on the route cfg selects (as EvalTrial does) and returns the
// aggregated corruption statistics. It serves callers that want the
// damage picture (fault counts, mismatch, value NSR) without paying for
// a measurement: the inject endpoint of the evaluation server, and any
// probe that triages configurations before spending inference on them.
// Same purity contract as EvalTrial: the outcome is a pure function of
// (cfg, seed).
func (ev *MeasuredEvaluator) CorruptTrial(ctx context.Context, cfg Config, seed uint64) (TrialStats, error) {
	tr, err := ev.corrupt(ctx, cfg, stats.NewSource(seed), true)
	return tr.stats, err
}

// EvalTrial runs ONE fault-injection trial under cfg with the given
// trial seed and returns the measured classification-error delta
// (clamped at 0) plus the aggregated corruption statistics.
//
// It is the campaign-engine entry point: errors are returned rather than
// panicking, a cancelled context aborts between layers, and concurrent
// calls are safe AND parallel end to end — the corrupt steps share
// nothing, and measurement runs on a checked-out model replica rather
// than a lock around the shared model, so up to GOMAXPROCS trials run
// inference simultaneously. Seeding contract: the per-layer seeds are
// drawn from stats.NewSource(seed), so the trial outcome is a pure
// function of (cfg, seed) regardless of worker interleaving or which
// replica serves the measurement (see replica.go for the argument).
//
// Crossbar configs take the compute-in-memory route (xbar.go); Kind24
// configs take the compute-direct route (direct24.go): the corrupted
// compressed streams go straight into the 2:4 sparse kernels with no
// dense materialization anywhere on the hot path.
func (ev *MeasuredEvaluator) EvalTrial(ctx context.Context, cfg Config, seed uint64) (float64, TrialStats, error) {
	tr, err := ev.corrupt(ctx, cfg, stats.NewSource(seed), true)
	if err != nil {
		return 0, TrialStats{}, err
	}
	return ev.measure(tr), tr.stats, nil
}

// EvalTrialSerial is EvalTrial measured through the serial reference
// (overlay the one shared model under a mutex, always run inference).
// The replica path and the fast path are pinned bit-identical to it by
// test, and the benchmark suite compares the two. For Kind24 it is the
// decode-to-dense oracle: the corrupted streams decode to a dense index
// matrix and run the dense kernels, pinning the compute-direct route by
// bit parity.
func (ev *MeasuredEvaluator) EvalTrialSerial(ctx context.Context, cfg Config, seed uint64) (float64, TrialStats, error) {
	tr, err := ev.corrupt(ctx, cfg, stats.NewSource(seed), false)
	if err != nil {
		return 0, TrialStats{}, err
	}
	return ev.measureSerial(tr), tr.stats, nil
}

func (ev *MeasuredEvaluator) totalWeights() int {
	n := 0
	for _, cl := range ev.clustered {
		n += len(cl.Indices)
	}
	return n
}

// IsolateStream builds a config where only the named stream is stored at
// the given policy and every other structure is perfect — the Figure 5
// experiment design ("assuming perfect storage of other structures to
// isolate the impact of faults").
func IsolateStream(tech Config, stream string, p StreamPolicy) Config {
	out := Config{
		Tech:     tech.Tech,
		Encoding: tech.Encoding,
		Default:  StreamPolicy{BPC: 0},
		Overrides: map[string]StreamPolicy{
			stream: p,
		},
	}
	return out
}

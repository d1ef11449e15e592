package ares

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/bitstream"
	"repro/internal/dnn"
	"repro/internal/ecc"
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
	// Model is the caller's trained model. Construction prunes and
	// clusters its weights in place; no trial writes it after that.
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
	// reference matrix for lossless encodings; see refFor), and origSig
	// holds their signal sums.
	origIdx [][]uint8
	origSig []float64
	// tf is the lazily-built compute-direct 2:4 state (see direct24.go).
	tf twofourState
	// prefix caches the clustered baseline's input to each weight layer
	// over Test, for the dense-kernel route (see capturePrefix).
	prefix []*tensor.Tensor4

	// pristine shares the model's layers but holds a private copy of
	// the clustered weights taken at construction. Every replica (see
	// replica.go) clones it, so no measurement reads or writes Model's
	// weight matrices.
	pristine *dnn.Model
	// replicas holds idle inference replicas; replicaSem bounds lazy
	// replica creation to the pool capacity (see initReplicaPool).
	replicas   chan *replica
	replicaSem chan struct{}
	// encMu guards encCache, one formatCache per format (its pristine
	// per-layer encodings; its idle trial scratches have their own
	// lock), and parCache, their parity (pristineLayer.protect).
	encMu    sync.Mutex
	encCache map[sparse.Kind]*formatCache
	parCache map[parityKey]*bitstream.Stream
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
		ev.origSig = append(ev.origSig, signalSS(cl.Indices, cl.Centroids))
	}
	ev.pristine = m.CloneShared()
	for li, w := range m.CloneWeights() {
		ev.pristine.Layers[li].Weights = w
	}
	// The baseline pass doubles as the dense-kernel route's prefix
	// pass.
	var fw *dnn.Forwarder
	ev.BaselineErr, fw = ev.baseline(nil)
	ev.prefix = ev.capturePrefix(fw)
	ev.encCache = make(map[sparse.Kind]*formatCache)
	ev.parCache = make(map[parityKey]*bitstream.Stream)
	ev.xbarCache = make(map[string]*xbarState)
	ev.initReplicaPool()
	return ev, nil
}

// measureSerial is the reference measurement: it overlays the trial on
// a one-shot replica and measures it with train.Error, whose Forwarder
// splits the kernels across GOMAXPROCS. It always runs the full pass
// (no fast path, no prefix, no row patch), so the replica pool and the
// fast path are pinned against it bit for bit.
func (ev *MeasuredEvaluator) measureSerial(tr trial) float64 {
	evalStart := time.Now()
	r := ev.newReplica()
	r.overlay(ev, tr.layers, 0)
	delta := train.Error(r.model, ev.Test) - tr.baseline
	met.eval.Since(evalStart)
	if delta < 0 {
		delta = 0
	}
	return delta
}

// Clustered returns the pruned+clustered layers (weight-layer order).
func (ev *MeasuredEvaluator) Clustered() []*quant.Clustered { return ev.clustered }

// refFor returns the per-layer reference indices, their signal sums
// and the fault-free baseline error that trials under cfg measure
// against. Lossless encodings decode pristinely back to the clustered
// indices, so the references are the clustered layers and the clustered
// baseline.
// Kind24's 2-of-4 projection is lossy: its references are the projected
// indices and the projected-model baseline, so a trial's delta reports
// only fault damage, never the static projection loss.
func (ev *MeasuredEvaluator) refFor(cfg Config) ([][]uint8, []float64, float64, error) {
	if cfg.Encoding == sparse.Kind24 {
		tf, err := ev.twofour()
		if err != nil {
			return nil, nil, 0, err
		}
		return tf.orig24, tf.sig24, tf.baselineErr, nil
	}
	return ev.origIdx, ev.origSig, ev.BaselineErr, nil
}

// formatCache is one format's pristine per-layer encodings and their
// streams (Streams order), which trials never write, and the idle trial
// scratches that hold working copies of them (see trialScratch). The
// idle list grows to the most trials ever in flight at once and never
// shrinks: unlike a sync.Pool, a garbage collection does not empty it,
// so a steady trial rate allocates nothing.
type formatCache struct {
	encs    []sparse.Encoding
	streams [][]*bitstream.Stream
	mu      sync.Mutex
	idle    []*trialScratch
}

// format returns the cache of format kind, encoding each format once.
func (ev *MeasuredEvaluator) format(kind sparse.Kind) (*formatCache, error) {
	ev.encMu.Lock()
	defer ev.encMu.Unlock()
	if fc, ok := ev.encCache[kind]; ok {
		met.cacheHits.Inc()
		return fc, nil
	}
	met.cacheMisses.Inc()
	start := time.Now()
	fc := &formatCache{
		encs:    make([]sparse.Encoding, len(ev.clustered)),
		streams: make([][]*bitstream.Stream, len(ev.clustered)),
	}
	for i, cl := range ev.clustered {
		enc, err := EncodeLayer(cl, Config{Encoding: kind})
		if err != nil {
			return nil, err
		}
		fc.encs[i], fc.streams[i] = enc, enc.Streams()
	}
	met.encode.Since(start)
	ev.encCache[kind] = fc
	return fc, nil
}

// encodings returns the pristine per-layer encodings in format kind
// (trials write only copies, so sharing them is safe).
func (ev *MeasuredEvaluator) encodings(kind sparse.Kind) ([]sparse.Encoding, error) {
	fc, err := ev.format(kind)
	if err != nil {
		return nil, err
	}
	return fc.encs, nil
}

// pristineLayer is layer i of ev's cached pristine encodings in one
// format, given by its streams, of which a trial injects a copy, and
// sig, the signal sum of the layer's reference (from refFor). A storage
// step handed one skips the work a stream equal to its pristine makes
// redundant; nil is the full path.
type pristineLayer struct {
	ev      *MeasuredEvaluator
	i       int
	streams []*bitstream.Stream
	sig     float64
}

// parityKey is (format, layer, stream, ECC data bits per block).
type parityKey [4]int

// protect protects data, a clone's stream s, under code: data equal to
// the pristine stream copies its parity, cached per (kind, layer, s,
// code), into a fresh codeword or, given buf, into buf's parity buffer,
// which it returns.
func (pr *pristineLayer) protect(kind sparse.Kind, s int, data *bitstream.Array, code ecc.BlockCode, buf *ecc.Protected) *ecc.Protected {
	if pr == nil || !data.Equal(pr.streams[s].Bits) {
		return code.Protect(data)
	}
	key := parityKey{int(kind), pr.i, s, code.DataBits}
	pr.ev.encMu.Lock()
	par, ok := pr.ev.parCache[key]
	if !ok {
		par = code.Protect(data).Parity
		pr.ev.parCache[key] = par
	}
	pr.ev.encMu.Unlock()
	if buf == nil {
		return &ecc.Protected{Code: code, Data: data, Parity: par.Clone()}
	}
	if buf.Parity == nil || buf.Parity.N != par.N {
		buf.Parity = par.Clone()
	} else {
		buf.Parity.Bits.CopyFrom(par.Bits)
	}
	buf.Code, buf.Data = code, data
	return buf
}

// signal returns the signal sum of ref, the layer's reference: cached
// on pr, computed in place on the full path.
func (pr *pristineLayer) signal(ref []uint8, centroids []float32) float64 {
	if pr == nil {
		return signalSS(ref, centroids)
	}
	return pr.sig
}

// clean reports whether every one of streams holds the pristine bits,
// so the layer decodes to its reference. The check counts as decode
// time.
func (pr *pristineLayer) clean(streams []*bitstream.Stream) bool {
	if pr == nil {
		return false
	}
	defer met.decode.Since(time.Now())
	eq := slices.EqualFunc(streams, pr.streams, func(a, b *bitstream.Stream) bool { return a.Bits.Equal(b.Bits) })
	if eq {
		met.decodeSkipped.Inc()
	}
	return eq
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
// operands (none on the dense-kernel route). It returns the
// replica's Forwarder too, from whose pass the caller may capture the
// route's prefix.
func (ev *MeasuredEvaluator) baseline(layers []layerTrial) (float64, *dnn.Forwarder) {
	r := ev.newReplica()
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
	tr.release()
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
// layers' decoded rows are compacted for the 2:4 sparse kernels, so no
// dense weight matrix is built anywhere on the hot path.
func (ev *MeasuredEvaluator) EvalTrial(ctx context.Context, cfg Config, seed uint64) (float64, TrialStats, error) {
	tr, err := ev.corrupt(ctx, cfg, stats.NewSource(seed), true)
	if err != nil {
		return 0, TrialStats{}, err
	}
	delta := ev.measure(tr)
	tr.release()
	return delta, tr.stats, nil
}

// EvalTrialSerial is EvalTrial measured through the reference (a full
// pass on a one-shot replica, always run, no fast path).
// The replica path and the fast path are pinned bit-identical to it by
// test, and the benchmark suite compares the two. For Kind24 it is the
// dense-kernel oracle: the decoded indices map to a dense weight matrix
// and run the dense kernels, pinning the compaction and the 2:4 kernels
// of the compute-direct route by bit parity.
func (ev *MeasuredEvaluator) EvalTrialSerial(ctx context.Context, cfg Config, seed uint64) (float64, TrialStats, error) {
	tr, err := ev.corrupt(ctx, cfg, stats.NewSource(seed), false)
	if err != nil {
		return 0, TrialStats{}, err
	}
	delta := ev.measureSerial(tr)
	tr.release()
	return delta, tr.stats, nil
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

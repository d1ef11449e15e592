package ares

// Prefix reuse: a replica pass starts at the trial's first dirty weight
// layer, fed that layer's cached baseline input. The grid below pins it
// bit-identical to the serial reference, which always runs the full
// pass, at every cut point.

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/dnn"
	"repro/internal/envm"
	"repro/internal/sparse"
	"repro/internal/stats"
	"repro/internal/train"
)

var (
	lenet5Once sync.Once
	lenet5Ev   *MeasuredEvaluator
	lenet5Err  error
)

// getLeNet5 returns a shared evaluator over an untrained but
// materialized LeNet5: bit parity depends on the weight values only.
func getLeNet5(t *testing.T) *MeasuredEvaluator {
	t.Helper()
	lenet5Once.Do(func() {
		m := dnn.LeNet5()
		m.InitWeights(29)
		test := train.Synthesize(train.SynthConfig{N: 48, H: 28, W: 28, Classes: 10, Seed: 13, ProtoSeed: 77})
		lenet5Ev, lenet5Err = NewMeasuredEvaluator(m, test, 5)
	})
	if lenet5Err != nil {
		t.Fatal(lenet5Err)
	}
	return lenet5Ev
}

// firstDirty returns the ordinal of tr's first dirty weight layer, or
// -1 when no layer is dirty.
func firstDirty(tr trial) int {
	for o := range tr.layers {
		if tr.layers[o].dirty() {
			return o
		}
	}
	return -1
}

// layerDirty reports whether weight layer o of the trial (cfg, seed)
// is dirty on the route EvalTrial takes, corrupting that layer alone:
// layer seeds are drawn from stats.NewSource(seed) in layer order, so
// each layer's corruption depends only on its own seed.
func layerDirty(t *testing.T, ev *MeasuredEvaluator, cfg Config, seed uint64, o int) bool {
	t.Helper()
	tsrc := stats.NewSource(seed)
	for i := 0; i < o; i++ {
		tsrc.Uint64()
	}
	ctx, cl := context.Background(), ev.clustered[o]
	if cfg.Encoding == sparse.Kind24 {
		tf, err := ev.twofour()
		if err != nil {
			t.Fatal(err)
		}
		_, vals, pos, err := runTrial24(ctx, tf.encs[o], tf.orig24[o], cl.Centroids, cfg, tsrc.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		return !bytes.Equal(vals, tf.compVals[o]) || !bytes.Equal(pos, tf.compPos[o])
	}
	encs, err := ev.encodings(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, decoded, err := RunTrialChecked(ctx, encs[o], cl.Indices, cl.Centroids, cfg, tsrc.Uint64())
	if err != nil {
		t.Fatal(err)
	}
	return !bytes.Equal(decoded, cl.Indices)
}

// TestPrefixCutParityGrid scans trial seeds, per model and storage
// route, until every weight-layer ordinal has been some trial's first
// dirty layer. For each such trial EvalTrial (a pass started at that
// layer) must equal EvalTrialSerial (the full pass) bit for bit, and
// CorruptTrial must report EvalTrial's statistics. The skipped-layer
// counter must grow by exactly the layers the cut skipped.
//
// The scan tests a candidate cut's own layer before the layers ahead of
// it, so looking for a rare cut behind a large layer (LeNet5's fc2
// behind its 400k-weight fc1) mostly corrupts only the small layer.
func TestPrefixCutParityGrid(t *testing.T) {
	// MLC-CTT at 3 bpc faults often enough to corrupt the small front
	// layers first; optimistic MLC-RRAM faults ~100x less often, which
	// leaves LeNet5's fc1 clean often enough for fc2 to be the first
	// dirty layer.
	iso := func(kind sparse.Kind, streams ...string) []Config {
		var cfgs []Config
		for _, tech := range []envm.Tech{envm.CTT, envm.OptRRAM} {
			for _, s := range streams {
				cfgs = append(cfgs, IsolateStream(Config{Tech: tech, Encoding: kind}, s, StreamPolicy{BPC: 3}))
			}
		}
		return cfgs
	}
	routes := []struct {
		name string
		cfgs []Config
	}{
		{"csr", iso(sparse.KindCSR, "rowcount", "values")},
		{"bitmask", iso(sparse.KindBitMask, "bitmask", "values")},
		{"2:4", iso(sparse.Kind24, "meta24", "values")},
	}
	models := []struct {
		name string
		ev   func(*testing.T) *MeasuredEvaluator
	}{{"TinyCNN", getMeasured}, {"LeNet5", getLeNet5}}
	const maxSeed = 2000
	for _, mc := range models {
		if mc.name == "LeNet5" && testing.Short() {
			continue
		}
		ev := mc.ev(t)
		n := len(ev.clustered)
		for _, rc := range routes {
			hit := make([]bool, n)
			left := n
			for seed := uint64(1); seed <= maxSeed && left > 0; seed++ {
				for _, cfg := range rc.cfgs {
					dirty := make(map[int]bool, n)
					isDirty := func(o int) bool {
						d, ok := dirty[o]
						if !ok {
							d = layerDirty(t, ev, cfg, seed, o)
							dirty[o] = d
						}
						return d
					}
					for o := 0; o < n; o++ {
						if hit[o] || !isDirty(o) {
							continue
						}
						first := true
						for j := 0; j < o && first; j++ {
							first = !isDirty(j)
						}
						if !first {
							continue
						}
						hit[o] = true
						left--
						checkPrefixCut(t, ev, cfg, seed, o)
						t.Logf("%s %s: first dirty %d at seed %d under %s", mc.name, rc.name, o, seed, cfg)
					}
				}
			}
			for o, ok := range hit {
				if !ok {
					t.Errorf("%s %s: no seed <= %d first corrupts weight layer %d", mc.name, rc.name, maxSeed, o)
				}
			}
		}
	}
}

// checkPrefixCut pins one trial whose first dirty weight layer is o:
// the corrupt step agrees on o, EvalTrial equals EvalTrialSerial bit
// for bit and skips exactly o weight layers, CorruptTrial reports
// EvalTrial's statistics, and the cut pass's logits equal the full
// pass's.
func checkPrefixCut(t *testing.T, ev *MeasuredEvaluator, cfg Config, seed uint64, o int) {
	t.Helper()
	ctx := context.Background()
	tr, err := ev.corrupt(ctx, cfg, stats.NewSource(seed), true)
	if err != nil {
		t.Fatal(err)
	}
	if got := firstDirty(tr); got != o {
		t.Fatalf("%s seed %d: trial's first dirty layer is %d, per-layer scan says %d", cfg, seed, got, o)
	}
	dSer, sSer, err := ev.EvalTrialSerial(ctx, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	skipped0 := met.prefixSkipped.Value()
	dPar, sPar, err := ev.EvalTrial(ctx, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if dPar != dSer || sPar != sSer {
		t.Errorf("%s seed %d (first dirty %d): replica (%v, %+v) != serial (%v, %+v)",
			cfg, seed, o, dPar, sPar, dSer, sSer)
	}
	if got := met.prefixSkipped.Value() - skipped0; got != int64(o) {
		t.Errorf("%s seed %d: skipped %d weight layers, first dirty is %d", cfg, seed, got, o)
	}
	cst, err := ev.CorruptTrial(ctx, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if cst != sPar {
		t.Errorf("%s seed %d: CorruptTrial %+v != EvalTrial %+v", cfg, seed, cst, sPar)
	}
	// An error count hides small logit differences, so compare the
	// logits too: the cut pass against a full pass on one replica.
	r := ev.checkout()
	defer ev.checkin(r)
	r.overlay(ev, tr.layers)
	k, act := ev.entry(tr)
	got := r.fw.ForwardFrom(k, act).Clone()
	want := r.fw.Forward(ev.Test.Images)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s seed %d: logits from layer %d differ from the full pass at %d: %v vs %v",
				cfg, seed, k, i, got.Data[i], want.Data[i])
		}
	}
}

package ares

// Prefix reuse: a replica pass starts at the trial's first dirty weight
// layer, fed that layer's cached baseline input. The grid below pins it
// bit-identical to the serial reference, which always runs the full
// pass, at every cut point.

import (
	"context"
	"fmt"
	"sort"
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
		test := train.Synthesize(train.SynthConfig{N: 48, H: 28, W: 28, Seed: 13, ProtoSeed: 77})
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
	return layerRows(t, ev, cfg, seed, o) != nil
}

// layerRows returns the dirty rows of weight layer o of the trial
// (cfg, seed), corrupting that layer alone (see layerDirty).
func layerRows(t *testing.T, ev *MeasuredEvaluator, cfg Config, seed uint64, o int) []int {
	t.Helper()
	tsrc := stats.NewSource(seed)
	for i := 0; i < o; i++ {
		tsrc.Uint64()
	}
	cl := ev.clustered[o]
	encs, err := ev.encodings(cfg.Encoding)
	if err != nil {
		t.Fatal(err)
	}
	refs, _, _, err := ev.refFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, decoded, err := RunTrialChecked(context.Background(), encs[o], refs[o], cl.Centroids, cfg, tsrc.Uint64())
	if err != nil {
		t.Fatal(err)
	}
	return diffRows(nil, cl.Cols, decoded, refs[o])
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
// for bit, skips exactly o weight layers and serves o's clean rows from
// the cache when o row-patches, CorruptTrial reports EvalTrial's
// statistics, and the cut pass's logits equal the full pass's. It
// returns the trial.
func checkPrefixCut(t *testing.T, ev *MeasuredEvaluator, cfg Config, seed uint64, o int) trial {
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
	skipped0, rows0 := met.prefixSkipped.Value(), met.prefixRows.Value()
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
	// The zoo's models are plain chains: every weight layer but the
	// last row-patches, serving its clean rows from the cache.
	var wantRows int64
	if o < len(ev.clustered)-1 {
		wantRows = int64(ev.clustered[o].Rows - len(tr.layers[o].rows))
	}
	if got := met.prefixRows.Value() - rows0; got != wantRows {
		t.Errorf("%s seed %d: %d rows served from the cache, want %d", cfg, seed, got, wantRows)
	}
	cst, err := ev.CorruptTrial(ctx, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if cst != sPar {
		t.Errorf("%s seed %d: CorruptTrial %+v != EvalTrial %+v", cfg, seed, cst, sPar)
	}
	checkPassLogits(t, ev, tr, fmt.Sprintf("%s seed %d", cfg, seed))
	return tr
}

// checkPassLogits compares, on one replica, the logits of tr's replica
// pass (a cut, and possibly a row patch) with a full pass over the
// same overlays: an error count hides small logit differences.
func checkPassLogits(t *testing.T, ev *MeasuredEvaluator, tr trial, name string) {
	t.Helper()
	r := ev.checkout()
	defer ev.checkin(r)
	got := ev.pass(r, tr).Clone()
	r.reset(ev)
	r.overlay(ev, tr.layers, 0)
	want := r.fw.Forward(ev.Test.Images)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s (first dirty %d): logits differ from the full pass at %d: %v vs %v",
				name, firstDirty(tr), i, got.Data[i], want.Data[i])
		}
	}
}

// TestRowPatchParityGrid scans trial seeds, per model and storage
// route, for trials that stress the row patch at every first-dirty
// weight-layer ordinal: one with exactly one dirty row and one with the
// layer's first or last row dirty. On TinyCNN's bitmask route, where a
// bitmask fault without IdxSync misaligns the values of the rows after
// it, it also needs one with every row dirty; LeNet5's cascades rarely
// reach every row, so there such a trial is pinned when the scan meets
// one (TestForwardRowsMatchesForwardFrom in internal/dnn pins all-row
// patches directly). Each trial is pinned by checkPrefixCut: EvalTrial
// equals EvalTrialSerial (the full pass) bit for bit, the cut pass's
// logits equal a full pass's, and CorruptTrial reports EvalTrial's
// statistics. On TinyCNN a warmed replica measures the first conv2-first
// and fc1-first trial of each route without allocating.
func TestRowPatchParityGrid(t *testing.T) {
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
		{"csr", iso(sparse.KindCSR, "values", "rowcount")},
		{"bitmask", iso(sparse.KindBitMask, "bitmask", "values")},
		{"2:4", iso(sparse.Kind24, "values", "meta24")},
	}
	models := []struct {
		name string
		ev   func(*testing.T) *MeasuredEvaluator
	}{{"TinyCNN", getMeasured}, {"LeNet5", getLeNet5}}
	const maxSeed = 2000
	kinds := []string{"one row", "the first or last row", "every row"}
	for _, mc := range models {
		if mc.name == "LeNet5" && testing.Short() {
			continue
		}
		ev := mc.ev(t)
		n := len(ev.clustered)
		bySize := make([]int, n)
		for o := range bySize {
			bySize[o] = o
		}
		sort.Slice(bySize, func(a, b int) bool {
			return len(ev.clustered[bySize[a]].Indices) < len(ev.clustered[bySize[b]].Indices)
		})
		for _, rc := range routes {
			need := 2
			if rc.name == "bitmask" && mc.name == "TinyCNN" {
				need = 3
			}
			hit := make([][3]bool, n)
			left := n * need
			allocChecked := map[int]bool{}
			for seed := uint64(1); seed <= maxSeed && left > 0; seed++ {
				for _, cfg := range rc.cfgs {
					memo := map[int][]int{}
					rowsOf := func(o int) []int {
						rows, ok := memo[o]
						if !ok {
							rows = layerRows(t, ev, cfg, seed, o)
							memo[o] = rows
						}
						return rows
					}
					for o := 0; o < n; o++ {
						if hit[o][0] && hit[o][1] && (need == 2 || hit[o][2]) {
							continue
						}
						// o must be dirty and every layer before it clean.
						// Check smallest first: a corrupt step's cost grows
						// with the layer, and most candidates fail early.
						first := true
						for _, j := range bySize {
							if first && j <= o {
								first = (rowsOf(j) != nil) == (j == o)
							}
						}
						if !first {
							continue
						}
						rows, last := rowsOf(o), ev.clustered[o].Rows-1
						is := [3]bool{len(rows) == 1, rows[0] == 0 || rows[len(rows)-1] == last, len(rows) == last+1}
						fresh := false
						for c := range is {
							if is[c] && !hit[o][c] {
								fresh = true
								hit[o][c] = true
								if c < need {
									left--
								}
							}
						}
						if !fresh {
							continue
						}
						tr := checkPrefixCut(t, ev, cfg, seed, o)
						t.Logf("%s %s: first dirty %d, %d/%d rows dirty at seed %d under %s",
							mc.name, rc.name, o, len(rows), last+1, seed, cfg)
						if mc.name == "TinyCNN" && (o == 1 || o == 2) && !allocChecked[o] {
							allocChecked[o] = true
							checkPassAllocFree(t, ev, tr)
						}
					}
				}
			}
			for o := range hit {
				for c := 0; c < need; c++ {
					if !hit[o][c] {
						t.Errorf("%s %s: no seed <= %d first corrupts weight layer %d with %s dirty",
							mc.name, rc.name, maxSeed, o, kinds[c])
					}
				}
			}
		}
	}
}

// checkPassAllocFree measures tr on a warmed replica: overlaying it,
// building its row-patch sub-operand and running the pass allocate
// nothing.
func checkPassAllocFree(t *testing.T, ev *MeasuredEvaluator, tr trial) {
	t.Helper()
	r := ev.checkout()
	defer ev.checkin(r)
	if allocs := testing.AllocsPerRun(5, func() {
		r.reset(ev)
		ev.pass(r, tr)
	}); allocs != 0 {
		t.Errorf("first dirty %d: a warmed replica allocates %v per measured trial, want 0", firstDirty(tr), allocs)
	}
}

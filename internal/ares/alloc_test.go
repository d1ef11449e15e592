package ares

import (
	"context"
	"slices"
	"testing"

	"repro/internal/envm"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// convDirtySeed returns the first seed from which cfg's hot-path trial
// is dirty with its first dirty layer a conv layer, so that its
// measurement row-patches a convolution.
func convDirtySeed(t *testing.T, ev *MeasuredEvaluator, cfg Config) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 200; seed++ {
		tr, err := ev.corrupt(context.Background(), cfg, stats.NewSource(seed), true)
		if err != nil {
			t.Fatal(err)
		}
		o := slices.IndexFunc(tr.layers, func(lt layerTrial) bool { return lt.dirty() })
		tr.release()
		if o >= 0 && ev.Model.Layers[ev.layerIdx[o]].Conv.KH > 0 {
			return seed
		}
	}
	t.Fatalf("%s: no trial of 200 seeds is dirty at a conv layer", cfg)
	return 0
}

// TestEvalTrialAllocFree pins the allocation-free storage trial: on a
// warmed evaluator, a dirty dense trial (CSR values at MLC3) and a
// dirty compute-direct 2:4 trial whose first dirty layer is a conv
// layer (so the pass row-patches it on a padded input frame) allocate
// nothing, the idle trial scratch and the replica's buffers reused.
func TestEvalTrialAllocFree(t *testing.T) {
	ev := getMeasured(t)
	ctx := context.Background()
	for _, kind := range []sparse.Kind{sparse.KindCSR, sparse.Kind24} {
		cfg := IsolateStream(Config{Tech: envm.CTT, Encoding: kind}, "values", StreamPolicy{BPC: 3})
		seed := convDirtySeed(t, ev, cfg)
		run := func() {
			if _, _, err := ev.EvalTrial(ctx, cfg, seed); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the scratch pool and the replica
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Errorf("%s: dirty trial (seed %d) allocates %v times per run, want 0", cfg, seed, n)
		}
	}
}

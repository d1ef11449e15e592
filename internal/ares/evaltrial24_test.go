package ares

// Bit-parity grid for the compute-direct 2:4 trial route: EvalTrial
// (corrupted compact streams straight into the tensor.Sparse24 kernels
// on a pooled replica) must return exactly the same delta and trial
// statistics as EvalTrialSerial (decode-to-dense oracle through the
// dense kernels on the shared model) for every Kind24 config — pristine
// and faulted, values and metadata streams, with and without ECC,
// serial and under replica-pool contention, on more than one zoo model.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/dnn"
	"repro/internal/envm"
	"repro/internal/sparse"
	"repro/internal/train"
)

func grid24Configs() []Config {
	tech := Config{Tech: envm.CTT, Encoding: sparse.Kind24}
	return []Config{
		IsolateStream(tech, "values", StreamPolicy{BPC: 0}), // perfect storage
		IsolateStream(tech, "values", StreamPolicy{BPC: 3}),
		IsolateStream(tech, "meta24", StreamPolicy{BPC: 3}),
		IsolateStream(tech, "meta24", StreamPolicy{BPC: 3, ECC: true}),
		{Tech: envm.CTT, Encoding: sparse.Kind24, Default: StreamPolicy{BPC: 3}}, // both streams
		degradeCfg(sparse.Kind24),
	}
}

// TestEvalTrial24ParityGrid pins the compute-direct route bit-identical
// to the decode-to-dense oracle over the (config, seed) grid: the
// measured delta AND every field of the aggregated TrialStats must match
// exactly, not approximately.
func TestEvalTrial24ParityGrid(t *testing.T) {
	ev := getMeasured(t)
	ctx := context.Background()
	degraded := 0
	for ci, cfg := range grid24Configs() {
		for _, seed := range []uint64{3, 271, 88888} {
			dSer, sSer, err := ev.EvalTrialSerial(ctx, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			dDir, sDir, err := ev.EvalTrial(ctx, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			if dDir != dSer || sDir != sSer {
				t.Errorf("cfg %d seed %d: direct (%v, %+v) != oracle (%v, %+v)",
					ci, seed, dDir, sDir, dSer, sSer)
			}
			checkCorruptAndDegraded(t, ev, cfg, seed, sDir, &degraded)
		}
	}
	if degraded == 0 {
		t.Error("no grid trial degraded a block: the Degrade input exercises nothing")
	}
}

// TestEvalTrial24PristineBaseline pins the 2:4 baseline contract from
// both ends. The strict half: the decode-to-dense error of the pristine
// projected model (dense kernels) must equal tf.baselineErr (measured
// once through the 2:4 kernels) to the bit — the kernel-parity claim,
// unclamped. The route half: a perfect-storage trial is a fast-path hit
// with delta exactly 0 on the direct route, and exactly 0 on the oracle
// route too, so projection loss never leaks into a trial delta.
func TestEvalTrial24PristineBaseline(t *testing.T) {
	ev := getMeasured(t)
	tf, err := ev.twofour()
	if err != nil {
		t.Fatal(err)
	}
	// Baseline 0 makes measureSerial return the absolute error: no
	// clamp can hide a kernel divergence.
	tr, err := ev.decodedTrial(asDecoded(tf.orig24), tf.orig24, 0)
	if err != nil {
		t.Fatal(err)
	}
	abs := ev.measureSerial(tr)
	if abs != tf.baselineErr {
		t.Errorf("dense-kernel projected error %v != 2:4-kernel baseline %v", abs, tf.baselineErr)
	}
	if tf.baselineErr < ev.BaselineErr {
		t.Errorf("projected baseline %v below clustered baseline %v: projection cannot help",
			tf.baselineErr, ev.BaselineErr)
	}

	cfg := grid24Configs()[0] // perfect storage
	ctx := context.Background()
	hits0 := met.fastHits.Value()
	dDir, stDir, err := ev.EvalTrial(ctx, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if dDir != 0 || stDir.Faults != 0 || stDir.Mismatch != 0 {
		t.Errorf("perfect-storage direct trial: delta %v stats %+v, want all zero", dDir, stDir)
	}
	if h := met.fastHits.Value() - hits0; h != 1 {
		t.Errorf("fast-path hits += %d, want 1", h)
	}
	dSer, _, err := ev.EvalTrialSerial(ctx, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if dSer != 0 {
		t.Errorf("perfect-storage oracle delta = %v, want exactly 0", dSer)
	}
}

// TestEvalTrial24ParityConcurrent repeats the parity check with the
// compute-direct route under real replica-pool contention.
func TestEvalTrial24ParityConcurrent(t *testing.T) {
	ev := getMeasured(t)
	ctx := context.Background()
	cfg := Config{Tech: envm.CTT, Encoding: sparse.Kind24, Default: StreamPolicy{BPC: 3}}
	const n = 12
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		d, _, err := ev.EvalTrialSerial(ctx, cfg, uint64(900+i*17))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}
	got := make([]float64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, _, err := ev.EvalTrial(ctx, cfg, uint64(900+i*17))
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = d
		}(i)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("trial %d: concurrent direct delta %v != oracle %v", i, got[i], want[i])
		}
	}
}

// TestEvalTrial24ParityLeNet5 extends the parity claim beyond TinyCNN:
// an (untrained but materialized) LeNet5 exercises different layer
// shapes — 5x5 convs, a 400k-weight FC — through both routes. Training
// is irrelevant to bit parity; only the weight values matter.
func TestEvalTrial24ParityLeNet5(t *testing.T) {
	if testing.Short() {
		t.Skip("LeNet5 evaluator construction is slow")
	}
	m := dnn.LeNet5()
	m.InitWeights(29)
	test := train.Synthesize(train.SynthConfig{N: 48, H: 28, W: 28, Classes: 10, Seed: 13, ProtoSeed: 77})
	ev, err := NewMeasuredEvaluator(m, test, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	configs := []Config{
		IsolateStream(Config{Tech: envm.CTT, Encoding: sparse.Kind24},
			"meta24", StreamPolicy{BPC: 3}),
		{Tech: envm.CTT, Encoding: sparse.Kind24, Default: StreamPolicy{BPC: 3}},
	}
	for ci, cfg := range configs {
		for _, seed := range []uint64{11, 4242} {
			dSer, sSer, err := ev.EvalTrialSerial(ctx, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			dDir, sDir, err := ev.EvalTrial(ctx, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			if dDir != dSer || sDir != sSer {
				t.Errorf("LeNet5 cfg %d seed %d: direct (%v, %+v) != oracle (%v, %+v)",
					ci, seed, dDir, sDir, dSer, sSer)
			}
		}
	}
}

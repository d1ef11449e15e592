package ares

import (
	"context"
	"sync"
	"testing"

	"repro/internal/envm"
	"repro/internal/sparse"
	"repro/internal/stats"
)

func TestEvalTrialDeterministic(t *testing.T) {
	ev := getMeasured(t)
	cfg := IsolateStream(Config{Tech: envm.CTT, Encoding: sparse.KindCSR},
		"rowcount", StreamPolicy{BPC: 3})
	ctx := context.Background()
	d1, s1, err := ev.EvalTrial(ctx, cfg, 12345)
	if err != nil {
		t.Fatal(err)
	}
	d2, s2, err := ev.EvalTrial(ctx, cfg, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 || s1 != s2 {
		t.Fatalf("same seed diverged: (%v, %+v) vs (%v, %+v)", d1, s1, d2, s2)
	}
}

func TestRunTrialCheckedMatchesSerialTrials(t *testing.T) {
	// RunTrialChecked fed evalSerial's derived per-layer seeds must
	// reproduce its per-trial fault counts exactly: the per-layer
	// injection and the evaluator's trial pipeline are the same code.
	ev := getMeasured(t)
	cfg := IsolateStream(Config{Tech: envm.CTT, Encoding: sparse.KindCSR},
		"rowcount", StreamPolicy{BPC: 3})
	const trials, seed = 4, 99
	serial := evalSerial(t, ev, cfg, trials, seed)

	src := stats.NewSource(seed)
	for tr := 0; tr < trials; tr++ {
		tsrc := src.Fork(uint64(tr) + 1)
		var agg TrialStats
		for _, cl := range ev.Clustered() {
			st, _, err := RunTrialChecked(context.Background(), sparse.Must(EncodeLayer(cl, cfg)),
				cl.Indices, cl.Centroids, cfg, tsrc.Uint64())
			if err != nil {
				t.Fatal(err)
			}
			agg.Faults += st.Faults
		}
		if agg.Faults != serial.Stats[tr].Faults {
			t.Fatalf("trial %d: %d faults vs serial %d", tr, agg.Faults, serial.Stats[tr].Faults)
		}
	}
}

// layerDegraded sums DegradedBlocks over per-layer RunTrialChecked
// calls fed a trial's per-layer seeds (stats.NewSource(seed), drawn in
// layer order): the count the trial's aggregate must carry.
func layerDegraded(t *testing.T, ev *MeasuredEvaluator, cfg Config, seed uint64) int {
	t.Helper()
	tsrc := stats.NewSource(seed)
	n := 0
	for _, cl := range ev.Clustered() {
		st, _, err := RunTrialChecked(context.Background(), sparse.Must(EncodeLayer(cl, cfg)),
			cl.Indices, cl.Centroids, cfg, tsrc.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		n += st.DegradedBlocks
	}
	return n
}

// degradeCfg is a graceful-degradation input for the parity grids:
// 4096-bit SEC-DED blocks at 3 bpc see multi-fault blocks often enough
// that most trials zero at least one.
func degradeCfg(kind sparse.Kind) Config {
	return Config{Tech: envm.CTT, Encoding: kind, Default: StreamPolicy{BPC: 3, ECC: true},
		ECCBlockBits: 4096, Degrade: true}
}

func TestEvalTrialConcurrentSafe(t *testing.T) {
	// Concurrent EvalTrial calls must neither race (run under -race) nor
	// perturb each other's results: the model-mutation critical section is
	// serialized and weights are restored after each inference.
	ev := getMeasured(t)
	cfg := IsolateStream(Config{Tech: envm.CTT, Encoding: sparse.KindCSR},
		"rowcount", StreamPolicy{BPC: 3})
	ctx := context.Background()
	const n = 8
	seeds := make([]uint64, n)
	want := make([]float64, n)
	for i := range seeds {
		seeds[i] = uint64(1000 + i*7)
		d, _, err := ev.EvalTrial(ctx, cfg, seeds[i])
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
			d, _, err := ev.EvalTrial(ctx, cfg, seeds[i])
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
			t.Errorf("seed %d: concurrent delta %v != sequential %v", seeds[i], got[i], want[i])
		}
	}
}

func TestEvalTrialCancelled(t *testing.T) {
	ev := getMeasured(t)
	cfg := Config{Tech: envm.CTT, Encoding: sparse.KindCSR, Default: StreamPolicy{BPC: 3}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ev.EvalTrial(ctx, cfg, 1); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

func TestEvalTrialRejectsInvalidConfig(t *testing.T) {
	ev := getMeasured(t)
	bad := Config{Tech: envm.SLCRRAM, Encoding: sparse.KindCSR, Default: StreamPolicy{BPC: 3}}
	if _, _, err := ev.EvalTrial(context.Background(), bad, 1); err == nil {
		t.Fatal("invalid config accepted (SLC-RRAM cannot store 3 bpc)")
	}
}

func TestRunTrialCheckedRejectsMismatchedOrig(t *testing.T) {
	ev := getMeasured(t)
	cl := ev.Clustered()[0]
	cfg := Config{Tech: envm.CTT, Encoding: sparse.KindCSR, Default: StreamPolicy{BPC: 1}}
	enc := sparse.Must(EncodeLayer(cl, cfg))
	if _, _, err := RunTrialChecked(context.Background(), enc, cl.Indices[:3], cl.Centroids, cfg, 1); err == nil {
		t.Fatal("mismatched original indices accepted")
	}
}

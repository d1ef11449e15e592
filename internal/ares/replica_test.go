package ares

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/envm"
	"repro/internal/sparse"
)

// TestReplicaParityWithSerial pins the replica-pool measurement path
// bit-identical to the legacy serialized path over a (cfg, seed) grid:
// every trial's delta AND aggregated stats must match exactly, not
// approximately — the replica pool is a pure transport change.
func TestReplicaParityWithSerial(t *testing.T) {
	ev := getMeasured(t)
	ctx := context.Background()
	configs := []Config{
		IsolateStream(Config{Tech: envm.CTT, Encoding: sparse.KindCSR},
			"rowcount", StreamPolicy{BPC: 3}),
		IsolateStream(Config{Tech: envm.CTT, Encoding: sparse.KindCSR},
			"values", StreamPolicy{BPC: 3}),
		IsolateStream(Config{Tech: envm.CTT, Encoding: sparse.KindBitMask},
			"bitmask", StreamPolicy{BPC: 3}),
		degradeCfg(sparse.KindCSR),
	}
	seeds := []uint64{1, 77, 1234, 99999}
	degraded := 0
	for ci, cfg := range configs {
		for _, seed := range seeds {
			dSer, sSer, err := ev.EvalTrialSerial(ctx, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			dPar, sPar, err := ev.EvalTrial(ctx, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			if dPar != dSer || sPar != sSer {
				t.Errorf("cfg %d seed %d: replica (%v, %+v) != serial (%v, %+v)",
					ci, seed, dPar, sPar, dSer, sSer)
			}
			checkCorruptAndDegraded(t, ev, cfg, seed, sPar, &degraded)
		}
	}
	if degraded == 0 {
		t.Error("no grid trial degraded a block: the Degrade input exercises nothing")
	}
}

// checkCorruptAndDegraded pins two properties of one grid trial whose
// EvalTrial statistics are st: CorruptTrial reports exactly the same
// statistics, and DegradedBlocks equals the per-layer sum (added to
// *degraded so the grid can assert it exercised degradation).
func checkCorruptAndDegraded(t *testing.T, ev *MeasuredEvaluator, cfg Config, seed uint64, st TrialStats, degraded *int) {
	t.Helper()
	cst, err := ev.CorruptTrial(context.Background(), cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if cst != st {
		t.Errorf("%s seed %d: CorruptTrial %+v != EvalTrial %+v", cfg, seed, cst, st)
	}
	want := layerDegraded(t, ev, cfg, seed)
	if st.DegradedBlocks != want {
		t.Errorf("%s seed %d: trial DegradedBlocks %d != per-layer sum %d", cfg, seed, st.DegradedBlocks, want)
	}
	*degraded += want
}

// TestReplicaParityConcurrent repeats the parity check with the replica
// path under real contention: many goroutines, shared evaluator.
func TestReplicaParityConcurrent(t *testing.T) {
	ev := getMeasured(t)
	ctx := context.Background()
	cfg := IsolateStream(Config{Tech: envm.CTT, Encoding: sparse.KindCSR},
		"rowcount", StreamPolicy{BPC: 3})
	const n = 12
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		d, _, err := ev.EvalTrialSerial(ctx, cfg, uint64(500+i*13))
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
			d, _, err := ev.EvalTrial(ctx, cfg, uint64(500+i*13))
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
			t.Errorf("trial %d: concurrent replica delta %v != serial %v", i, got[i], want[i])
		}
	}
	// Every created replica must be back in the pool, and creation is
	// bounded by the pool capacity (replicaSem holds one token per
	// materialized replica).
	created := len(ev.replicaSem)
	if created > runtime.GOMAXPROCS(0) {
		t.Errorf("%d replicas created, pool cap is %d", created, runtime.GOMAXPROCS(0))
	}
	if idle := len(ev.replicas); idle != created {
		t.Errorf("%d replicas idle after drain, %d created: leak", idle, created)
	}
}

// asDecoded wraps per-layer decoded indices as decode-to-dense trial
// layers.
func asDecoded(decoded [][]uint8) []layerTrial {
	layers := make([]layerTrial, len(decoded))
	for i, d := range decoded {
		layers[i].idx = d
	}
	return layers
}

// TestFastPathFiresIffPristine drives the decode-to-dense trial and the
// replica measurement directly: pristine indices must take the
// zero-inference fast path (hit counter, delta 0), and a single flipped
// index must force real inference (miss counter).
func TestFastPathFiresIffPristine(t *testing.T) {
	ev := getMeasured(t)
	pristine := make([][]uint8, len(ev.clustered))
	for i, cl := range ev.clustered {
		pristine[i] = append([]uint8(nil), cl.Indices...)
	}

	hits0, misses0 := met.fastHits.Value(), met.fastMisses.Value()
	tr, err := ev.decodedTrial(asDecoded(pristine), ev.origIdx, ev.BaselineErr, false)
	if err != nil {
		t.Fatal(err)
	}
	delta := ev.measure(tr)
	if delta != 0 {
		t.Errorf("pristine delta = %v, want exactly 0", delta)
	}
	if h := met.fastHits.Value() - hits0; h != 1 {
		t.Errorf("fast-path hits += %d, want 1", h)
	}
	if m := met.fastMisses.Value() - misses0; m != 0 {
		t.Errorf("fast-path misses += %d, want 0", m)
	}
	// The serial reference agrees: pristine indices reproduce the
	// baseline, so the clamped delta is 0 there too.
	if dSer := ev.measureSerial(tr); dSer != 0 {
		t.Errorf("serial pristine delta = %v, want 0", dSer)
	}

	// Flip one index in one layer (to a different valid centroid).
	corrupted := make([][]uint8, len(pristine))
	for i := range pristine {
		corrupted[i] = append([]uint8(nil), pristine[i]...)
	}
	cl0 := ev.clustered[0]
	corrupted[0][0] ^= 1
	if int(corrupted[0][0]) >= len(cl0.Centroids) {
		corrupted[0][0] = 0
	}
	hits0, misses0 = met.fastHits.Value(), met.fastMisses.Value()
	trCor, err := ev.decodedTrial(asDecoded(corrupted), ev.origIdx, ev.BaselineErr, false)
	if err != nil {
		t.Fatal(err)
	}
	dCor := ev.measure(trCor)
	if h := met.fastHits.Value() - hits0; h != 0 {
		t.Errorf("corrupted trial took the fast path (%d hits)", h)
	}
	if m := met.fastMisses.Value() - misses0; m != 1 {
		t.Errorf("fast-path misses += %d, want 1", m)
	}
	// And it matches the serial measurement of the same corruption.
	dSer := ev.measureSerial(trCor)
	if dCor != dSer {
		t.Errorf("corrupted replica delta %v != serial %v", dCor, dSer)
	}
}

// TestFastPathOnPerfectStorage checks the fast path end to end through
// EvalTrial: a config whose every stream is perfectly stored decodes to
// pristine indices, so trials skip inference entirely.
func TestFastPathOnPerfectStorage(t *testing.T) {
	ev := getMeasured(t)
	// BPC 0 everywhere = perfect storage of all structures.
	cfg := IsolateStream(Config{Tech: envm.CTT, Encoding: sparse.KindCSR},
		"rowcount", StreamPolicy{BPC: 0})
	hits0 := met.fastHits.Value()
	delta, _, err := ev.EvalTrial(context.Background(), cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if delta != 0 {
		t.Errorf("perfect-storage delta = %v, want 0", delta)
	}
	if h := met.fastHits.Value() - hits0; h != 1 {
		t.Errorf("fast-path hits += %d, want 1", h)
	}
}

// TestMeasureDecodedValidates keeps the decode-to-dense trial's input
// validation: malformed decoded layers never reach a measurement.
func TestMeasureDecodedValidates(t *testing.T) {
	ev := getMeasured(t)
	if _, err := ev.decodedTrial(asDecoded(nil), ev.origIdx, ev.BaselineErr, false); err == nil {
		t.Error("nil decoded layers accepted")
	}
	bad := make([][]uint8, len(ev.clustered))
	for i, cl := range ev.clustered {
		bad[i] = append([]uint8(nil), cl.Indices...)
	}
	bad[0] = bad[0][:1]
	if _, err := ev.decodedTrial(asDecoded(bad), ev.origIdx, ev.BaselineErr, false); err == nil {
		t.Error("truncated layer accepted")
	}
}

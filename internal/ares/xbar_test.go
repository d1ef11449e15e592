package ares

// Tests for the crossbar compute-in-memory trial route.
//
// The determinism-parity acceptance criterion: with an ideal write DAC
// (BPC=0), the ADC disabled, and every fault knob zero, the crossbar
// route must reproduce the dense digital forward pass bit-identically —
// delta exactly 0 on both the replica-pool route (fast path) and the
// serial oracle (which always measures, so parity is through the real
// kernels, not a shortcut).
//
// The seed-pinned mitigation acceptance test lives in
// internal/mitigate/online_test.go (the planner package imports ares,
// not the other way around).

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/envm"
)

func xbarCfg(xc crossbar.Config) Config {
	return Config{Tech: envm.CTT, Crossbar: &xc}
}

// TestEvalTrialXbarIdealParity: the determinism-parity criterion.
func TestEvalTrialXbarIdealParity(t *testing.T) {
	ev := getMeasured(t)
	ctx := context.Background()
	cfg := xbarCfg(crossbar.Config{Rows: 32, Cols: 16})

	// The ideal mapping carries the clustered baseline over unchanged.
	xs, err := ev.xbar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if xs.baselineErr != ev.BaselineErr {
		t.Fatalf("ideal mapped baseline %v != clustered baseline %v", xs.baselineErr, ev.BaselineErr)
	}

	// Replica route: fast path, exactly zero.
	hits0 := met.fastHits.Value()
	d, st, err := ev.EvalTrial(ctx, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 || st != (TrialStats{}) {
		t.Fatalf("ideal crossbar trial: delta %v stats %+v, want all zero", d, st)
	}
	if h := met.fastHits.Value() - hits0; h != 1 {
		t.Fatalf("fast-path hits += %d, want 1", h)
	}

	// Serial oracle: no fast path — the raw effective weights run
	// through the real kernels and must land exactly on the baseline.
	dSer, _, err := ev.EvalTrialSerial(ctx, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if dSer != 0 {
		t.Fatalf("ideal serial crossbar delta = %v, want exactly 0 (bit parity broken)", dSer)
	}
}

func xbarGridConfigs() []Config {
	return []Config{
		xbarCfg(crossbar.Config{Rows: 32, Cols: 16, VarSigma: 0.03}),
		xbarCfg(crossbar.Config{Rows: 32, Cols: 16, BPC: 2, VarSigma: 0.03, StuckRate: 1e-3}),
		xbarCfg(crossbar.Config{Rows: 32, Cols: 16, VarSigma: 0.03, StuckColRate: 5e-3, ADCBits: 8}),
		xbarCfg(crossbar.Config{Rows: 32, Cols: 16, VarSigma: 0.03, StuckColRate: 5e-3,
			SpareCols: 2, DetectSigma: 4}),
	}
}

// TestEvalTrialXbarSerialParityGrid pins the replica-pool route
// bit-identical to the serial oracle across mapping, fault, ADC, and
// online-tolerance configurations.
func TestEvalTrialXbarSerialParityGrid(t *testing.T) {
	ev := getMeasured(t)
	ctx := context.Background()
	for ci, cfg := range xbarGridConfigs() {
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
				t.Errorf("cfg %d seed %d: replica (%v, %+v) != serial (%v, %+v)",
					ci, seed, dDir, sDir, dSer, sSer)
			}
			// CorruptTrial takes the same route as EvalTrial.
			if cst, err := ev.CorruptTrial(ctx, cfg, seed); err != nil || cst != sDir {
				t.Errorf("cfg %d seed %d: CorruptTrial (%+v, %v) != EvalTrial %+v", ci, seed, cst, err, sDir)
			}
		}
	}
}

// TestEvalTrialXbarConcurrent repeats the parity check under real
// replica-pool contention, including the ADC (WeightsXbar) route.
func TestEvalTrialXbarConcurrent(t *testing.T) {
	ev := getMeasured(t)
	ctx := context.Background()
	cfg := xbarCfg(crossbar.Config{Rows: 32, Cols: 16, VarSigma: 0.05, StuckColRate: 5e-3, ADCBits: 8})
	const n = 12
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		d, _, err := ev.EvalTrialSerial(ctx, cfg, uint64(700+i*13))
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
			d, _, err := ev.EvalTrial(ctx, cfg, uint64(700+i*13))
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
			t.Errorf("trial %d: concurrent delta %v != serial %v", i, got[i], want[i])
		}
	}
}

// TestXbarStateCache: one pristine mapping serves every config sharing
// a tech + mapping key; fault and policy knobs do not rebuild it.
func TestXbarStateCache(t *testing.T) {
	ev := getMeasured(t)
	misses0 := met.cacheMisses.Value()
	a := xbarCfg(crossbar.Config{Rows: 48, Cols: 24})
	b := xbarCfg(crossbar.Config{Rows: 48, Cols: 24, VarSigma: 0.1, StuckColRate: 1e-2,
		SpareCols: 3, DetectSigma: 5, MaxRemaps: 2})
	xa, err := ev.xbar(a)
	if err != nil {
		t.Fatal(err)
	}
	xb, err := ev.xbar(b)
	if err != nil {
		t.Fatal(err)
	}
	if xa != xb {
		t.Fatal("fault knobs forced a fresh mapping; MapKey cache broken")
	}
	if m := met.cacheMisses.Value() - misses0; m != 1 {
		t.Fatalf("cache misses += %d for one mapping key, want 1", m)
	}
	c := xbarCfg(crossbar.Config{Rows: 48, Cols: 24, ADCBits: 8})
	xcState, err := ev.xbar(c)
	if err != nil {
		t.Fatal(err)
	}
	if xcState == xa {
		t.Fatal("ADC design change must rebuild the mapping")
	}
	if xcState.baselineErr < xa.baselineErr {
		t.Fatalf("ADC-mapped baseline %v below ideal baseline %v: quantization cannot help",
			xcState.baselineErr, xa.baselineErr)
	}
}

// TestConfigStringXbar: the crossbar design point is part of the
// campaign config identity.
func TestConfigStringXbar(t *testing.T) {
	cfg := xbarCfg(crossbar.Config{Rows: 64, Cols: 32, VarSigma: 0.05, SpareCols: 2})
	s := cfg.String()
	if !strings.Contains(s, "xbar:64x32") {
		t.Fatalf("Config.String %q does not identify the crossbar design", s)
	}
	if cfg.Validate() != nil {
		t.Fatal("valid crossbar config rejected")
	}
	bad := xbarCfg(crossbar.Config{Rows: 0, Cols: 32})
	if bad.Validate() == nil {
		t.Fatal("invalid crossbar config accepted")
	}
}

// TestXbarGeometry: the exported geometry helper sums segments and
// tiles over the deployed layers (the online planner's inputs).
func TestXbarGeometry(t *testing.T) {
	ev := getMeasured(t)
	cfg := xbarCfg(crossbar.Config{Rows: 32, Cols: 16})
	segments, tiles, err := ev.XbarGeometry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	xs, err := ev.xbar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSeg, wantTiles := 0, 0
	for _, ly := range xs.layers {
		wantSeg += ly.Segments()
		wantTiles += ly.Tiles()
	}
	if segments != wantSeg || tiles != wantTiles {
		t.Fatalf("geometry (%d, %d) != summed (%d, %d)", segments, tiles, wantSeg, wantTiles)
	}
	if segments < len(xs.layers) || tiles < len(xs.layers) {
		t.Fatalf("implausible geometry: %d segments, %d tiles for %d layers", segments, tiles, len(xs.layers))
	}
	if _, _, err := ev.XbarGeometry(Config{Tech: envm.CTT}); err == nil {
		t.Fatal("geometry without a crossbar design accepted")
	}
}

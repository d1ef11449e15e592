package ares

import (
	"context"
	"testing"

	"repro/internal/envm"
	"repro/internal/quant"
	"repro/internal/sparse"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// testLayer builds a pruned+clustered synthetic layer.
func testLayer(rows, cols int, sparsity float64, bits int, seed uint64) *quant.Clustered {
	src := stats.NewSource(seed)
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(src.Gaussian(0, 0.1))
	}
	quant.Prune(m, sparsity, seed)
	return quant.Cluster(m, bits, quant.ClusterOptions{Seed: seed})
}

// runTrial is RunTrialChecked for inputs the test knows are valid.
func runTrial(t *testing.T, enc sparse.Encoding, orig []uint8, centroids []float32, cfg Config, seed uint64) TrialStats {
	t.Helper()
	st, _, err := RunTrialChecked(context.Background(), enc, orig, centroids, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPolicyResolution(t *testing.T) {
	cfg := Config{
		Tech:     envm.CTT,
		Encoding: sparse.KindCSR,
		Default:  StreamPolicy{BPC: 3},
		Overrides: map[string]StreamPolicy{
			"rowcount": {BPC: 3, ECC: true},
		},
	}
	if p := cfg.PolicyFor("values"); p.BPC != 3 || p.ECC {
		t.Errorf("default policy wrong: %+v", p)
	}
	if p := cfg.PolicyFor("rowcount"); !p.ECC {
		t.Errorf("override policy wrong: %+v", p)
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsInfeasibleBPC(t *testing.T) {
	cfg := Config{Tech: envm.SLCRRAM, Encoding: sparse.KindDense, Default: StreamPolicy{BPC: 3}}
	if err := cfg.Validate(); err == nil {
		t.Error("SLC tech at 3 bpc accepted")
	}
	perfect := Config{Tech: envm.SLCRRAM, Encoding: sparse.KindDense, Default: StreamPolicy{BPC: 0}}
	if err := perfect.Validate(); err != nil {
		t.Errorf("perfect-storage sentinel rejected: %v", err)
	}
}

func TestCostAccounting(t *testing.T) {
	cl := testLayer(64, 64, 0.7, 4, 1)
	cfg := Config{Tech: envm.CTT, Encoding: sparse.KindCSR, Default: StreamPolicy{BPC: 3, ECC: true}}
	enc := sparse.Must(EncodeLayer(cl, cfg))
	costs := Cost(enc, cfg)
	if len(costs) != 3 {
		t.Fatalf("CSR should have 3 streams, got %d", len(costs))
	}
	for _, c := range costs {
		if c.ParityBits <= 0 {
			t.Errorf("%s: ECC configured but no parity", c.Name)
		}
		// ECC overhead per protected structure stays near 2% with 512-bit
		// sectors (11 parity per 512 data bits).
		if c.Name == "values" && float64(c.ParityBits) > 0.03*float64(c.DataBits) {
			t.Errorf("values parity overhead %.3f%%", 100*float64(c.ParityBits)/float64(c.DataBits))
		}
		wantCells := (c.DataBits + c.ParityBits + 2) / 3
		if c.Cells != wantCells {
			t.Errorf("%s cells = %d, want %d", c.Name, c.Cells, wantCells)
		}
	}
	if TotalCells(costs) <= 0 || TotalBits(costs) <= 0 {
		t.Error("totals wrong")
	}
}

func TestRunTrialPerfectStorageNoCorruption(t *testing.T) {
	cl := testLayer(32, 32, 0.6, 4, 2)
	cfg := Config{Tech: envm.CTT, Encoding: sparse.KindBitMask, Default: StreamPolicy{BPC: 0}}
	enc := sparse.Must(EncodeLayer(cl, cfg))
	st := runTrial(t, enc, cl.Indices, cl.Centroids, cfg, 7)
	if st.Faults != 0 || st.Mismatch != 0 || st.ValueNSR != 0 {
		t.Errorf("perfect storage corrupted: %+v", st)
	}
}

func TestRunTrialSLCNoCorruption(t *testing.T) {
	cl := testLayer(32, 32, 0.6, 4, 3)
	cfg := Config{Tech: envm.SLCRRAM, Encoding: sparse.KindCSR, Default: StreamPolicy{BPC: 1}}
	enc := sparse.Must(EncodeLayer(cl, cfg))
	st := runTrial(t, enc, cl.Indices, cl.Centroids, cfg, 7)
	if st.Mismatch > 0.001 {
		t.Errorf("SLC trial corrupted %.4f of weights", st.Mismatch)
	}
}

func TestBitmaskVulnerabilityOrdering(t *testing.T) {
	// The paper's core Section 4 finding, at the corruption-statistics
	// level: unprotected bitmask at MLC3 >> IdxSync-protected >> values
	// only. Averaged over several seeds.
	cl := testLayer(128, 256, 0.6, 4, 4)
	avg := func(kind sparse.Kind, overrides map[string]StreamPolicy) float64 {
		cfg := Config{Tech: envm.CTT, Encoding: kind, Default: StreamPolicy{BPC: 0}, Overrides: overrides}
		enc := sparse.Must(EncodeLayer(cl, cfg))
		var sum float64
		const n = 10
		for s := 0; s < n; s++ {
			st := runTrial(t, enc, cl.Indices, cl.Centroids, cfg, uint64(100+s))
			sum += st.Mismatch
		}
		return sum / n
	}
	maskOnly := avg(sparse.KindBitMask, map[string]StreamPolicy{"bitmask": {BPC: 3}})
	maskSync := avg(sparse.KindBitMaskIdxSync, map[string]StreamPolicy{"bitmask": {BPC: 3}})
	valsOnly := avg(sparse.KindBitMask, map[string]StreamPolicy{"values": {BPC: 3}})
	if maskOnly < 5*maskSync {
		t.Errorf("unprotected mask %.4f should be >> IdxSync %.4f", maskOnly, maskSync)
	}
	if maskSync < valsOnly {
		t.Errorf("IdxSync mask %.5f should still exceed value-only %.5f", maskSync, valsOnly)
	}
}

func TestECCEliminatesValueFaults(t *testing.T) {
	cl := testLayer(128, 128, 0.5, 4, 5)
	mk := func(eccOn bool) float64 {
		cfg := Config{
			Tech: envm.CTT, Encoding: sparse.KindDense,
			Default: StreamPolicy{BPC: 3, ECC: eccOn},
		}
		enc := sparse.Must(EncodeLayer(cl, cfg))
		var sum float64
		const n = 8
		for s := 0; s < n; s++ {
			st := runTrial(t, enc, cl.Indices, cl.Centroids, cfg, uint64(s))
			sum += st.Mismatch
		}
		return sum / n
	}
	raw := mk(false)
	protected := mk(true)
	if raw == 0 {
		t.Fatal("expected faults at CTT MLC3")
	}
	// At CTT MLC3 (~1.4e-3/cell) a 512-bit sector sees lambda_b ~ 0.24
	// faults; SEC-DED's residual double-fault rate gives a ~1/lambda_b
	// (~4-8x) mismatch reduction. Require >= 4x.
	if protected > raw/4 {
		t.Errorf("ECC mismatch %.5f vs raw %.5f: want >=4x reduction", protected, raw)
	}
}

func TestRunTrialDeterministic(t *testing.T) {
	cl := testLayer(64, 64, 0.6, 4, 6)
	cfg := Config{Tech: envm.CTT, Encoding: sparse.KindCSR, Default: StreamPolicy{BPC: 3}}
	enc := sparse.Must(EncodeLayer(cl, cfg))
	a := runTrial(t, enc, cl.Indices, cl.Centroids, cfg, 42)
	b := runTrial(t, enc, cl.Indices, cl.Centroids, cfg, 42)
	if a != b {
		t.Errorf("trials differ: %+v vs %+v", a, b)
	}
	// The pristine encoding must be untouched between trials.
	clean := runTrial(t, enc, cl.Indices, cl.Centroids,
		Config{Tech: envm.CTT, Encoding: sparse.KindCSR, Default: StreamPolicy{BPC: 0}}, 1)
	if clean.Mismatch != 0 {
		t.Error("pristine encoding was mutated by previous trials")
	}
}

func TestHeadroom(t *testing.T) {
	if h := Headroom(10, 0.1); h != 0.8 {
		t.Errorf("Headroom = %v, want 0.8", h)
	}
	if h := Headroom(1000, 0.3); h < 0.69 || h > 0.70 {
		t.Errorf("Headroom = %v", h)
	}
	if h := Headroom(2, 0.9); h != 0 {
		t.Errorf("negative headroom not clamped: %v", h)
	}
}

func TestDeltaErrorProperties(t *testing.T) {
	if d := DeltaError(1, 0.8, 0, 0); d != 0 {
		t.Errorf("no corruption should give zero delta, got %v", d)
	}
	small := DeltaError(1, 0.8, 0.001, 0)
	large := DeltaError(1, 0.8, 0.1, 0)
	if small >= large {
		t.Error("delta not monotone in NSR")
	}
	sat := DeltaError(1, 0.8, 100, 100)
	if sat > 0.8 || sat < 0.79 {
		t.Errorf("saturated delta = %v, want ~headroom", sat)
	}
	// Structural corruption weighs more than value NSR.
	if DeltaError(1, 0.8, 0.01, 0) >= DeltaError(1, 0.8, 0, 0.01) {
		t.Error("struct corruption should dominate equal-magnitude NSR")
	}
}

func TestSensitivityOrdering(t *testing.T) {
	if !(Sensitivity("LeNet5") < Sensitivity("VGG12") &&
		Sensitivity("VGG12") < Sensitivity("VGG16") &&
		Sensitivity("VGG16") <= Sensitivity("ResNet50")) {
		t.Error("sensitivity ordering violated")
	}
	if Sensitivity("unknown") != 1 {
		t.Error("default sensitivity wrong")
	}
}

func TestEvaluateLayerShape(t *testing.T) {
	cl := testLayer(64, 128, 0.7, 4, 8)
	cfg := Config{Tech: envm.CTT, Encoding: sparse.KindBitMask, Default: StreamPolicy{BPC: 3}}
	ld := EvaluateLayer(cl, cfg, EvalOptions{Seed: 1})
	if len(ld.Streams) != 2 || len(ld.Costs) != 2 {
		t.Fatalf("bitmask should yield 2 streams, got %d", len(ld.Streams))
	}
	var mask, values *StreamDamage
	for i := range ld.Streams {
		switch ld.Streams[i].Name {
		case "bitmask":
			mask = &ld.Streams[i]
		case "values":
			values = &ld.Streams[i]
		}
	}
	if mask == nil || values == nil {
		t.Fatal("stream names missing")
	}
	if !mask.Catastrophic {
		t.Errorf("unprotected mask should be catastrophic: dMismatch=%v", mask.DMismatch)
	}
	if values.Catastrophic {
		t.Errorf("value stream should not cascade: dMismatch=%v", values.DMismatch)
	}
	if mask.LambdaEff <= 0 || values.LambdaEff <= 0 {
		t.Error("lambda should be positive at CTT MLC3")
	}
}

func TestEvaluateLayerIdxSyncReducesDamage(t *testing.T) {
	cl := testLayer(128, 256, 0.6, 4, 9)
	mk := func(kind sparse.Kind) float64 {
		cfg := Config{Tech: envm.CTT, Encoding: kind, Default: StreamPolicy{BPC: 3}}
		ld := EvaluateLayer(cl, cfg, EvalOptions{Seed: 2, DamageTrials: 10})
		for _, sd := range ld.Streams {
			if sd.Name == "bitmask" {
				return sd.DMismatch
			}
		}
		t.Fatal("no bitmask stream")
		return 0
	}
	plain := mk(sparse.KindBitMask)
	sync := mk(sparse.KindBitMaskIdxSync)
	if plain < 10*sync {
		t.Errorf("IdxSync per-fault damage %.5f not << plain %.5f", sync, plain)
	}
}

func TestLambdaEffECCReduction(t *testing.T) {
	sc := envm.StoreConfig{Tech: envm.CTT, BPC: 3}
	bits := int64(1 << 20)
	raw := lambdaEff(bits, sc, false)
	corrected := lambdaEff(bits, sc, true)
	if corrected >= raw/10 {
		t.Errorf("ECC lambda %.4g not << raw %.4g", corrected, raw)
	}
	if corrected <= 0 {
		t.Error("residual double-fault rate should be positive at MLC3")
	}
}

func TestAggregateAndExpectedDelta(t *testing.T) {
	cl1 := testLayer(64, 64, 0.6, 4, 10)
	cl2 := testLayer(128, 128, 0.6, 4, 11)
	mk := func(bpc int) float64 {
		cfg := Config{Tech: envm.CTT, Encoding: sparse.KindBitMaskIdxSync, Default: StreamPolicy{BPC: bpc}}
		var lds []LayerDamage
		for i, cl := range []*quant.Clustered{cl1, cl2} {
			lds = append(lds, EvaluateLayer(cl, cfg, EvalOptions{Seed: uint64(i + 1)}))
		}
		md := Aggregate(lds)
		return md.ExpectedDeltaError(1.0, 0.8)
	}
	d3 := mk(3)
	d2 := mk(2)
	if d3 <= d2 {
		t.Errorf("MLC3 delta %.5g should exceed MLC2 %.5g", d3, d2)
	}
	if d2 > 0.01 {
		t.Errorf("MLC2 with IdxSync delta %.5g unexpectedly large", d2)
	}
}

func TestAcceptCriterion(t *testing.T) {
	md := ModelDamage{LinearNSR: 0.0001}
	md.TotalWeights = 100
	if !md.Accept(1, 0.8, 0.001) {
		t.Error("tiny corruption should be accepted")
	}
	bad := ModelDamage{LinearStruct: 0.5, TotalWeights: 100}
	if bad.Accept(1, 0.8, 0.001) {
		t.Error("huge corruption accepted")
	}
}

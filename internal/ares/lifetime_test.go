package ares

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/envm"
	"repro/internal/sparse"
)

func TestLifetimePolicyEpochCount(t *testing.T) {
	cases := []struct {
		lp   LifetimePolicy
		want int
	}{
		{LifetimePolicy{Years: 10, ScrubIntervalYears: 2}, 5},
		{LifetimePolicy{Years: 10, ScrubIntervalYears: 3}, 4}, // final epoch is shorter
		{LifetimePolicy{Years: 10}, 8},                        // no-scrub default
		{LifetimePolicy{Years: 10, EvalEpochs: 3}, 3},
		{LifetimePolicy{Years: 10, ScrubIntervalYears: 20}, 8}, // interval >= lifetime: never scrubs
	}
	for _, c := range cases {
		if err := c.lp.Validate(); err != nil {
			t.Fatalf("%+v: %v", c.lp, err)
		}
		if got := c.lp.EpochCount(); got != c.want {
			t.Errorf("%+v: epochs = %d, want %d", c.lp, got, c.want)
		}
		ages := c.lp.epochAges()
		if len(ages) != c.lp.EpochCount() || ages[len(ages)-1] != c.lp.Years {
			t.Errorf("%+v: ages %v must end at %v", c.lp, ages, c.lp.Years)
		}
		for i := 1; i < len(ages); i++ {
			if ages[i] <= ages[i-1] {
				t.Errorf("%+v: ages %v not increasing", c.lp, ages)
			}
		}
	}
}

func TestLifetimePolicyValidate(t *testing.T) {
	bad := []LifetimePolicy{
		{Years: 0},
		{Years: -1},
		{Years: math.NaN()},
		{Years: 10, ScrubIntervalYears: math.NaN()},
		{Years: 10, FloorDelta: -0.1},
		{Years: 10, EvalEpochs: -2},
		{Years: 10000, ScrubIntervalYears: 0.1}, // 100k epochs: over the cap
	}
	for _, lp := range bad {
		if err := lp.Validate(); err == nil {
			t.Errorf("%+v: expected a validation error", lp)
		}
	}
}

// The mitigation and retention fields must not perturb existing cache
// keys or checkpoint config IDs: the suffixes appear only when set.
func TestConfigStringMitigationSuffixes(t *testing.T) {
	base := Config{Tech: envm.CTT, Encoding: sparse.KindCSR, Default: StreamPolicy{BPC: 3}}
	plain := base.String()
	for _, bad := range []string{"degrade", "blk", "ret"} {
		if contains(plain, bad) {
			t.Fatalf("default config string %q mentions %q", plain, bad)
		}
	}
	base.Degrade = true
	base.ECCBlockBits = 256
	base.RetentionYears = 2.5
	s := base.String()
	if !contains(s, ",blk256") || !contains(s, ",degrade") || !contains(s, ",ret2.5y") {
		t.Fatalf("mitigation config string %q missing suffixes", s)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// High-rate helper: CTT MLC3 after heavy drift makes double-faults per
// block common, exercising the degrade path deterministically.
func degradeConfig(degrade bool) Config {
	return Config{
		Tech:           envm.CTT,
		Encoding:       sparse.KindCSR,
		Default:        StreamPolicy{BPC: 3, ECC: true},
		RetentionYears: 10,
		Degrade:        degrade,
	}
}

func TestDegradeZeroesUncorrectableBlocks(t *testing.T) {
	ev := getMeasured(t)
	// Largest layer: the most ECC blocks, so double-faults are likely.
	var cl = ev.Clustered()[0]
	for _, c := range ev.Clustered() {
		if len(c.Indices) > len(cl.Indices) {
			cl = c
		}
	}
	enc := sparse.Must(EncodeLayer(cl, degradeConfig(true)))

	for seed := uint64(1); seed <= 32; seed++ {
		stOff, _, err := RunTrialChecked(context.Background(), enc, cl.Indices, cl.Centroids, degradeConfig(false), seed)
		if err != nil {
			t.Fatal(err)
		}
		if stOff.DegradedBlocks != 0 {
			t.Fatalf("Degrade off but %d blocks degraded", stOff.DegradedBlocks)
		}
		if stOff.Detected == 0 {
			continue
		}
		stOn, _, err := RunTrialChecked(context.Background(), enc, cl.Indices, cl.Centroids, degradeConfig(true), seed)
		if err != nil {
			t.Fatal(err)
		}
		if stOn.DegradedBlocks != stOn.Detected {
			t.Fatalf("seed %d: degraded %d blocks, detected %d: every uncorrectable block must be zeroed",
				seed, stOn.DegradedBlocks, stOn.Detected)
		}
		return
	}
	t.Fatal("fixture too mild: no uncorrectable blocks in 32 seeds at CTT MLC3 + 10y")
}

func TestLifetimeTrialDeterministicAndShaped(t *testing.T) {
	ev := getMeasured(t)
	cfg := Config{
		Tech:     envm.MLCRRAM,
		Encoding: sparse.KindCSR,
		Default:  StreamPolicy{BPC: 3},
		Overrides: map[string]StreamPolicy{
			"colidx":   {BPC: 3, ECC: true},
			"rowcount": {BPC: 3, ECC: true},
		},
		Degrade: true,
	}
	lp := LifetimePolicy{Years: 6, ScrubIntervalYears: 2, FloorDelta: 0.5}

	a, err := ev.LifetimeTrial(context.Background(), cfg, lp, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.LifetimeTrial(context.Background(), cfg, lp, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("lifetime trial not deterministic:\n%+v\n%+v", a, b)
	}
	if len(a.Epochs) != 3 || a.Rewrites != 2 {
		t.Fatalf("scrubbed 6y/2y deployment: %d epochs, %d rewrites; want 3, 2", len(a.Epochs), a.Rewrites)
	}
	for _, es := range a.Epochs {
		if es.SinceScrubYears > lp.ScrubIntervalYears+1e-12 {
			t.Errorf("epoch %d drift age %v exceeds scrub interval", es.Epoch, es.SinceScrubYears)
		}
	}

	// No-scrub: drift age equals cumulative age, and no rewrites happen.
	lpNo := LifetimePolicy{Years: 6, EvalEpochs: 3}
	c, err := ev.LifetimeTrial(context.Background(), cfg, lpNo, 42)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rewrites != 0 {
		t.Fatalf("unscrubbed deployment performed %d rewrites", c.Rewrites)
	}
	for _, es := range c.Epochs {
		if es.SinceScrubYears != es.AgeYears {
			t.Errorf("unscrubbed epoch %d: drift %v != age %v", es.Epoch, es.SinceScrubYears, es.AgeYears)
		}
	}
	if got := c.Epochs[len(c.Epochs)-1].DeltaErr; got != c.FinalDelta {
		t.Errorf("FinalDelta %v != last epoch delta %v", c.FinalDelta, got)
	}
	if c.WorstDelta < c.FinalDelta {
		t.Errorf("WorstDelta %v below FinalDelta %v", c.WorstDelta, c.FinalDelta)
	}
}

func TestLifetimeTrialFloorGuard(t *testing.T) {
	ev := getMeasured(t)
	// Unprotected CTT MLC3 aging 10 years is catastrophic for CSR
	// metadata: the floor guard must fire.
	cfg := Config{Tech: envm.CTT, Encoding: sparse.KindCSR, Default: StreamPolicy{BPC: 3}}
	lp := LifetimePolicy{Years: 10, EvalEpochs: 2, FloorDelta: 0.05}
	res, err := ev.LifetimeTrial(context.Background(), cfg, lp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstViolation < 0 {
		t.Fatalf("catastrophic config never violated the %.2f floor: %+v", lp.FloorDelta, res)
	}
	if !res.Epochs[res.FirstViolation].FloorViolated {
		t.Fatal("FirstViolation epoch not flagged")
	}
}

// TestLifetimeTrialRejectsCrossbar: a lifetime simulation ages stored
// bits, so a crossbar config (whose weights live as conductances) is an
// error, not a silently clean deployment.
func TestLifetimeTrialRejectsCrossbar(t *testing.T) {
	ev := getMeasured(t)
	cfg := xbarCfg(crossbar.Config{Rows: 32, Cols: 16, VarSigma: 0.03, StuckRate: 1e-3})
	if _, err := ev.LifetimeTrial(context.Background(), cfg, LifetimePolicy{Years: 5}, 1); err == nil {
		t.Fatal("lifetime trial accepted a crossbar config")
	}
}

// TestLifetimeTrial24RunsDirect: a Kind24 lifetime epoch is measured on
// the compute-direct route, as a Kind24 EvalTrial is: every measured
// epoch records ares.eval.direct, and none records ares.phase.eval (the
// timer of the dense kernels).
func TestLifetimeTrial24RunsDirect(t *testing.T) {
	ev := getMeasured(t)
	ctx := context.Background()
	cfg := Config{Tech: envm.CTT, Encoding: sparse.Kind24, Default: StreamPolicy{BPC: 3}}
	direct0, dense0 := met.evalDirect.Hist().Count(), met.eval.Hist().Count()
	_, st, err := ev.EvalTrial(ctx, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.LifetimeTrial(ctx, cfg, LifetimePolicy{Years: 10, EvalEpochs: 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A trial that corrupted no weight takes the fast path: no timer.
	var trials, epochs int64
	if st.Mismatch > 0 {
		trials++
	}
	for _, es := range res.Epochs {
		if es.Stats.Mismatch > 0 {
			epochs++
		}
	}
	if epochs == 0 {
		t.Fatal("no lifetime epoch corrupted a weight: the test exercises nothing")
	}
	measured := trials + epochs
	if got := met.evalDirect.Hist().Count() - direct0; got != measured {
		t.Errorf("ares.eval.direct recorded %d measurements, want %d", got, measured)
	}
	if got := met.eval.Hist().Count() - dense0; got != 0 {
		t.Errorf("ares.phase.eval recorded %d measurements of Kind24 trials, want 0", got)
	}
}

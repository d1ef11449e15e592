package ares

import (
	"context"
	"sync"
	"testing"

	"repro/internal/dnn"
	"repro/internal/envm"
	"repro/internal/sparse"
	"repro/internal/stats"
	"repro/internal/train"
)

// Shared trained model for the measured-evaluator tests (training once
// keeps the suite fast).
var (
	measuredOnce sync.Once
	measuredEv   *MeasuredEvaluator
	measuredErr  error
)

func getMeasured(t *testing.T) *MeasuredEvaluator {
	t.Helper()
	measuredOnce.Do(func() {
		trainDS := train.Synthesize(train.SynthConfig{N: 600, Seed: 10, ProtoSeed: 77})
		testDS := train.Synthesize(train.SynthConfig{N: 200, Seed: 11, ProtoSeed: 77})
		m := dnn.TinyCNN()
		m.InitWeights(42)
		if _, err := train.Train(m, trainDS, train.Config{Epochs: 6, Seed: 1}); err != nil {
			measuredErr = err
			return
		}
		measuredEv, measuredErr = NewMeasuredEvaluator(m, testDS, 5)
	})
	if measuredErr != nil {
		t.Fatal(measuredErr)
	}
	return measuredEv
}

// serialResult aggregates a set of serial measured trials.
type serialResult struct {
	// MeanDeltaErr and MaxDeltaErr are the mean and worst trial deltas.
	MeanDeltaErr, MaxDeltaErr float64
	// Stats holds each trial's corruption statistics, in trial order.
	Stats []TrialStats
}

// evalSerial measures `trials` independent fault maps under cfg through
// the serial reference. Trial t draws its per-layer seeds from
// stats.NewSource(seed).Fork(t+1): the fault maps these tests'
// thresholds were set on.
func evalSerial(t *testing.T, ev *MeasuredEvaluator, cfg Config, trials int, seed uint64) serialResult {
	t.Helper()
	src := stats.NewSource(seed)
	var res serialResult
	for i := 0; i < trials; i++ {
		tr, err := ev.corrupt(context.Background(), cfg, src.Fork(uint64(i)+1), false)
		if err != nil {
			t.Fatal(err)
		}
		delta := ev.measureSerial(tr)
		res.Stats = append(res.Stats, tr.stats)
		res.MeanDeltaErr += delta
		res.MaxDeltaErr = max(res.MaxDeltaErr, delta)
	}
	res.MeanDeltaErr /= float64(trials)
	return res
}

func TestMeasuredBaselineReasonable(t *testing.T) {
	ev := getMeasured(t)
	if ev.BaselineErr > 0.2 {
		t.Fatalf("clustered baseline error %.3f too high; pruning+clustering broke the model", ev.BaselineErr)
	}
	if len(ev.Clustered()) != 4 {
		t.Fatalf("TinyCNN should have 4 clustered layers, got %d", len(ev.Clustered()))
	}
	for _, cl := range ev.Clustered() {
		if cl.Sparsity() < 0.5 {
			t.Errorf("layer sparsity %.2f below pruning target", cl.Sparsity())
		}
	}
}

func TestMeasuredFig5StructureVulnerability(t *testing.T) {
	// The paper's Figure 5, with real inference: isolate each CSR
	// structure at CTT MLC3 and measure classification error. Row
	// counters (global cascade) must hurt far more than values; ECC on
	// the row counters must restore near-baseline accuracy.
	// TinyCNN's row-counter structure is only ~250 cells, so at CTT MLC3
	// it sees ~0.14 expected faults per map — the interesting quantity is
	// the *conditional* damage when a fault does land (the cascade), so
	// the experiment runs enough maps to observe several.
	ev := getMeasured(t)
	base := Config{Tech: envm.CTT, Encoding: sparse.KindCSR}
	const trials = 36

	run := func(stream string, p StreamPolicy) serialResult {
		return evalSerial(t, ev, IsolateStream(base, stream, p), trials, 99)
	}

	values3 := run("values", StreamPolicy{BPC: 3})
	rowcount3 := run("rowcount", StreamPolicy{BPC: 3})

	if rowcount3.MaxDeltaErr < 0.1 {
		t.Errorf("worst row-counter fault map delta=%.4f; expected a catastrophic cascade", rowcount3.MaxDeltaErr)
	}
	if values3.MaxDeltaErr > 0.05 {
		t.Errorf("worst value fault map delta=%.4f; value faults should stay benign", values3.MaxDeltaErr)
	}
	if rowcount3.MeanDeltaErr <= values3.MeanDeltaErr {
		t.Errorf("row counter mean delta %.4f should exceed values %.4f",
			rowcount3.MeanDeltaErr, values3.MeanDeltaErr)
	}
}

func TestMeasuredBitmaskIdxSync(t *testing.T) {
	// Figure 5 right half: the bitmask cannot be safely stored at MLC3
	// without protection; IdxSync restores accuracy.
	ev := getMeasured(t)
	const trials = 6

	plain := evalSerial(t, ev, IsolateStream(
		Config{Tech: envm.CTT, Encoding: sparse.KindBitMask},
		"bitmask", StreamPolicy{BPC: 3}), trials, 7).MeanDeltaErr
	sync := evalSerial(t, ev, IsolateStream(
		Config{Tech: envm.CTT, Encoding: sparse.KindBitMaskIdxSync},
		"bitmask", StreamPolicy{BPC: 3}), trials, 7).MeanDeltaErr

	if plain < 0.05 {
		t.Errorf("unprotected bitmask at MLC3 delta=%.4f; expected severe degradation", plain)
	}
	if sync > plain/3 {
		t.Errorf("IdxSync delta=%.4f vs plain %.4f: mitigation ineffective", sync, plain)
	}
}

func TestMeasuredSLCIsSafe(t *testing.T) {
	ev := getMeasured(t)
	cfg := Config{Tech: envm.SLCRRAM, Encoding: sparse.KindCSR, Default: StreamPolicy{BPC: 1}}
	res := evalSerial(t, ev, cfg, 4, 3)
	if res.MeanDeltaErr > 0.01 {
		t.Errorf("SLC storage delta=%.4f; should be ~0", res.MeanDeltaErr)
	}
}

func TestSurrogateOrderingMatchesMeasured(t *testing.T) {
	// Calibration check (DESIGN.md section 6): the surrogate must rank
	// configurations in the same order as real measured inference.
	ev := getMeasured(t)
	configs := []Config{
		{Tech: envm.CTT, Encoding: sparse.KindCSR, Default: StreamPolicy{BPC: 1}},
		{Tech: envm.CTT, Encoding: sparse.KindCSR, Default: StreamPolicy{BPC: 3, ECC: true}},
		{Tech: envm.CTT, Encoding: sparse.KindCSR, Default: StreamPolicy{BPC: 3}},
	}
	var measured, surrogate []float64
	sens := Sensitivity("TinyCNN")
	headroom := Headroom(10, ev.BaselineErr)
	for _, cfg := range configs {
		measured = append(measured, evalSerial(t, ev, cfg, 6, 21).MeanDeltaErr)
		var lds []LayerDamage
		for i, cl := range ev.Clustered() {
			lds = append(lds, EvaluateLayer(cl, cfg, EvalOptions{Seed: uint64(i + 1)}))
		}
		surrogate = append(surrogate, Aggregate(lds).ExpectedDeltaError(sens, headroom))
	}
	// SLC < ECC-protected MLC3 < raw MLC3 in both rankings.
	for _, vals := range [][]float64{measured, surrogate} {
		if !(vals[0] <= vals[1]+1e-9 && vals[1] <= vals[2]+1e-9) {
			t.Errorf("ordering violated: %v (measured=%v surrogate=%v)", vals, measured, surrogate)
		}
	}
	// Raw MLC3 must be clearly bad in both.
	if measured[2] < 0.02 {
		t.Errorf("measured raw MLC3 delta %.4f unexpectedly benign", measured[2])
	}
	if surrogate[2] < 0.02 {
		t.Errorf("surrogate raw MLC3 delta %.4f unexpectedly benign", surrogate[2])
	}
}

// TestEncodingCacheOnePerKind: an encoding depends only on the format,
// so configs that share a kind but differ in policies, ECC block size,
// degrade or retention cost exactly one encode among them, whichever
// route (write-time trial, compute-direct 2:4, decode-to-dense oracle,
// lifetime epoch, storage bill) asks first.
func TestEncodingCacheOnePerKind(t *testing.T) {
	m := dnn.TinyCNN()
	m.InitWeights(7)
	ev, err := NewMeasuredEvaluator(m, train.Synthesize(train.SynthConfig{N: 20, Seed: 3, ProtoSeed: 77}), 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, kind := range append([]sparse.Kind{sparse.Kind24}, sparse.Kinds...) {
		cfgs := []Config{
			{Tech: envm.CTT, Encoding: kind, Default: StreamPolicy{BPC: 3}},
			{Tech: envm.CTT, Encoding: kind, Default: StreamPolicy{BPC: 2, ECC: true}, ECCBlockBits: 64},
			{Tech: envm.MLCRRAM, Encoding: kind, Default: StreamPolicy{BPC: 3, ECC: true}, Degrade: true, RetentionYears: 4},
		}
		misses := met.cacheMisses.Value()
		for i, cfg := range cfgs {
			if _, err := ev.CorruptTrial(ctx, cfg, uint64(i)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ev.EvalTrialSerial(ctx, cfg, uint64(i)); err != nil {
				t.Fatal(err)
			}
			if _, err := ev.LifetimeTrial(ctx, cfg, LifetimePolicy{Years: 2, ScrubIntervalYears: 1}, uint64(i)); err != nil {
				t.Fatal(err)
			}
			if _, err := ev.Bill(cfg); err != nil {
				t.Fatal(err)
			}
		}
		if got := met.cacheMisses.Value() - misses; got != 1 {
			t.Errorf("%v: %d encodes for %d configs of one kind, want 1", kind, got, len(cfgs))
		}
	}
	if len(ev.encCache) != 1+len(sparse.Kinds) {
		t.Errorf("encoding cache holds %d entries, want one per kind (%d)", len(ev.encCache), 1+len(sparse.Kinds))
	}
}

package maxnvm

// Crossbar compute-in-memory micro-benchmarks (`go test -run '^$'
// -bench Crossbar -benchmem .`): trial throughput through the analog
// route — per-tile accumulation with per-column ADC quantization —
// against the digital dense route running the same programmed weights,
// plus the per-epoch cost of the online detect/remap/degrade loop. The
// tracked end-to-end crossbar numbers are perfbench's xbar workload
// (see BENCHMARK.json).
//
// Rows to compare:
//
//   - CrossbarTrialThroughput vs CrossbarTrialThroughputDigital: the
//     ADC-quantized crossbar kernels vs the dense digital kernels on
//     identical effective weights (ADCBits=0 routes the same trial
//     through the dense path). The gap is the pure cost of modeling
//     column-wise ADC quantization.
//   - CrossbarTrialThroughput vs CrossbarTrialThroughputSerial: the
//     replica-pool measurement vs the mutex-serialized oracle.
//   - CrossbarScrubEpoch vs CrossbarProgram: one online tolerance epoch
//     (detect -> remap -> degrade) vs programming alone; the difference
//     is the scrub overhead per epoch (remaps/op makes the repair work
//     explicit).

import (
	"testing"

	"repro/internal/ares"
	"repro/internal/crossbar"
	"repro/internal/envm"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// benchXbarConfig exercises the full analog path: programming variation
// on every device (so no trial takes the fast path), sparse column
// faults, and an 8-bit ADC.
func benchXbarConfig(adcBits int) ares.Config {
	return ares.Config{Tech: envm.CTT, Crossbar: &crossbar.Config{
		Rows: 64, Cols: 32, VarSigma: 0.02, StuckColRate: 5e-3, ADCBits: adcBits,
	}}
}

// BenchmarkCrossbarTrialThroughput is the headline analog row: every
// trial programs the arrays, then measures through the crossbar kernels
// (tile accumulation + 8-bit column ADCs) on a pooled replica.
func BenchmarkCrossbarTrialThroughput(b *testing.B) {
	ev := benchMeasured(b)
	benchTrials(b, benchXbarConfig(8), ev.EvalTrial)
}

// BenchmarkCrossbarTrialThroughputDigital runs the identical fault
// workload with the ADC disabled: the same effective weights overlay
// the dense digital kernels, isolating the ADC-modeling cost.
func BenchmarkCrossbarTrialThroughputDigital(b *testing.B) {
	ev := benchMeasured(b)
	benchTrials(b, benchXbarConfig(0), ev.EvalTrial)
}

// BenchmarkCrossbarTrialThroughputSerial is the mutex-serialized oracle
// for the analog row.
func BenchmarkCrossbarTrialThroughputSerial(b *testing.B) {
	ev := benchMeasured(b)
	benchTrials(b, benchXbarConfig(8), ev.EvalTrialSerial)
}

// benchXbarLayer maps one FC-sized weight matrix for the scrub
// microbenchmarks (512x256: 8 row tiles x 8 column tiles of 64x32).
func benchXbarLayer(b *testing.B, cfg crossbar.Config) (*crossbar.Layer, *crossbar.Trial) {
	b.Helper()
	w := tensor.NewMatrix(512, 256)
	s := uint64(9)
	for i := range w.Data {
		s = s*6364136223846793005 + 1442695040888963407
		w.Data[i] = float32(int32(s>>33)) / float32(1<<31)
	}
	ly, err := crossbar.Map(w, cfg, envm.CTT)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := ly.NewTrial(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ly, tr
}

// BenchmarkCrossbarProgram: programming one 512x256 layer (variation +
// stuck-at sampling, no online loop) — the baseline for the scrub rows.
func BenchmarkCrossbarProgram(b *testing.B) {
	cfg := crossbar.Config{Rows: 64, Cols: 32, VarSigma: 0.02, StuckColRate: 5e-3}
	_, tr := benchXbarLayer(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Program(stats.NewSource(uint64(i) + 1))
	}
}

// BenchmarkCrossbarScrubEpoch: one full online tolerance epoch — probe
// every column segment, remap flagged columns to spares, zero the
// unmappable — on a freshly programmed layer. Subtract the Program row
// for the pure scrub overhead.
func BenchmarkCrossbarScrubEpoch(b *testing.B) {
	cfg := crossbar.Config{Rows: 64, Cols: 32, VarSigma: 0.02, StuckColRate: 5e-3,
		SpareCols: 4, DetectSigma: 4}
	_, tr := benchXbarLayer(b, cfg)
	remaps := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := stats.NewSource(uint64(i) + 1)
		tr.Program(src)
		tr.Online(src.Fork(4))
		remaps += tr.Stats.Remapped
	}
	b.StopTimer()
	b.ReportMetric(float64(remaps)/float64(b.N), "remaps/op")
}

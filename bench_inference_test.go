package maxnvm

// Inference-engine micro-benchmarks: campaign trial throughput through
// the replica pool vs the legacy serialized path, and the allocation
// profile of the steady-state forward pass. Run them with
// `go test -run '^$' -bench 'TrialThroughput|ForwardAllocFree' -benchmem .`
// and compare runs benchstat-style (ns/op, allocs/op, trials/s). The
// repository's tracked end-to-end numbers come from perfbench (see
// BENCHMARK.json and perfbench/README.md).
//
// Two workloads:
//
//   - CampaignTrialThroughput*: the paper's Figure 5 row-counter config
//     (CTT MLC3 on the CSR rowcount stream). The stream is a few hundred
//     cells, so most fault maps decode clean and take the zero-mismatch
//     fast path — the realistic campaign mix.
//   - CorruptedTrialThroughput*: the CSR value stream at MLC3, where
//     essentially every trial corrupts weights and pays full inference —
//     the worst case, isolating replica-vs-lock measurement cost.
//
// The reported fasthit/op metric makes the fast-path fraction explicit
// so the two workloads cannot be confused.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ares"
	"repro/internal/crossbar"
	"repro/internal/dnn"
	"repro/internal/envm"
	"repro/internal/sparse"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/train"
)

var (
	benchMeasuredOnce sync.Once
	benchMeasuredEv   *ares.MeasuredEvaluator
	benchMeasuredErr  error
)

// benchMeasured trains the TinyCNN fixture once per benchmark binary and
// wraps it in a MeasuredEvaluator (same recipe as the ares test suite).
func benchMeasured(b *testing.B) *ares.MeasuredEvaluator {
	b.Helper()
	benchMeasuredOnce.Do(func() {
		trainDS := train.Synthesize(train.SynthConfig{N: 600, Seed: 10, ProtoSeed: 77})
		testDS := train.Synthesize(train.SynthConfig{N: 200, Seed: 11, ProtoSeed: 77})
		m := dnn.TinyCNN()
		m.InitWeights(42)
		if _, benchMeasuredErr = train.Train(m, trainDS, train.Config{Epochs: 6, Seed: 1}); benchMeasuredErr != nil {
			return
		}
		benchMeasuredEv, benchMeasuredErr = ares.NewMeasuredEvaluator(m, testDS, 5)
	})
	if benchMeasuredErr != nil {
		b.Fatal(benchMeasuredErr)
	}
	return benchMeasuredEv
}

func benchFig5Config() ares.Config {
	return ares.IsolateStream(ares.Config{Tech: envm.CTT, Encoding: sparse.KindCSR},
		"rowcount", ares.StreamPolicy{BPC: 3})
}

func benchDenseFaultConfig() ares.Config {
	return ares.IsolateStream(ares.Config{Tech: envm.CTT, Encoding: sparse.KindCSR},
		"values", ares.StreamPolicy{BPC: 3})
}

// trial is one EvalTrial-shaped call under benchmark.
type trialFunc func(ctx context.Context, cfg ares.Config, seed uint64) (float64, ares.TrialStats, error)

// benchTrials drives fn from GOMAXPROCS goroutines — the campaign
// engine's access pattern — reporting trials/s and the fast-path hit
// fraction.
func benchTrials(b *testing.B, cfg ares.Config, fn trialFunc) {
	ctx := context.Background()
	// Warm the encoding cache (and replica pool) outside the timer.
	if _, _, err := fn(ctx, cfg, 1); err != nil {
		b.Fatal(err)
	}
	fastHits := telemetry.Default().Counter("ares.fastpath.hits")
	hits0 := fastHits.Value()
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := fn(ctx, cfg, seed.Add(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "trials/s")
	}
	b.ReportMetric(float64(fastHits.Value()-hits0)/float64(b.N), "fasthit/op")
}

// BenchmarkCampaignTrialThroughput is the headline: Figure 5 campaign
// trials through the replica pool (parallel measurement + fast path).
func BenchmarkCampaignTrialThroughput(b *testing.B) {
	ev := benchMeasured(b)
	benchTrials(b, benchFig5Config(), ev.EvalTrial)
}

// BenchmarkCampaignTrialThroughputSerial is the pre-replica baseline:
// the same concurrent callers, but every measurement funnels through the
// mutex-serialized shared model and allocates a fresh forward pass.
func BenchmarkCampaignTrialThroughputSerial(b *testing.B) {
	ev := benchMeasured(b)
	benchTrials(b, benchFig5Config(), ev.EvalTrialSerial)
}

// BenchmarkCorruptedTrialThroughput is the worst case: every trial
// corrupts weights, so the fast path never fires and each trial pays a
// full (allocation-free, replica-local) inference pass.
func BenchmarkCorruptedTrialThroughput(b *testing.B) {
	ev := benchMeasured(b)
	benchTrials(b, benchDenseFaultConfig(), ev.EvalTrial)
}

// BenchmarkCorruptedTrialThroughputSerial is the locked baseline for the
// worst case.
func BenchmarkCorruptedTrialThroughputSerial(b *testing.B) {
	ev := benchMeasured(b)
	benchTrials(b, benchDenseFaultConfig(), ev.EvalTrialSerial)
}

func bench24FaultConfig() ares.Config {
	return ares.IsolateStream(ares.Config{Tech: envm.CTT, Encoding: sparse.Kind24},
		"values", ares.StreamPolicy{BPC: 3})
}

// BenchmarkCorruptedTrialThroughput24Direct is the compute-direct 2:4
// worst case: every trial corrupts the value stream, decodes it like
// every format, compacts the dirty layers' decoded rows and runs
// inference through the tensor.Sparse24 kernels — no dense weight
// matrix is ever built. Compare against CorruptedTrialThroughput (CSR
// decode-to-dense, same replica pool) and the 24Oracle row below (the
// same trials on the dense kernels) for the 2:4 kernels' speedup.
func BenchmarkCorruptedTrialThroughput24Direct(b *testing.B) {
	ev := benchMeasured(b)
	benchTrials(b, bench24FaultConfig(), ev.EvalTrial)
}

// BenchmarkCorruptedTrialThroughput24Oracle is the dense-kernel
// reference route for the same 2:4 workload (EvalTrialSerial): the
// decoded indices map to a dense weight matrix and run the dense kernels.
func BenchmarkCorruptedTrialThroughput24Oracle(b *testing.B) {
	ev := benchMeasured(b)
	benchTrials(b, bench24FaultConfig(), ev.EvalTrialSerial)
}

// BenchmarkForwardAllocFree measures the steady-state forward pass in
// the replica configuration (Workers=1, reused Forwarder). Run with
// -benchmem: the acceptance criterion is 0 allocs/op.
func BenchmarkForwardAllocFree(b *testing.B) {
	ds := train.Synthesize(train.SynthConfig{N: 100, Seed: 1})
	m := dnn.TinyCNN()
	m.InitWeights(1)
	f := dnn.NewForwarder(m)
	f.Workers = 1
	f.Forward(ds.Images) // materialize buffers
	if n := testing.AllocsPerRun(10, func() { f.Forward(ds.Images) }); n != 0 {
		b.Fatalf("steady-state forward pass allocates %v allocs/op, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Forward(ds.Images)
	}
}

// BenchmarkForwardAllocFree24 is the same steady-state forward pass with
// every weight layer routed through the compute-direct 2:4 kernels
// (weights projected onto the 2:4 pattern). Same acceptance criterion:
// 0 allocs/op. The ns/op delta vs BenchmarkForwardAllocFree is the raw
// kernel speedup from skipping half the MACs.
func BenchmarkForwardAllocFree24(b *testing.B) {
	ds := train.Synthesize(train.SynthConfig{N: 100, Seed: 1})
	m := dnn.TinyCNN()
	m.InitWeights(1)
	for _, l := range m.Layers {
		if !l.HasWeights() {
			continue
		}
		w := l.Weights
		s := tensor.NewSparse24(w.Rows, w.Cols)
		gpr := s.GroupsPerRow
		for r := 0; r < w.Rows; r++ {
			for g := 0; g < gpr; g++ {
				lim := w.Cols - g*4
				if lim > 4 {
					lim = 4
				}
				// Keep the two largest magnitudes per group (leftmost ties).
				best, second := -1, -1
				abs := func(p int) float32 {
					v := w.Data[r*w.Cols+g*4+p]
					if v < 0 {
						v = -v
					}
					return v
				}
				for p := 0; p < lim; p++ {
					switch {
					case best < 0 || abs(p) > abs(best):
						best, second = p, best
					case second < 0 || abs(p) > abs(second):
						second = p
					}
				}
				if second >= 0 && second < best {
					best, second = second, best
				}
				e := (r*gpr + g) * 2
				k := 0
				for _, p := range [2]int{best, second} {
					if p >= 0 && abs(p) != 0 {
						s.Val[e+k], s.Pos[e+k] = w.Data[r*w.Cols+g*4+p], uint8(p)
						k++
					}
				}
			}
		}
		l.Weights24 = s
	}
	f := dnn.NewForwarder(m)
	f.Workers = 1
	f.Forward(ds.Images)
	if n := testing.AllocsPerRun(10, func() { f.Forward(ds.Images) }); n != 0 {
		b.Fatalf("2:4 steady-state forward pass allocates %v allocs/op, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Forward(ds.Images)
	}
}

// BenchmarkForwardAllocFreeXbar is the same steady-state forward pass
// with every weight layer routed through the crossbar kernels: the
// pristine mapping of benchXbarConfig's 64x32 tiles and 8-bit column
// ADCs. Same acceptance criterion: 0 allocs/op. The ns/op delta vs
// BenchmarkForwardAllocFree is the cost of per-tile accumulation and
// ADC quantization.
func BenchmarkForwardAllocFreeXbar(b *testing.B) {
	ds := train.Synthesize(train.SynthConfig{N: 100, Seed: 1})
	m := dnn.TinyCNN()
	m.InitWeights(1)
	cfg := *benchXbarConfig(8).Crossbar
	for _, l := range m.Layers {
		if !l.HasWeights() {
			continue
		}
		ly, err := crossbar.Map(l.Weights, cfg, envm.CTT)
		if err != nil {
			b.Fatal(err)
		}
		l.WeightsXbar = ly.PristineXbar()
	}
	f := dnn.NewForwarder(m)
	f.Workers = 1
	f.Forward(ds.Images)
	if n := testing.AllocsPerRun(10, func() { f.Forward(ds.Images) }); n != 0 {
		b.Fatalf("crossbar steady-state forward pass allocates %v allocs/op, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Forward(ds.Images)
	}
}

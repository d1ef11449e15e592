package maxnvm

// The benchmark harness regenerates every table and figure of the paper
// (via internal/exper, shared with cmd/maxnvm) and additionally measures
// the throughput of the core primitives. Run:
//
//	go test -bench=. -benchmem
//
// The first figure benchmark triggers the full design-space exploration
// for all four models; results are cached in the shared environment, so
// subsequent iterations measure the evaluation/rendering path.

import (
	"context"
	"io"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/ares"
	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/crossbar"
	"repro/internal/dnn"
	"repro/internal/ecc"
	"repro/internal/envm"
	"repro/internal/exper"
	"repro/internal/nvsim"
	"repro/internal/quant"
	"repro/internal/sparse"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/train"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *exper.Env
)

func env() *exper.Env {
	benchEnvOnce.Do(func() {
		benchEnv = exper.NewEnv(1)
		benchEnv.MaxLayerWeights = 1 << 17
		benchEnv.DamageTrials = 3
	})
	return benchEnv
}

// skipIfShort skips the exploration-scale benchmarks under -short: they
// run full design-space explorations or model training, which the fast
// CI tier (go test -short, make race) must not pay for.
func skipIfShort(b *testing.B) {
	if testing.Short() {
		b.Skip("exploration-scale benchmark skipped in -short mode")
	}
}

var allModels = []string{"LeNet5", "VGG12", "VGG16", "ResNet50"}
var bigModels = []string{"VGG12", "VGG16", "ResNet50"}

// --- Paper tables and figures -----------------------------------------

func BenchmarkFig1ArrayCharacterization(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		env().Fig1(io.Discard)
	}
}

func BenchmarkFig2LevelDistributions(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		env().Fig2(io.Discard)
	}
}

func BenchmarkTable2ModelSizes(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		env().Table2(io.Discard, allModels)
	}
}

func BenchmarkFig5StructureVulnerability(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		if err := env().Fig5(context.Background(), io.Discard, 6, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6MinimalCells(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		for _, m := range allModels {
			env().Fig6(io.Discard, m)
		}
	}
}

func BenchmarkFig8AreaEnergy(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		env().Fig8(io.Discard, bigModels)
	}
}

func BenchmarkFig9SystemPerformance(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		env().Fig9(io.Discard)
	}
}

func BenchmarkFig10NonVolatility(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		env().Fig10(io.Discard)
	}
}

func BenchmarkFig11HybridSweep(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		env().Fig11(io.Discard)
	}
}

func BenchmarkTable4OptimalStorage(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		env().Table4(io.Discard, bigModels)
	}
}

func BenchmarkTable5WriteTime(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		env().Table5(io.Discard, bigModels)
	}
}

func BenchmarkHeadlineClaims(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		env().Headlines(io.Discard)
	}
}

func BenchmarkITNMeasurement(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		if err := env().ITN(io.Discard, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPerLayerSelection(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		env().PerLayer(io.Discard, []string{"LeNet5", "VGG12"})
	}
}

func BenchmarkAblationSuite(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		env().Ablations(io.Discard)
	}
}

func BenchmarkWritePathStudy(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		env().WritePath(io.Discard)
	}
}

func BenchmarkRNNReuseStudy(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		env().RNN(io.Discard)
	}
}

// --- Design-choice ablations (DESIGN.md section 5) ---------------------

// BenchmarkAblationOrdering contrasts the paper's "sparse-encode first,
// then maximize bits-per-cell" ordering against the reverse (dense at max
// BPC), reporting cells as the metric.
func BenchmarkAblationOrdering(b *testing.B) {
	skipIfShort(b)
	ex, err := Explore("LeNet5", Options{Seed: 1, DamageTrials: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparseFirst := ex.BestEncoding(CTT, CSR)
		denseMax := ex.BestEncoding(CTT, Dense)
		b.ReportMetric(float64(sparseFirst.TotalCells), "cells-sparse-first")
		b.ReportMetric(float64(denseMax.TotalCells), "cells-dense-max-bpc")
	}
}

// BenchmarkAblationBitmaskProtection contrasts IdxSync against ECC for
// the bitmask structure on the optimistic RRAM.
func BenchmarkAblationBitmaskProtection(b *testing.B) {
	skipIfShort(b)
	ex, err := Explore("VGG12", Options{Seed: 1, DamageTrials: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idxSync := ex.BestEncoding(OptRRAM, BitMaskIdxSync)
		plain := ex.BestEncoding(OptRRAM, BitMask)
		b.ReportMetric(float64(idxSync.TotalCells), "cells-idxsync")
		b.ReportMetric(float64(plain.TotalCells), "cells-plain")
	}
}

// BenchmarkAblationCSRIndexMode contrasts relative column indices
// (narrow, padding entries, cascade-prone) against absolute indices
// (wide, cascade-free): the paper argues absolute indexing costs strictly
// more bits than relative + ECC.
func BenchmarkAblationCSRIndexMode(b *testing.B) {
	cl := benchClustered(128, 512, 0.85, 4, 9)
	code := ecc.NewBlockCode(ares.ECCDataBits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel := sparse.Must(sparse.EncodeCSR(cl.Indices, cl.Rows, cl.Cols, cl.IndexBits,
			sparse.Must(sparse.BestIndexBits(cl.Indices, cl.Rows, cl.Cols, cl.IndexBits))))
		relBits := rel.SizeBits() + code.ParityBits(int(rel.ColIndex.SizeBits()+rel.RowCount.SizeBits()))
		abs := sparse.Must(sparse.EncodeCSR(cl.Indices, cl.Rows, cl.Cols, cl.IndexBits,
			bitstream.BitsFor(cl.Cols-1)))
		b.ReportMetric(float64(relBits), "bits-relative+ecc")
		b.ReportMetric(float64(abs.SizeBits()), "bits-absolute")
	}
}

// --- Primitive throughput benchmarks -----------------------------------

func benchClustered(rows, cols int, sparsity float64, bits int, seed uint64) *quant.Clustered {
	src := stats.NewSource(seed)
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(src.Gaussian(0, 0.1))
	}
	quant.Prune(m, sparsity, seed)
	return quant.Cluster(m, bits, quant.ClusterOptions{Seed: seed})
}

// BenchmarkInjectMLC3 measures fault-injection throughput through the
// telemetry instrumentation itself: per-op latency goes into a named
// timer histogram, and the reported cells/s and faults/op come from the
// envm.inject.* hot-path counters rather than locals, so the benchmark
// doubles as an end-to-end check that the counters track real work.
func BenchmarkInjectMLC3(b *testing.B) {
	cfg := envm.StoreConfig{Tech: envm.CTT, BPC: 3}
	a := bitstream.New(3 << 20)
	src := stats.NewSource(1)
	reg := telemetry.Default()
	cells := reg.Counter("envm.inject.cells")
	faults := reg.Counter("envm.inject.faults")
	lat := reg.Timer("bench.inject.latency")
	cells0, faults0 := cells.Value(), faults.Value()
	b.SetBytes(3 << 17) // bytes of cell data per op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		envm.InjectArray(a, cfg, src)
		lat.Since(start)
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if dCells := cells.Value() - cells0; dCells != int64(b.N)<<20 {
		b.Fatalf("envm.inject.cells advanced by %d, want %d", dCells, int64(b.N)<<20)
	} else if elapsed > 0 {
		b.ReportMetric(float64(dCells)/elapsed, "cells/s")
	}
	b.ReportMetric(float64(faults.Value()-faults0)/float64(b.N), "faults/op")
	b.ReportMetric(float64(lat.Hist().Quantile(0.5)), "p50-ns/op")
}

// BenchmarkTelemetryRecordingAllocFree proves the hot-path recording
// primitives stay allocation-free — the property that makes it safe to
// leave them inside InjectArray and the decoders. AllocsPerRun gives an
// exact per-call figure; any nonzero count fails the benchmark.
func BenchmarkTelemetryRecordingAllocFree(b *testing.B) {
	reg := telemetry.Default()
	c := reg.Counter("bench.allocfree.counter")
	h := reg.Histogram("bench.allocfree.hist")
	tm := reg.Timer("bench.allocfree.timer")
	start := time.Now()
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		h.Observe(42)
		tm.Since(start)
	}); n != 0 {
		b.Fatalf("telemetry recording allocates %v allocs/op, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkEncodeCSR(b *testing.B) {
	cl := benchClustered(256, 1024, 0.8, 4, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.Must(sparse.Encode(sparse.KindCSR, cl.Indices, cl.Rows, cl.Cols, cl.IndexBits))
	}
}

func BenchmarkEncodeBitMask(b *testing.B) {
	cl := benchClustered(256, 1024, 0.8, 4, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.Must(sparse.Encode(sparse.KindBitMaskIdxSync, cl.Indices, cl.Rows, cl.Cols, cl.IndexBits))
	}
}

func BenchmarkDecodeBitMask(b *testing.B) {
	cl := benchClustered(256, 1024, 0.8, 4, 4)
	enc := sparse.Must(sparse.Encode(sparse.KindBitMaskIdxSync, cl.Indices, cl.Rows, cl.Cols, cl.IndexBits))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Decode()
	}
}

func BenchmarkDecodeCSR(b *testing.B) {
	cl := benchClustered(256, 1024, 0.8, 4, 4)
	enc := sparse.Must(sparse.Encode(sparse.KindCSR, cl.Indices, cl.Rows, cl.Cols, cl.IndexBits))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Decode()
	}
}

func BenchmarkDecodeDense(b *testing.B) {
	cl := benchClustered(256, 1024, 0.8, 4, 4)
	enc := sparse.Must(sparse.Encode(sparse.KindDense, cl.Indices, cl.Rows, cl.Cols, cl.IndexBits))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Decode()
	}
}

// BenchmarkDecode24 measures the 2:4 read of a storage trial: the
// decode into a caller buffer (a dirty layer's rows are compacted for
// the 2:4 kernels later, on the replica).
func BenchmarkDecode24(b *testing.B) {
	cl := benchClustered(256, 1024, 0.8, 4, 4)
	enc := sparse.Must(sparse.Encode24(cl.Indices, cl.Rows, cl.Cols, cl.IndexBits, cl.Centroids))
	out := make([]uint8, cl.Rows*cl.Cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.DecodeInto(out)
	}
}

// BenchmarkProbeStreamDamage measures the exploration's damage probe,
// one sub-benchmark per format and stream of a 256x1024 layer: an op
// probes the stream under MLC3 with and without ECC, 4 trials each, on
// a Prober built once. Each trial forces its faults, corrects the
// touched ECC blocks, re-decodes what they can reach and restores: a
// stream whose faults cascade (CSR rowcount, a plain bitmask mask, the
// IdxSync counters) re-decodes to the end of the layer, the others only
// around the fault.
func BenchmarkProbeStreamDamage(b *testing.B) {
	cl := benchClustered(256, 1024, 0.8, 4, 4)
	policies := []ares.StreamPolicy{{BPC: 3}, {BPC: 3, ECC: true}}
	for _, kind := range append(slices.Clone(sparse.Kinds), sparse.Kind24) {
		enc := sparse.Must(ares.EncodeLayer(cl, ares.Config{Encoding: kind}))
		pb := ares.NewProber(enc, cl)
		for s, st := range enc.Streams() {
			b.Run(kind.String()+"/"+st.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, p := range policies {
						pb.Probe(s, p, 4, stats.NewSource(uint64(i)))
					}
				}
			})
		}
	}
}

func BenchmarkECCProtectCorrect(b *testing.B) {
	data := bitstream.New(1 << 16)
	src := stats.NewSource(5)
	for i := 0; i < 1<<16; i++ {
		if src.Bernoulli(0.5) {
			data.SetBit(i, 1)
		}
	}
	code := ecc.NewBlockCode(ares.ECCDataBits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := code.Protect(data)
		p.CorrectReport()
	}
}

func BenchmarkKMeansCluster(b *testing.B) {
	src := stats.NewSource(6)
	m := tensor.NewMatrix(256, 256)
	for i := range m.Data {
		m.Data[i] = float32(src.Gaussian(0, 0.1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quant.Cluster(m, 4, quant.ClusterOptions{Seed: 1})
	}
}

// BenchmarkPrepareLeNet5 runs core.Prepare at the explore workload's
// options: LeNet5 with every layer capped at 2^18 weights, cycling over
// four seeds.
func BenchmarkPrepareLeNet5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.Prepare(dnn.ByName("LeNet5"), core.PrepareOptions{Seed: uint64(1 + i%4), MaxLayerWeights: 1 << 18})
	}
}

// BenchmarkProfileLeNet5 runs core.NewExplorer, the damage profile of
// every layer under every format, at the explore workload's options:
// LeNet5 prepared with every layer capped at 2^18 weights, 3 probe
// trials, cycling over four seeds.
func BenchmarkProfileLeNet5(b *testing.B) {
	var pms []*core.PreparedModel
	for seed := uint64(1); seed <= 4; seed++ {
		pms = append(pms, core.Prepare(dnn.ByName("LeNet5"), core.PrepareOptions{Seed: seed, MaxLayerWeights: 1 << 18}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewExplorer(pms[i%4], core.ProfileOptions{Seed: uint64(2 + i%4), DamageTrials: 3})
	}
}

// BenchmarkPrune prunes a 2^21-weight layer to 90% sparsity, the largest
// layer whose threshold Prune computes exactly.
func BenchmarkPrune(b *testing.B) {
	src := stats.NewSource(8)
	orig := tensor.NewMatrix(1024, 2048)
	for i := range orig.Data {
		orig.Data[i] = float32(src.Gaussian(0, 0.1))
	}
	w := orig.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(w.Data, orig.Data)
		quant.Prune(w, 0.9, 1)
	}
}

func BenchmarkConvForward(b *testing.B) {
	cs := tensor.ConvShape{InC: 16, OutC: 32, KH: 3, KW: 3, Pad: 1, Stride: 1, InH: 28, InW: 28}
	in := tensor.NewTensor4(4, 16, 28, 28)
	w := tensor.NewMatrix(32, 16*9)
	src := stats.NewSource(7)
	for i := range in.Data {
		in.Data[i] = float32(src.Gaussian(0, 1))
	}
	for i := range w.Data {
		w.Data[i] = float32(src.Gaussian(0, 0.1))
	}
	out := tensor.NewTensor4(4, 32, 28, 28)
	var ws tensor.ConvWorkspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DInto(out, in, w, nil, cs, &ws)
	}
}

// BenchmarkFCForward times the fully-connected kernel alone at TinyCNN
// fc1's shape: 300 post-ReLU activation rows of 144 against 64 outputs,
// serial (Workers=1, the replica configuration). The pruned cases zero
// three in five weights, as BenchmarkForwardRows does, and run them as
// dense, 2:4 (the pattern keeps at most 2 of every 4 columns) and
// crossbar operands (64-row tiles, 8-bit column ADCs); dense keeps every
// weight, as training does.
func BenchmarkFCForward(b *testing.B) {
	a := tensor.NewMatrix(300, 144)
	w := tensor.NewMatrix(64, 144)
	src := stats.NewSource(7)
	for i := range a.Data {
		a.Data[i] = max(0, float32(src.Gaussian(0, 1)))
	}
	for i := range w.Data {
		w.Data[i] = float32(src.Gaussian(0, 0.1))
	}
	pruned := w.Clone()
	for i := range pruned.Data {
		if i%5 < 3 {
			pruned.Data[i] = 0
		}
	}
	s24 := tensor.NewSparse24(pruned.Rows, pruned.Cols)
	for r := range pruned.Rows {
		for c, v := range pruned.Row(r) {
			if v != 0 {
				e := (r*s24.GroupsPerRow + c/4) * 2
				if s24.Val[e] != 0 {
					e++
				}
				s24.Val[e], s24.Pos[e] = v, uint8(c%4)
			}
		}
	}
	ly, err := crossbar.Map(pruned, *benchXbarConfig(8).Crossbar, envm.CTT)
	if err != nil {
		b.Fatal(err)
	}
	out := tensor.NewMatrix(300, 64)
	for _, c := range []struct {
		name string
		w    tensor.Operand
	}{
		{"dense", w},
		{"pruned", pruned},
		{"pruned24", s24},
		{"prunedXbar", ly.PristineXbar()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				tensor.MulABtInto(out, a, c.w, 1)
			}
		})
	}
}

func BenchmarkNVSimCharacterize(b *testing.B) {
	cfg := nvsim.Config{Tech: envm.CTT, BPC: 2, CapacityBits: 12 * 8e6, Target: nvsim.OptReadEDP}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nvsim.Characterize(cfg)
	}
}

func BenchmarkMeasuredInference(b *testing.B) {
	ds := train.Synthesize(train.SynthConfig{N: 100, Seed: 1})
	m := dnn.TinyCNN()
	m.InitWeights(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dnn.NewForwarder(m).Forward(ds.Images)
	}
}

func BenchmarkRetentionStudy(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		env().Retention(io.Discard, "VGG12")
	}
}

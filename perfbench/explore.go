package main

// The explore workload: one op is the Table 4 path for LeNet5 at the
// maxnvm defaults — core.Prepare, core.NewExplorer, then BestOverall and
// the nvsim summary of the winner for every envm.Evaluated() technology.
// Ops cycle over GOMAXPROCS exploration seeds whose reference results
// the warm-up computes; every op must reproduce its seed's reference
// exactly and accept only candidates within the model's error bound.

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/envm"
	"repro/internal/exper"
	"repro/internal/nvsim"
)

// exploreStages are the per-op stage times of one exploration (ms).
type exploreStages struct {
	prepare, profile, search, summarize float64
}

// explore runs one exploration and returns its fingerprint — every
// technology's winning candidate and array summary, printed at full
// precision — plus the stage times. A winner that is not accepted, or
// whose delta exceeds the model's bound, is an error.
func explore(seed uint64) (string, exploreStages, error) {
	var st exploreStages
	t := time.Now()
	lap := func(into *float64) {
		now := time.Now()
		*into += float64(now.Sub(t)) / 1e6
		t = now
	}
	pm := core.Prepare(dnn.ByName("LeNet5"), core.PrepareOptions{Seed: seed, MaxLayerWeights: 1 << 18})
	lap(&st.prepare)
	ex := core.NewExplorer(pm, core.ProfileOptions{Seed: seed + 1, DamageTrials: 3})
	lap(&st.profile)
	var b strings.Builder
	bound := pm.Model.Meta.ErrorBound
	for _, tech := range envm.Evaluated() {
		best := ex.BestOverall(tech)
		lap(&st.search)
		sum := ex.SummarizeCandidate(best, nvsim.OptReadEDP)
		lap(&st.summarize)
		if !best.Accepted || best.DeltaErr > bound {
			return "", st, fmt.Errorf("%s: winner %s delta %g outside the error bound %g (accepted=%v)",
				tech.Name, best.Label(), best.DeltaErr, bound, best.Accepted)
		}
		fmt.Fprintf(&b, "%s|%s|%s|%d|%d|%d|%v|%v|%v|%v|%v;", tech.Name, best.Label(), best.PolicyString(),
			best.TotalCells, best.TotalBits(), best.MaxBPC, best.DeltaErr,
			sum.Array.AreaMM2, sum.Array.ReadLatencyNs, sum.Array.EnergyPerBitPJ(), sum.WriteTimeSec)
	}
	return b.String(), st, nil
}

// exploreSlice is the paced slice length: an exploration takes about a
// second, so a slice holds a few per client.
const exploreSlice = 3 * time.Second

type exploreWL struct {
	o     options
	seeds []uint64
	refs  []string
	// stages of the traced section's ops.
	mu     sync.Mutex
	stages []exploreStages
}

func newExplore(o options) *exploreWL {
	w := &exploreWL{o: o}
	for i := 0; i < o.procs; i++ {
		w.seeds = append(w.seeds, mix(o.seed, 5<<40+uint64(i)))
	}
	return w
}

// setup runs GOMAXPROCS concurrent explorations, one per seed. The first
// repetition records the reference results; later ones must reproduce
// them exactly (two explorations with the same seed are identical).
func (x *exploreWL) setup(rep int) error {
	got := make([]string, len(x.seeds))
	errs := make([]error, len(x.seeds))
	var wg sync.WaitGroup
	for i, seed := range x.seeds {
		wg.Add(1)
		go func(i int, seed uint64) {
			defer wg.Done()
			got[i], _, errs[i] = explore(seed)
		}(i, seed)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("seed %d: %w", x.seeds[i], err)
		}
	}
	if x.refs == nil {
		x.refs = got
		return nil
	}
	for i := range got {
		if got[i] != x.refs[i] {
			return fmt.Errorf("seed %d: repeated exploration differs from the first", x.seeds[i])
		}
	}
	return nil
}

func (x *exploreWL) measure(d time.Duration, traced bool) (window, error) {
	w := window{layer: map[string]float64{}}
	var before telSnap
	if traced {
		before = readTel()
		x.stages = nil
	}
	next := make([]int, x.o.procs) // each client's op count, to cycle seeds
	op := func(c int) (float64, bool) {
		i := (c + next[c]) % len(x.seeds)
		next[c]++
		t0 := time.Now()
		fp, st, err := explore(x.seeds[i])
		ms := float64(time.Since(t0)) / 1e6
		if err != nil || fp != x.refs[i] {
			fmt.Fprintf(os.Stderr, "explore: seed %d: result differs from its reference (%v)\n", x.seeds[i], err)
			return ms, false
		}
		if traced {
			x.mu.Lock()
			x.stages = append(x.stages, st)
			x.mu.Unlock()
		}
		return ms, true
	}
	var sl []slice
	for start := time.Now(); time.Since(start) < d; {
		rate, lat, attempted, failed := closedLoop(x.o.procs, exploreSlice, op)
		sl = append(sl, slice{rate, lat, refRate(refSlice, x.o.procs)})
		w.attempted += attempted
		w.failed += failed
	}
	w.rate, w.latMS = scaled("explore", sl)
	fmt.Fprintf(os.Stderr, "explore: %d ops, scaled latencies %v ms\n", len(w.latMS), roundAll(w.latMS, 0))
	if traced {
		stageMetrics(w.layer, telDelta{before, readTel()}, w.attempted, w.attempted, 0)
		stageLayer(w.layer, x.stages)
	}
	return w, nil
}

// stageLayer sets the core/nvsim metrics to the median stage times.
func stageLayer(layer map[string]float64, stages []exploreStages) {
	pick := func(f func(exploreStages) float64) float64 {
		v := make([]float64, len(stages))
		for i, s := range stages {
			v[i] = f(s)
		}
		return median(v)
	}
	layer["core.prepare_ms"] = pick(func(s exploreStages) float64 { return s.prepare })
	layer["core.profile_ms"] = pick(func(s exploreStages) float64 { return s.profile })
	layer["core.search_ms"] = pick(func(s exploreStages) float64 { return s.search })
	layer["nvsim.summarize_ms"] = pick(func(s exploreStages) float64 { return s.summarize })
}

// probeExplore times the stages of one exploration for workloads that
// do not explore.
func probeExplore(seed uint64, layer map[string]float64) error {
	_, st, err := explore(mix(seed, 5<<40))
	if err != nil {
		return err
	}
	stageLayer(layer, []exploreStages{st})
	return nil
}

// check has nothing left to replay: every op was compared with its
// seed's reference while measuring and counted as failed on a mismatch.
func (x *exploreWL) check() (int64, error) { return 0, nil }

// probe trains the TinyCNN evaluator the other workloads use, for the
// dnn and crossbar probes.
func (x *exploreWL) probe(layer map[string]float64) error {
	ev, err := exper.NewEnv(modelSeed).Measured()
	if err != nil {
		return err
	}
	xc := benchXbar(64, 32)
	if err := probeForward(ev, xc, layer); err != nil {
		return err
	}
	xc.DetectSigma = 4
	return probeCrossbar(ev, xc, layer)
}

func (x *exploreWL) close() {}

package main

// The campaign workloads. fig5 runs exper.Fig5Configs through
// exper.Env.Fig5Runner, the way `maxnvm fig5` does; xbar runs the
// crossbar configs the way `faultsim -crossbar` does. Both drive the
// campaign engine (campaign.New/Run) with Workers = GOMAXPROCS, a fixed
// trial budget per config, no early stop and no checkpoint, in passes of
// about a second, each followed by a reference sample (pace.go); an op
// is one trial and ops_per_s is the median scaled pass rate.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ares"
	"repro/internal/campaign"
	"repro/internal/crossbar"
	"repro/internal/envm"
	"repro/internal/exper"
	"repro/internal/mitigate"
	"repro/internal/sparse"
)

// sampleTrials is the size of the output-check sample: the first trials
// (by index) of every config in the first measured pass.
const sampleTrials = 2

// campaignWL is the implementation fig5 and xbar share.
type campaignWL struct {
	name string
	o    options
	// build trains (through exper.Env) and returns the evaluator, the
	// config list in fold order, their ares configs, and the campaign
	// trial function.
	build func() (*ares.MeasuredEvaluator, []string, map[string]ares.Config, campaign.RunFunc, error)
	// perConfig is the per-config trial budget of one pass.
	perConfig int
	// xc is the crossbar design point the dnn and crossbar probes use.
	xc crossbar.Config

	ev      *ares.MeasuredEvaluator
	configs []string
	cfgs    map[string]ares.Config
	run     campaign.RunFunc
	passes  uint64

	// recorded outputs of the check sample, keyed by trial seed.
	mu       sync.Mutex
	recorded map[uint64]recordedTrial
	dirty    []trialRef
}

type recordedTrial struct {
	config string
	sample campaign.Sample
}

// traceState is the per-trial instrumentation of a traced pass: trial
// latencies by route class and by config.
type traceState struct {
	busyNS atomic.Int64
	lat    *classLat
	cfgLat *classLat
	dirty  []trialRef
	mu     sync.Mutex
}

func (c *campaignWL) setup(rep int) error {
	ev, configs, cfgs, run, err := c.build()
	if err != nil {
		return err
	}
	c.ev, c.configs, c.cfgs, c.run = ev, configs, cfgs, run
	// Warm-up: GOMAXPROCS concurrent trials of every config, so every
	// replica, encoding cache entry, crossbar mapping and kernel buffer
	// exists before the clock starts.
	res, err := c.pass(context.Background(), mix(c.o.seed, 1<<40+uint64(rep)), c.o.procs, newClassLat(), nil, false)
	if err != nil {
		return err
	}
	if n := failures(res); n > 0 {
		return fmt.Errorf("%d warm-up trials failed", n)
	}
	return nil
}

// pass runs one campaign over every config with the given per-config
// budget, wrapping the trial function to time every trial into lat, to
// record the check sample and, when tr is non-nil, the per-trial trace.
func (c *campaignWL) pass(ctx context.Context, seed uint64, perConfig int, lat *classLat, tr *traceState, record bool) (*campaign.Result, error) {
	run := func(ctx context.Context, t campaign.Trial) (campaign.Sample, error) {
		start := time.Now()
		s, err := c.run(ctx, t)
		d := time.Since(start)
		if err == nil {
			lat.add("all", float64(d)/1e6)
		}
		if tr != nil {
			tr.busyNS.Add(int64(d))
			if err == nil {
				tr.lat.add(c.class(t.Config, s), float64(d)/1e6)
				tr.cfgLat.add(t.Config, float64(d)/1e6)
			}
			if record && t.Index < dirtySample/len(c.configs) {
				tr.mu.Lock()
				tr.dirty = append(tr.dirty, trialRef{c.cfgs[t.Config], t.Seed})
				tr.mu.Unlock()
			}
		}
		if record && err == nil && t.Index < sampleTrials {
			c.mu.Lock()
			if len(c.recorded) < sampleTrials*len(c.configs) {
				c.recorded[t.Seed] = recordedTrial{t.Config, s}
			}
			c.mu.Unlock()
		}
		return s, err
	}
	cp, err := campaign.New(c.configs, run, campaign.Options{
		Seed:      seed,
		MaxTrials: perConfig,
		Workers:   c.o.procs,
	})
	if err != nil {
		return nil, err
	}
	return cp.Run(ctx)
}

// class names a trial's latency class: fast path or the corrupted
// route it measured through.
func (c *campaignWL) class(config string, s campaign.Sample) string {
	cfg := c.cfgs[config]
	switch {
	case s.Extra["mismatch"] == 0:
		return "fast"
	case cfg.Crossbar != nil:
		return "xbar"
	case cfg.Encoding == sparse.Kind24:
		return "24"
	}
	return "dense"
}

func failures(res *campaign.Result) int64 {
	var n int64
	for _, cr := range res.Configs {
		n += int64(len(cr.Errors))
	}
	return n
}

func (c *campaignWL) measure(d time.Duration, traced bool) (window, error) {
	w := window{layer: map[string]float64{}}
	var tr *traceState
	var before telSnap
	if traced {
		tr = &traceState{lat: newClassLat(), cfgLat: newClassLat()}
		before = readTel()
	}
	// The first pass of each section records its first trials per config:
	// the output-check sample (first section only) and, when traced, the
	// first-dirty-layer sample.
	record := true
	if c.recorded == nil {
		c.recorded = map[uint64]recordedTrial{}
	}
	var sl []slice
	var wall time.Duration // summed pass time; the reference pauses are not the campaign's
	start := time.Now()
	for time.Since(start) < d {
		c.passes++
		lat := newClassLat()
		ps := time.Now()
		res, err := c.pass(context.Background(), mix(c.o.seed, c.passes), c.perConfig, lat, tr, record)
		if err != nil {
			return w, err
		}
		pw := time.Since(ps)
		wall += pw
		record = false
		sl = append(sl, slice{float64(res.Executed) / pw.Seconds(), lat.by["all"], refRate(refSlice, c.o.procs)})
		w.attempted += int64(res.Executed)
		w.failed += failures(res)
	}
	w.rate, w.latMS = scaled(c.name, sl)
	if traced {
		delta := telDelta{before, readTel()}
		busy := float64(tr.busyNS.Load()) / 1e6
		w.layer["campaign.busy_frac"] = busy / (float64(c.o.procs) * float64(wall) / 1e6)
		stageMetrics(w.layer, delta, w.attempted, w.attempted, busy)
		for class, key := range map[string]string{
			"fast": "ares.trial_ms.fast.p50", "dense": "ares.trial_ms.dense.p50",
			"24": "ares.trial_ms.24.p50", "xbar": "ares.trial_ms.xbar.p50",
		} {
			w.layer[key] = tr.lat.p50(class)
		}
		tr.lat.print(c.name + " by route")
		tr.cfgLat.print(c.name + " by config")
		c.dirty = tr.dirty
	}
	return w, nil
}

// check replays the recorded sample twice: through the hot path
// (ares.MeasuredEvaluator.EvalTrial) and through the serial reference
// (EvalTrialSerial). The two must agree bit for bit on the delta and
// every TrialStats field, and the campaign's recorded sample must carry
// exactly the reference delta and statistics.
func (c *campaignWL) check() (int64, error) {
	if len(c.recorded) == 0 {
		return 0, fmt.Errorf("no trials recorded for the output check")
	}
	ctx := context.Background()
	var bad int64
	for seed, rt := range c.recorded {
		cfg := c.cfgs[rt.config]
		hot, hst, err := c.ev.EvalTrial(ctx, cfg, seed)
		if err != nil {
			return 0, err
		}
		ref, rst, err := c.ev.EvalTrialSerial(ctx, cfg, seed)
		if err != nil {
			return 0, err
		}
		ok := hot == ref && hst == rst && rt.sample.Value == ref &&
			rt.sample.Extra["faults"] == float64(rst.Faults) && rt.sample.Extra["mismatch"] == rst.Mismatch
		if !ok {
			bad++
			fmt.Fprintf(os.Stderr, "%s: MISMATCH %s seed %d: campaign %v %v, hot %v %+v, serial %v %+v\n",
				c.name, rt.config, seed, rt.sample.Value, rt.sample.Extra, hot, hst, ref, rst)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: output check replayed %d trials, %d mismatches\n", c.name, len(c.recorded), bad)
	return bad, nil
}

func (c *campaignWL) probe(layer map[string]float64) error {
	if err := firstDirtyLayers(c.ev, c.dirty, layer); err != nil {
		return err
	}
	if err := probeForward(c.ev, c.xc, layer); err != nil {
		return err
	}
	online := c.xc
	online.SpareCols, online.DetectSigma = 4, 4
	if err := probeCrossbar(c.ev, online, layer); err != nil {
		return err
	}
	return probeExplore(c.o.seed, layer)
}

func (c *campaignWL) close() {}

// benchXbar is the crossbar design point of the xbar workload and of the
// dnn/crossbar probes: 8-bit column ADCs, programming variation 0.02 and
// stuck columns at 5e-3 (the BENCH_crossbar.json point).
func benchXbar(rows, cols int) crossbar.Config {
	return crossbar.Config{Rows: rows, Cols: cols, VarSigma: 0.02, StuckColRate: 5e-3, ADCBits: 8, SpareCols: 4}
}

// fig5Configs mirrors the Figure 5 experiment list of internal/exper
// (label -> isolated-stream config), which the output check needs to
// replay a trial by label. newFig5's build verifies the labels against
// exper.Fig5Configs so the two lists cannot drift apart silently.
func fig5Configs() map[string]ares.Config {
	out := map[string]ares.Config{}
	add := func(label string, kind sparse.Kind, stream string, p ares.StreamPolicy) {
		out[label] = ares.IsolateStream(ares.Config{Tech: envm.CTT, Encoding: kind}, stream, p)
	}
	for _, bpc := range []int{1, 2, 3} {
		p := ares.StreamPolicy{BPC: bpc}
		add(fmt.Sprintf("CSR values      MLC%d", bpc), sparse.KindCSR, "values", p)
		add(fmt.Sprintf("CSR colidx      MLC%d", bpc), sparse.KindCSR, "colidx", p)
		add(fmt.Sprintf("CSR rowcount    MLC%d", bpc), sparse.KindCSR, "rowcount", p)
		add(fmt.Sprintf("bitmask         MLC%d", bpc), sparse.KindBitMask, "bitmask", p)
		add(fmt.Sprintf("2:4 values      MLC%d", bpc), sparse.Kind24, "values", p)
		add(fmt.Sprintf("2:4 meta24      MLC%d", bpc), sparse.Kind24, "meta24", p)
	}
	ecc := ares.StreamPolicy{BPC: 3, ECC: true}
	add("CSR colidx      MLC3+ECC", sparse.KindCSR, "colidx", ecc)
	add("CSR rowcount    MLC3+ECC", sparse.KindCSR, "rowcount", ecc)
	add("bitmask         MLC3+ECC", sparse.KindBitMask, "bitmask", ecc)
	add("bitmask         MLC3+IdxSync", sparse.KindBitMaskIdxSync, "bitmask", ares.StreamPolicy{BPC: 3})
	add("2:4 meta24      MLC3+ECC", sparse.Kind24, "meta24", ecc)
	return out
}

func newFig5(o options) *campaignWL {
	c := &campaignWL{name: "fig5", o: o, perConfig: 24, xc: benchXbar(64, 32)}
	c.build = func() (*ares.MeasuredEvaluator, []string, map[string]ares.Config, campaign.RunFunc, error) {
		env := exper.NewEnv(modelSeed)
		run, err := env.Fig5Runner()
		if err != nil {
			return nil, nil, nil, nil, err
		}
		ev, err := env.Measured()
		if err != nil {
			return nil, nil, nil, nil, err
		}
		configs, cfgs := exper.Fig5Configs(), fig5Configs()
		if len(configs) != len(cfgs) {
			return nil, nil, nil, nil, fmt.Errorf("exper lists %d Figure 5 configs, the benchmark mirrors %d", len(configs), len(cfgs))
		}
		for _, label := range configs {
			if _, ok := cfgs[label]; !ok {
				return nil, nil, nil, nil, fmt.Errorf("Figure 5 config %q is not mirrored by the benchmark", label)
			}
		}
		return ev, configs, cfgs, run, nil
	}
	return c
}

// newXbar builds the crossbar workload: two tile geometries, each run
// unmitigated and with the online detect+remap policy that
// mitigate.PlanOnline sizes for a 5-year deployment at the model's
// error bound — the same configs `faultsim -crossbar` campaigns.
func newXbar(o options) *campaignWL {
	c := &campaignWL{name: "xbar", o: o, perConfig: 24, xc: benchXbar(64, 32)}
	c.build = func() (*ares.MeasuredEvaluator, []string, map[string]ares.Config, campaign.RunFunc, error) {
		ev, err := exper.NewEnv(modelSeed).Measured()
		if err != nil {
			return nil, nil, nil, nil, err
		}
		m := ev.Model
		dep := mitigate.Deployment{
			Tech: envm.CTT, LifetimeYears: 5, DeltaBound: m.Meta.ErrorBound,
			Sens: ares.Sensitivity(m.Name), Headroom: ares.Headroom(m.Classes, ev.BaselineErr),
		}
		var configs []string
		cfgs := map[string]ares.Config{}
		for _, geo := range [][2]int{{64, 32}, {128, 64}} {
			bare := benchXbar(geo[0], geo[1])
			bareCfg := ares.Config{Tech: envm.CTT, Crossbar: &bare}
			segments, tiles, err := ev.XbarGeometry(bareCfg)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			plan, err := mitigate.PlanOnline(dep, bare, segments, tiles)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			mit := plan.Apply(bare)
			for _, cfg := range []ares.Config{bareCfg, {Tech: envm.CTT, Crossbar: &mit}} {
				configs = append(configs, cfg.String())
				cfgs[cfg.String()] = cfg
			}
		}
		run := func(ctx context.Context, t campaign.Trial) (campaign.Sample, error) {
			delta, st, err := ev.EvalTrial(ctx, cfgs[t.Config], t.Seed)
			if err != nil {
				return campaign.Sample{}, err
			}
			return campaign.Sample{Value: delta, Extra: map[string]float64{
				"faults": float64(st.Faults), "mismatch": st.Mismatch,
			}}, nil
		}
		return ev, configs, cfgs, run, nil
	}
	return c
}

// Command faultsim runs standalone fault-injection campaigns: it trains
// the small measured model and drives (config x seed) trials through the
// resilient campaign engine (internal/campaign), reporting corruption
// statistics and classification-error deltas for a chosen storage
// configuration.
//
// Every mode runs ONE campaign over all of its configs, so one
// checkpoint holds them all: Ctrl-C flushes completed trials to it (if
// -checkpoint is set) and a later run with -resume replays them instead
// of re-executing, converging to the exact aggregates an uninterrupted
// run would have produced.
//
// Lifetime mode (-lifetime-years) simulates an N-year deployment as
// age -> inject -> correct -> rewrite epochs, one config per epoch, with
// -protect spending a criticality-aware protection budget and
// -scrub-interval overriding (or, at 0, asking the scheduler for) the
// refresh period. Compare mode (-compare-encodings) runs one config per
// encoding (CSR, bitmask, 2:4). Crossbar mode (-crossbar) maps the
// weights onto compute-in-memory arrays and runs a bare and a mitigated
// config per -tile size (see cmd/faultsim/crossbar.go).
//
// Usage:
//
//	faultsim -tech MLC-CTT -encoding csr -bpc 3 -ecc rowcount,colidx -trials 20
//	faultsim -trials 64 -ci-target 0.005 -checkpoint run.jsonl
//	faultsim -resume -checkpoint run.jsonl -trials 64 -ci-target 0.005
//	faultsim -tech MLC-RRAM -encoding csr -bpc 3 -lifetime-years 10 -protect 0.1
//	faultsim -compare-encodings -trials 32
//	faultsim -crossbar -tile 64x32,128x64 -adc-bits 6 -spare-cols 4 -trials 16
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/ares"
	"repro/internal/campaign"
	"repro/internal/cliutil"
	"repro/internal/crossbar"
	"repro/internal/envm"
	"repro/internal/exper"
	"repro/internal/mitigate"
	"repro/internal/sparse"
)

func main() {
	techName := flag.String("tech", "MLC-CTT", "technology (MLC-CTT, MLC-RRAM, Opt MLC-RRAM, SLC-RRAM)")
	encName := flag.String("encoding", "csr", "encoding: "+strings.Join(sparse.KindNames(), "|"))
	bpc := flag.Int("bpc", 3, "default bits per cell")
	eccList := flag.String("ecc", "", "comma-separated streams to ECC-protect")
	slcList := flag.String("slc", "", "comma-separated streams forced to SLC")
	trials := flag.Int("trials", 12, "maximum fault maps to sample")
	minTrials := flag.Int("min-trials", 4, "trials before early stopping may trigger")
	ciTarget := flag.Float64("ci-target", 0, "stop early once the 95% CI half-width of the error delta is below this (0 = full budget)")
	workers := flag.Int("workers", 0, "concurrent trial workers (0 = auto)")
	timeout := flag.Duration("timeout", 0, "per-trial deadline, e.g. 30s (0 = none)")
	checkpoint := flag.String("checkpoint", "", "JSONL checkpoint path (completed trials are appended)")
	resume := flag.Bool("resume", false, "replay completed trials from -checkpoint before running the rest")
	seed := flag.Uint64("seed", 1, "seed")
	progress := flag.Duration("progress", 5*time.Second, "progress-line interval on stderr (0 = silent)")
	lifetimeYears := flag.Float64("lifetime-years", 0, "simulate an N-year deployment as age->inject->correct->rewrite epochs (0 = write-time campaign)")
	scrubInterval := flag.Float64("scrub-interval", 0, "years between scrub rewrites in lifetime mode (0 = let the scheduler choose, negative = never scrub)")
	protect := flag.Float64("protect", 0, "criticality-aware protection budget: extra cells as a fraction of the baseline (0 = keep the -ecc/-slc flags as given)")
	degrade := flag.Bool("degrade", false, "zero uncorrectable ECC blocks instead of decoding their corrupt bits")
	compare := flag.Bool("compare-encodings", false, "run the same campaign under CSR, bitmask, and 2:4 and report density, blast radius, and ms/trial per encoding")
	xbar := cliutil.AddXbarFlags()
	tel := cliutil.AddFlags()
	tel.AddFsyncTo(flag.CommandLine)
	flag.Parse()
	tel.Start()
	defer tel.Dump()

	tech, err := envm.ByName(*techName)
	if err != nil {
		cliutil.Usagef("faultsim: %v", err)
	}
	kind, err := sparse.ParseKind(*encName)
	if err != nil {
		cliutil.Usagef("faultsim: %v", err)
	}

	cfg := ares.Config{
		Tech:      tech,
		Encoding:  kind,
		Default:   ares.StreamPolicy{BPC: *bpc},
		Overrides: map[string]ares.StreamPolicy{},
	}
	for _, s := range splitList(*eccList) {
		cfg.Overrides[s] = ares.StreamPolicy{BPC: *bpc, ECC: true}
	}
	for _, s := range splitList(*slcList) {
		cfg.Overrides[s] = ares.StreamPolicy{BPC: 1}
	}
	cfg.Degrade = *degrade
	// Validate rejects a stream the encoding does not store, so a typo
	// like "-ecc rowcnt" fails here, before training, naming the valid
	// streams instead of silently protecting nothing.
	if err := cfg.Validate(); err != nil {
		cliutil.Usagef("faultsim: %v", err)
	}
	cliutil.CheckResume("faultsim", *resume, *checkpoint)
	// Flag conflicts and crossbar tile parsing fail here, before the
	// training phase, like every other flag validation.
	if *compare && (*eccList != "" || *slcList != "" || *protect > 0 || *lifetimeYears > 0) {
		cliutil.Usagef("faultsim: -compare-encodings runs bare per-encoding configs; drop -ecc/-slc/-protect/-lifetime-years")
	}
	var xcfgs []crossbar.Config
	if *xbar.Enabled {
		if *eccList != "" || *slcList != "" || *protect > 0 || *lifetimeYears > 0 || *compare {
			cliutil.Usagef("faultsim: -crossbar models faults in the compute arrays, not stored bits; drop -ecc/-slc/-protect/-lifetime-years/-compare-encodings")
		}
		var xerr error
		if xcfgs, xerr = xbar.Configs(tech); xerr != nil {
			cliutil.Usagef("faultsim: %v", xerr)
		}
	}

	// SIGINT / SIGTERM cancel the campaign; completed trials are already
	// flushed to the checkpoint and the partial aggregates still print.
	ctx, stop := cliutil.NotifyContext(context.Background())
	defer stop()

	fmt.Printf("config: %v\n", cfg)
	fmt.Println("training measured model (TinyCNN on synthetic data)...")
	ev, err := exper.NewEnv(*seed).Measured()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline error (pruned+clustered): %.4f\n", ev.BaselineErr)

	// Criticality-aware protection: rank streams by expected model-level
	// damage on the freshly trained model, then spend the -protect budget
	// down the ranking. The ranking is also what the scrub scheduler
	// predicts over, so it is computed whenever either consumer needs it.
	var ranks []mitigate.StreamRank
	if *protect > 0 || (*lifetimeYears > 0 && *scrubInterval == 0) {
		ranks, err = mitigate.RankModel(ev.Clustered(), cfg, *seed+7)
		if err != nil {
			log.Fatal(err)
		}
	}
	var plan *mitigate.Plan
	if *protect > 0 {
		pl, err := mitigate.PlanProtection(ranks, tech, *protect)
		if err != nil {
			log.Fatal(err)
		}
		plan = &pl
		cfg = plan.Apply(cfg)
		fmt.Printf("protection plan: %v\n", plan)
		fmt.Printf("protected config: %v\n", cfg)
	}

	opt := campaign.Options{
		Seed:           *seed + 99,
		MaxTrials:      *trials,
		MinTrials:      *minTrials,
		CITarget:       *ciTarget,
		Workers:        *workers,
		TrialTimeout:   *timeout,
		CheckpointPath: *checkpoint,
		Resume:         *resume,
		Fsync:          tel.SyncPolicy(),
	}
	if *progress > 0 {
		opt.Progress = os.Stderr
		opt.ProgressEvery = *progress
	}

	var p campaignPlan
	switch {
	case *xbar.Enabled:
		p = crossbarPlan(ev, tech, xcfgs, xbar.Planned(), *trials)
	case *compare:
		p = comparePlan(ev, cfg)
	case *lifetimeYears > 0:
		p = lifetimePlan(ev, cfg, opt.Seed, *lifetimeYears, *scrubInterval, ranks, plan)
	default:
		p = writeTimePlan(ev, cfg, *ciTarget)
	}

	start := time.Now()
	c, err := campaign.New(p.configs, p.run, opt)
	if err != nil {
		log.Fatal(err)
	}
	res, runErr := c.Run(ctx)
	if runErr != nil && (res == nil || !res.Interrupted) {
		log.Fatal(runErr)
	}
	// A resumed campaign reports what it salvaged from its checkpoint.
	if rec := c.Recovery(); rec.Resumed {
		fmt.Printf("recovery: repaired tail: %d bytes, replayed %d trials", rec.RepairedBytes, rec.Replayed)
		if rec.TornLines > 0 {
			fmt.Printf(", skipped %d corrupt lines", rec.TornLines)
		}
		fmt.Println()
	}
	p.report(res, time.Since(start))
	if res.Interrupted {
		tel.ExitInterrupted(*checkpoint)
	}
}

// campaignPlan is one mode's campaign: the config labels it runs, the
// trial function over them, and the report it prints from the
// aggregates (partial ones when the campaign was interrupted).
type campaignPlan struct {
	configs []string
	run     campaign.RunFunc
	report  func(res *campaign.Result, elapsed time.Duration)
}

// runnerOf labels cfgs in order, dropping repeats (a mitigated crossbar
// config can equal the bare one), and returns the labels with the trial
// function over them.
func runnerOf(ev *ares.MeasuredEvaluator, cfgs ...ares.Config) ([]string, campaign.RunFunc) {
	byLabel := make(map[string]ares.Config, len(cfgs))
	var labels []string
	for _, cfg := range cfgs {
		label := cfg.String()
		if _, dup := byLabel[label]; !dup {
			byLabel[label] = cfg
			labels = append(labels, label)
		}
	}
	return labels, exper.Runner(ev, byLabel)
}

// writeTimePlan is the default mode: one config, corrupted at write
// time and read back once per trial.
func writeTimePlan(ev *ares.MeasuredEvaluator, cfg ares.Config, ciTarget float64) campaignPlan {
	configs, run := runnerOf(ev, cfg)
	return campaignPlan{configs: configs, run: run, report: func(res *campaign.Result, elapsed time.Duration) {
		cr := res.Config(configs[0])
		fmt.Printf("\ncampaign: %d trials executed, %d reused from checkpoint, %d skipped by early stop (%.1fs)\n",
			res.Executed, res.Reused, res.Skipped, elapsed.Seconds())
		fmt.Printf("over %d fault maps:\n", cr.N)
		fmt.Printf("  faults/map:        %.1f (ECC corrected %.1f, detected %.1f, blocks degraded %.1f)\n",
			cr.Extra["faults"], cr.Extra["corrected"], cr.Extra["detected"], cr.Extra["degraded"])
		fmt.Printf("  index mismatch:    %.5f of weights\n", cr.Extra["mismatch"])
		fmt.Printf("  weight NSR:        %.5g\n", cr.Extra["nsr"])
		fmt.Printf("  error delta:       mean +%.4f ±%.4f (95%% CI), worst +%.4f\n", cr.Mean, cr.CIHalf, cr.Max)
		if cr.EarlyStopped {
			fmt.Printf("  early stop:        CI target %.4g reached after %d trials\n", ciTarget, cr.N)
		}
		for _, te := range cr.Errors {
			fmt.Printf("  failed trial:      %v\n", te)
		}
		bound := ev.Model.Meta.ErrorBound
		fmt.Printf("  ITN bound:         %.4f -> %s\n", bound, verdict(cr.Mean <= bound))
	}}
}

// comparePlan runs the bare write-time config cfg under each compressed
// encoding and reports them side by side: storage density (encoded bits
// as a fraction of the dense clustered baseline), fault blast radius
// (weights corrupted per uncorrected fault event — the
// misalignment-cascade signature) and the mean wall time of an executed
// trial. The 2:4 config runs compute-direct: corrupted streams feed the
// sparse kernels with no dense materialization.
func comparePlan(ev *ares.MeasuredEvaluator, cfg ares.Config) campaignPlan {
	kinds := []sparse.Kind{sparse.KindCSR, sparse.KindBitMask, sparse.Kind24}
	totalWeights := 0
	var denseBits int64
	for _, cl := range ev.Clustered() {
		totalWeights += len(cl.Indices)
		denseBits += int64(len(cl.Indices) * cl.IndexBits)
	}
	cfgs := make([]ares.Config, len(kinds))
	encBits := make([]int64, len(kinds))
	for i, kind := range kinds {
		cfgs[i] = cfg
		cfgs[i].Encoding = kind
		for _, cl := range ev.Clustered() {
			enc, err := ares.EncodeLayer(cl, cfgs[i])
			if err != nil {
				log.Fatal(err)
			}
			encBits[i] += enc.SizeBits()
		}
	}
	configs, run := runnerOf(ev, cfgs...)
	clock := &trialClock{spent: map[string]time.Duration{}, n: map[string]int{}}
	return campaignPlan{configs: configs, run: clock.time(run), report: func(res *campaign.Result, _ time.Duration) {
		fmt.Printf("\n%-10s %8s %10s %14s %9s %12s %10s\n",
			"encoding", "density", "bits/wt", "blast wts/flt", "ms/trial", "mean +delta", "worst")
		for i, kind := range kinds {
			cr := res.Config(configs[i])
			if cr.N == 0 {
				fmt.Printf("%-10v (no completed trials)\n", kind)
				continue
			}
			blast := 0.0
			if cr.Extra["faults"] > 0 {
				blast = cr.Extra["mismatch"] * float64(totalWeights) / cr.Extra["faults"]
			}
			fmt.Printf("%-10v %7.1f%% %10.2f %14.2f %9s %12.4f %10.4f\n",
				kind, 100*float64(encBits[i])/float64(denseBits),
				float64(encBits[i])/float64(totalWeights), blast, clock.msPerTrial(configs[i]), cr.Mean, cr.Max)
		}
		fmt.Printf("dense clustered baseline: %d weights, %.2f bits/wt\n",
			totalWeights, float64(denseBits)/float64(totalWeights))
	}}
}

// trialClock sums the wall time of each config's executed trials. It
// stays out of the samples, so checkpoint records stay deterministic.
type trialClock struct {
	mu    sync.Mutex
	spent map[string]time.Duration
	n     map[string]int
}

// time wraps run to clock every trial it executes.
func (tc *trialClock) time(run campaign.RunFunc) campaign.RunFunc {
	return func(ctx context.Context, t campaign.Trial) (campaign.Sample, error) {
		start := time.Now()
		s, err := run(ctx, t)
		tc.mu.Lock()
		tc.spent[t.Config] += time.Since(start)
		tc.n[t.Config]++
		tc.mu.Unlock()
		return s, err
	}
}

// msPerTrial formats the mean wall time of config's executed trials in
// milliseconds, or "-" when the run executed none (all replayed).
func (tc *trialClock) msPerTrial(config string) string {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.n[config] == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", tc.spent[config].Seconds()*1e3/float64(tc.n[config]))
}

// deployment is the deployment the mitigation planners size a policy
// for: the model's own ITN bound over years on tech.
func deployment(ev *ares.MeasuredEvaluator, tech envm.Tech, years float64) mitigate.Deployment {
	m := ev.Model
	return mitigate.Deployment{
		Tech:          tech,
		LifetimeYears: years,
		DeltaBound:    m.Meta.ErrorBound,
		Sens:          ares.Sensitivity(m.Name),
		Headroom:      ares.Headroom(m.Classes, ev.BaselineErr),
	}
}

// lifetimePlan simulates years of deployment: every campaign trial is
// one full deployment (age -> inject -> correct -> rewrite per epoch),
// and every epoch is its own campaign config with its own checkpoint
// rows and aggregates. Trial t of every epoch simulates the deployment
// at campaign.TrialSeed(baseSeed, label, t). A zero interval asks the
// scrub scheduler, predicting over ranks and the -protect plan (nil
// when -protect did not run).
func lifetimePlan(ev *ares.MeasuredEvaluator, cfg ares.Config, baseSeed uint64,
	years, interval float64, ranks []mitigate.StreamRank, plan *mitigate.Plan) campaignPlan {
	bound := ev.Model.Meta.ErrorBound
	lp := ares.LifetimePolicy{Years: years, FloorDelta: bound}
	switch {
	case interval > 0:
		lp.ScrubIntervalYears = interval
	case interval == 0:
		// Ask the scheduler for the longest interval holding the ITN
		// bound. When -protect did not run, predict over a bare plan
		// mirroring the configuration as flagged.
		if plan == nil {
			plan = &mitigate.Plan{
				Policies:  make(map[string]ares.StreamPolicy, len(ranks)),
				BlockBits: cfg.BlockBits(),
			}
			for _, r := range ranks {
				plan.Policies[r.Name] = cfg.PolicyFor(r.Name)
			}
		}
		dep := deployment(ev, cfg.Tech, years)
		sp, err := mitigate.PlanScrub(dep, ranks, *plan)
		if err != nil {
			log.Fatal(err)
		}
		if sp.ScrubNeeded {
			fmt.Printf("scrub schedule: every %.2f years (%d epochs, %d rewrites, %.2g of endurance), predicted delta %.4f\n",
				sp.IntervalYears, sp.Epochs, sp.Rewrites, sp.EnduranceFrac, sp.PredictedDelta)
		} else {
			fmt.Printf("scrub schedule: none needed (predicted %.1f-year delta %.4f within the %.4f bound)\n",
				years, sp.NoScrubDelta, bound)
		}
		if !sp.Feasible {
			fmt.Printf("warning: no feasible schedule — %s\n", sp.Reason)
		}
		lp = sp.Policy(dep)
	default:
		// Negative interval: write once, never refresh.
	}
	if err := lp.Validate(); err != nil {
		log.Fatal(err)
	}
	if lp.Scrubbed() {
		fmt.Printf("lifetime: %.1f years, scrubbing every %.2f years (%d epochs)\n",
			years, lp.ScrubIntervalYears, lp.EpochCount())
	} else {
		fmt.Printf("lifetime: %.1f years unscrubbed, %d evaluation epochs\n", years, lp.EpochCount())
	}

	epochs := lp.EpochCount()
	label := cfg.String()
	configs, err := campaign.LifetimeConfigs(label, epochs)
	if err != nil {
		log.Fatal(err)
	}
	sim := func(ctx context.Context, trial int, seed uint64) ([]campaign.Sample, error) {
		ls, err := ev.LifetimeTrial(ctx, cfg, lp, seed)
		if err != nil {
			return nil, err
		}
		out := make([]campaign.Sample, len(ls.Epochs))
		for e, es := range ls.Epochs {
			out[e] = exper.TrialSample(es.DeltaErr, es.Stats)
			out[e].Extra["age"] = es.AgeYears
		}
		return out, nil
	}
	run := campaign.LifetimeRun(label, epochs, baseSeed, sim)
	return campaignPlan{configs: configs, run: run, report: func(res *campaign.Result, elapsed time.Duration) {
		fmt.Printf("\nlifetime campaign: %d epoch-trials executed, %d reused from checkpoint, %d skipped (%.1fs)\n",
			res.Executed, res.Reused, res.Skipped, elapsed.Seconds())
		fmt.Printf("  %-5s  %-7s  %-24s  %-8s  %-14s  %-8s  %s\n",
			"epoch", "age", "error delta (95% CI)", "faults", "ecc corr/det", "degraded", "vs bound")
		worst := 0.0
		for e, id := range configs {
			cr := res.Config(id)
			if cr.N == 0 {
				fmt.Printf("  %-5d  (no completed trials)\n", e)
				continue
			}
			worst = max(worst, cr.Mean)
			fmt.Printf("  %-5d  %5.2fy  +%.4f ±%.4f%10s  %-8.1f  %6.1f/%-7.1f  %-8.1f  %s\n",
				e, cr.Extra["age"], cr.Mean, cr.CIHalf, "",
				cr.Extra["faults"], cr.Extra["corrected"], cr.Extra["detected"], cr.Extra["degraded"],
				verdict(cr.Mean <= bound))
			for _, te := range cr.Errors {
				fmt.Printf("         failed trial: %v\n", te)
			}
		}
		fmt.Printf("  ITN bound %.4f over the whole deployment -> %s (worst epoch mean +%.4f)\n",
			bound, verdict(worst <= bound), worst)
	}}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func verdict(ok bool) string {
	if ok {
		return "ACCEPTED"
	}
	return "REJECTED"
}

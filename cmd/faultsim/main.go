// Command faultsim runs standalone fault-injection campaigns: it trains
// the small measured model and drives (config x seed) trials through the
// resilient campaign engine (internal/campaign), reporting corruption
// statistics and classification-error deltas for a chosen storage
// configuration.
//
// Campaigns are interruptible and resumable: Ctrl-C flushes completed
// trials to the checkpoint (if -checkpoint is set) and a later run with
// -resume replays them instead of re-executing, converging to the exact
// aggregates an uninterrupted run would have produced.
//
// Lifetime mode (-lifetime-years) simulates an N-year deployment as
// age -> inject -> correct -> rewrite epochs instead of a single
// write-time campaign, with -protect spending a criticality-aware
// protection budget and -scrub-interval overriding (or, at 0, asking
// the scheduler for) the refresh period. Every epoch is its own
// campaign config with its own checkpoint rows.
//
// Crossbar mode (-crossbar) maps the weights onto compute-in-memory
// arrays instead of a stored-bit encoding and prints a before/after
// table per -tile size: the bare array (programming variation +
// stuck-at faults) vs the same array with online soft-error detection
// and remap scrubbing (see cmd/faultsim/crossbar.go).
//
// Usage:
//
//	faultsim -tech MLC-CTT -encoding csr -bpc 3 -ecc rowcount,colidx -trials 20
//	faultsim -trials 64 -ci-target 0.005 -checkpoint run.jsonl
//	faultsim -resume -checkpoint run.jsonl -trials 64 -ci-target 0.005
//	faultsim -tech MLC-RRAM -encoding csr -bpc 3 -lifetime-years 10 -protect 0.1
//	faultsim -crossbar -tile 64x32,128x64 -adc-bits 6 -spare-cols 4 -trials 16
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/ares"
	"repro/internal/campaign"
	"repro/internal/cliutil"
	"repro/internal/crossbar"
	"repro/internal/dnn"
	"repro/internal/envm"
	"repro/internal/mitigate"
	"repro/internal/sparse"
	"repro/internal/train"
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
	compare := flag.Bool("compare-encodings", false, "run the same campaign under CSR, bitmask, and 2:4 and report density, blast radius, and trials/s per encoding")
	xbar := cliutil.AddXbarFlags()
	tel := cliutil.AddFlags()
	tel.AddCheckpointFlagsTo(flag.CommandLine)
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
	trainDS := train.Synthesize(train.SynthConfig{N: 600, Seed: *seed + 10, ProtoSeed: 77})
	testDS := train.Synthesize(train.SynthConfig{N: 300, Seed: *seed + 11, ProtoSeed: 77})
	m := dnn.TinyCNN()
	m.InitWeights(*seed + 42)
	if _, err := train.Train(m, trainDS, train.Config{Epochs: 6, Seed: *seed}); err != nil {
		log.Fatal(err)
	}
	ev, err := ares.NewMeasuredEvaluator(m, testDS, *seed+5)
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
	var plan mitigate.Plan
	planned := false
	if *protect > 0 {
		if plan, err = mitigate.PlanProtection(ranks, tech, *protect); err != nil {
			log.Fatal(err)
		}
		cfg = plan.Apply(cfg)
		planned = true
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
		LockCheckpoint: tel.LockCheckpoint(),
	}
	if *progress > 0 {
		opt.Progress = os.Stderr
		opt.ProgressEvery = *progress
	}

	if *xbar.Enabled {
		runCrossbar(ctx, ev, m, tech, xcfgs, xbar.Planned(), opt)
		return
	}

	if *compare {
		runCompare(ctx, ev, tech, *bpc, *degrade, opt)
		return
	}

	if *lifetimeYears > 0 {
		interrupted := runLifetime(ctx, ev, m, cfg, opt, lifetimeArgs{
			years:    *lifetimeYears,
			interval: *scrubInterval,
			ranks:    ranks,
			plan:     plan,
			planned:  planned,
		})
		if interrupted {
			tel.ExitInterrupted(*checkpoint)
		}
		return
	}

	label := cfg.String()
	run := func(ctx context.Context, t campaign.Trial) (campaign.Sample, error) {
		delta, st, err := ev.EvalTrial(ctx, cfg, t.Seed)
		if err != nil {
			return campaign.Sample{}, err
		}
		return campaign.Sample{
			Value: delta,
			Extra: map[string]float64{
				"faults":    float64(st.Faults),
				"corrected": float64(st.Corrected),
				"detected":  float64(st.Detected),
				"degraded":  float64(st.DegradedBlocks),
				"mismatch":  st.Mismatch,
				"nsr":       st.ValueNSR,
			},
		}, nil
	}
	start := time.Now()
	c, err := campaign.New([]string{label}, run, opt)
	if err != nil {
		log.Fatal(err)
	}
	res, runErr := c.Run(ctx)
	if runErr != nil && (res == nil || !res.Interrupted) {
		log.Fatal(runErr)
	}
	printRecovery(c)

	cr := res.Config(label)
	fmt.Printf("\ncampaign: %d trials executed, %d reused from checkpoint, %d skipped by early stop (%.1fs)\n",
		res.Executed, res.Reused, res.Skipped, time.Since(start).Seconds())
	fmt.Printf("over %d fault maps:\n", cr.N)
	fmt.Printf("  faults/map:        %.1f (ECC corrected %.1f, detected %.1f, blocks degraded %.1f)\n",
		cr.Extra["faults"], cr.Extra["corrected"], cr.Extra["detected"], cr.Extra["degraded"])
	fmt.Printf("  index mismatch:    %.5f of weights\n", cr.Extra["mismatch"])
	fmt.Printf("  weight NSR:        %.5g\n", cr.Extra["nsr"])
	fmt.Printf("  error delta:       mean +%.4f ±%.4f (95%% CI), worst +%.4f\n", cr.Mean, cr.CIHalf, cr.Max)
	if cr.EarlyStopped {
		fmt.Printf("  early stop:        CI target %.4g reached after %d trials\n", *ciTarget, cr.N)
	}
	for _, te := range cr.Errors {
		fmt.Printf("  failed trial:      %v\n", te)
	}
	fmt.Printf("  ITN bound:         %.4f -> %s\n", m.Meta.ErrorBound,
		verdict(cr.Mean <= m.Meta.ErrorBound))
	if res.Interrupted {
		tel.ExitInterrupted(*checkpoint)
	}
}

// runCompare runs the same write-time campaign under each compressed
// encoding and prints a side-by-side table: storage density (encoded
// bits as a fraction of the dense clustered baseline), fault blast
// radius (weights corrupted per uncorrected fault event — the
// misalignment-cascade signature), and campaign throughput. The 2:4 row
// runs compute-direct: corrupted streams feed the sparse kernels with
// no dense materialization.
func runCompare(ctx context.Context, ev *ares.MeasuredEvaluator, tech envm.Tech, bpc int, degrade bool, opt campaign.Options) {
	kinds := []sparse.Kind{sparse.KindCSR, sparse.KindBitMask, sparse.Kind24}
	totalWeights := 0
	var denseBits int64
	for _, cl := range ev.Clustered() {
		totalWeights += len(cl.Indices)
		denseBits += int64(len(cl.Indices) * cl.IndexBits)
	}
	fmt.Printf("\n%-10s %8s %10s %14s %9s %12s %10s\n",
		"encoding", "density", "bits/wt", "blast wts/flt", "trials/s", "mean +delta", "worst")
	for _, kind := range kinds {
		cfg := ares.Config{
			Tech:      tech,
			Encoding:  kind,
			Default:   ares.StreamPolicy{BPC: bpc},
			Overrides: map[string]ares.StreamPolicy{},
			Degrade:   degrade,
		}
		if err := cfg.Validate(); err != nil {
			log.Fatal(err)
		}
		var encBits int64
		for _, cl := range ev.Clustered() {
			enc, err := ares.EncodeLayer(cl, cfg)
			if err != nil {
				log.Fatal(err)
			}
			encBits += enc.SizeBits()
		}
		run := func(ctx context.Context, t campaign.Trial) (campaign.Sample, error) {
			delta, st, err := ev.EvalTrial(ctx, cfg, t.Seed)
			if err != nil {
				return campaign.Sample{}, err
			}
			return campaign.Sample{
				Value: delta,
				Extra: map[string]float64{
					"faults":   float64(st.Faults),
					"mismatch": st.Mismatch,
				},
			}, nil
		}
		label := cfg.String()
		c, err := campaign.New([]string{label}, run, opt)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, runErr := c.Run(ctx)
		if runErr != nil {
			log.Fatal(runErr)
		}
		elapsed := time.Since(start).Seconds()
		cr := res.Config(label)
		blast := 0.0
		if cr.Extra["faults"] > 0 {
			blast = cr.Extra["mismatch"] * float64(totalWeights) / cr.Extra["faults"]
		}
		tps := 0.0
		if elapsed > 0 {
			tps = float64(res.Executed) / elapsed
		}
		fmt.Printf("%-10v %7.1f%% %10.2f %14.2f %9.1f %12.4f %10.4f\n",
			kind, 100*float64(encBits)/float64(denseBits),
			float64(encBits)/float64(totalWeights), blast, tps, cr.Mean, cr.Max)
	}
	fmt.Printf("dense clustered baseline: %d weights, %.2f bits/wt\n",
		totalWeights, float64(denseBits)/float64(totalWeights))
}

// lifetimeArgs bundles the lifetime-mode inputs main hands to
// runLifetime.
type lifetimeArgs struct {
	years, interval float64
	ranks           []mitigate.StreamRank
	plan            mitigate.Plan
	planned         bool
}

// runLifetime simulates la.years of deployment: every campaign trial is
// one full deployment (age -> inject -> correct -> rewrite per epoch),
// and every epoch is its own campaign config with its own checkpoint
// rows and aggregates. It reports whether the campaign was interrupted,
// in which case the table it printed is partial.
func runLifetime(ctx context.Context, ev *ares.MeasuredEvaluator, m *dnn.Model,
	cfg ares.Config, opt campaign.Options, la lifetimeArgs) (interrupted bool) {
	bound := m.Meta.ErrorBound
	lp := ares.LifetimePolicy{Years: la.years, FloorDelta: bound}
	switch {
	case la.interval > 0:
		lp.ScrubIntervalYears = la.interval
	case la.interval == 0:
		// Ask the scheduler for the longest interval holding the ITN
		// bound. When -protect did not run, predict over a bare plan
		// mirroring the configuration as flagged.
		pl := la.plan
		if !la.planned {
			pl = mitigate.Plan{
				Policies:  make(map[string]ares.StreamPolicy, len(la.ranks)),
				BlockBits: cfg.BlockBits(),
			}
			for _, r := range la.ranks {
				pl.Policies[r.Name] = cfg.PolicyFor(r.Name)
			}
		}
		dep := mitigate.Deployment{
			Tech:          cfg.Tech,
			LifetimeYears: la.years,
			DeltaBound:    bound,
			Sens:          ares.Sensitivity(m.Name),
			Headroom:      ares.Headroom(m.Classes, ev.BaselineErr),
		}
		sp, err := mitigate.PlanScrub(dep, la.ranks, pl)
		if err != nil {
			log.Fatal(err)
		}
		if sp.ScrubNeeded {
			fmt.Printf("scrub schedule: every %.2f years (%d epochs, %d rewrites, %.2g of endurance), predicted delta %.4f\n",
				sp.IntervalYears, sp.Epochs, sp.Rewrites, sp.EnduranceFrac, sp.PredictedDelta)
		} else {
			fmt.Printf("scrub schedule: none needed (predicted %.1f-year delta %.4f within the %.4f bound)\n",
				la.years, sp.NoScrubDelta, bound)
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
			la.years, lp.ScrubIntervalYears, lp.EpochCount())
	} else {
		fmt.Printf("lifetime: %.1f years unscrubbed, %d evaluation epochs\n", la.years, lp.EpochCount())
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
			out[e] = campaign.Sample{
				Value: es.DeltaErr,
				Extra: map[string]float64{
					"age":       es.AgeYears,
					"faults":    float64(es.Stats.Faults),
					"corrected": float64(es.Stats.Corrected),
					"detected":  float64(es.Stats.Detected),
					"degraded":  float64(es.Stats.DegradedBlocks),
					"mismatch":  es.Stats.Mismatch,
				},
			}
		}
		return out, nil
	}
	c, err := campaign.New(configs, campaign.LifetimeRun(label, epochs, opt.Seed, sim), opt)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	res, runErr := c.Run(ctx)
	if runErr != nil && (res == nil || !res.Interrupted) {
		log.Fatal(runErr)
	}
	printRecovery(c)

	fmt.Printf("\nlifetime campaign: %d epoch-trials executed, %d reused from checkpoint, %d skipped (%.1fs)\n",
		res.Executed, res.Reused, res.Skipped, time.Since(start).Seconds())
	fmt.Printf("  %-5s  %-7s  %-24s  %-8s  %-14s  %-8s  %s\n",
		"epoch", "age", "error delta (95% CI)", "faults", "ecc corr/det", "degraded", "vs bound")
	worst := 0.0
	for e, id := range configs {
		cr := res.Config(id)
		if cr.N == 0 {
			fmt.Printf("  %-5d  (no completed trials)\n", e)
			continue
		}
		if cr.Mean > worst {
			worst = cr.Mean
		}
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
	return res.Interrupted
}

// printRecovery summarizes what a resumed campaign salvaged from its
// checkpoint: the torn tail it repaired and the trials it replayed
// instead of re-executing.
func printRecovery(c *campaign.Campaign) {
	rec := c.Recovery()
	if !rec.Resumed {
		return
	}
	line := fmt.Sprintf("recovery: repaired tail: %d bytes, replayed %d trials", rec.RepairedBytes, rec.Replayed)
	if rec.TornLines > 0 {
		line += fmt.Sprintf(", skipped %d corrupt lines", rec.TornLines)
	}
	fmt.Println(line)
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

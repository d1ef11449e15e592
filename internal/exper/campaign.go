package exper

import (
	"context"
	"fmt"
	"io"

	"repro/internal/ares"
	"repro/internal/campaign"
)

// Fig5Configs returns the Figure 5 configuration labels in their fold
// (input) order — the order campaign results aggregate in, and the
// order a fleet manifest must record so a distributed merge folds
// identically to a single-process run.
func Fig5Configs() []string {
	exps := fig5Experiments()
	configs := make([]string, len(exps))
	for i, x := range exps {
		configs[i] = x.Label
	}
	return configs
}

// TrialSample is the sample every fault-injection campaign records for
// one trial: the classification-error delta as the primary value, and
// the trial's corruption statistics as extras.
func TrialSample(delta float64, st ares.TrialStats) campaign.Sample {
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
	}
}

// Runner returns the trial function of a campaign over cfgs: trial t
// evaluates cfgs[t.Config] on ev at t.Seed and records TrialSample. It
// is a pure function of (config label, trial seed), so it suits the
// campaign engine and a fleet worker alike.
func Runner(ev *ares.MeasuredEvaluator, cfgs map[string]ares.Config) campaign.RunFunc {
	return func(ctx context.Context, t campaign.Trial) (campaign.Sample, error) {
		cfg, ok := cfgs[t.Config]
		if !ok {
			return campaign.Sample{}, fmt.Errorf("exper: unknown config %q", t.Config)
		}
		delta, st, err := ev.EvalTrial(ctx, cfg, t.Seed)
		if err != nil {
			return campaign.Sample{}, err
		}
		return TrialSample(delta, st), nil
	}
}

// Fig5Runner trains the measured model and returns the Figure 5 trial
// function (Runner over the Figure 5 configs). Two Envs with the same
// Seed produce bit-identical runners, which is what lets independent
// worker processes execute disjoint shards of one campaign.
func (e *Env) Fig5Runner() (campaign.RunFunc, error) {
	ev, err := e.Measured()
	if err != nil {
		return nil, err
	}
	exps := fig5Experiments()
	cfgs := make(map[string]ares.Config, len(exps))
	for _, x := range exps {
		cfgs[x.Label] = x.Config()
	}
	return Runner(ev, cfgs), nil
}

// Fig5 regenerates Figure 5 with real measured inference on the trained
// small model: the classification-error delta when each structure is
// stored alone at SLC/MLC2/MLC3, with and without protection. It runs
// the (config x seed) trials through the campaign engine, so it gets
// cancellation, per-trial panic isolation and adaptive early stopping:
// each config runs at most maxTrials trials (0 = 12) and stops early
// once its 95% CI half-width is at most ciTarget (0 = never) after
// minTrials (0 = the engine's default). Trial seeds are
// campaign.TrialSeed(e.Seed+99, label, trial), the seeds a fleet worker
// draws too.
func (e *Env) Fig5(ctx context.Context, w io.Writer, maxTrials, minTrials int, ciTarget float64) error {
	run, err := e.Fig5Runner()
	if err != nil {
		return err
	}
	if maxTrials == 0 {
		maxTrials = 12
	}
	c, err := campaign.New(Fig5Configs(), run, campaign.Options{
		Seed: e.Seed + 99, MaxTrials: maxTrials, MinTrials: minTrials, CITarget: ciTarget,
	})
	if err != nil {
		return err
	}
	res, runErr := c.Run(ctx)

	ev, err := e.Measured() // cached: Fig5Runner already trained it
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 5 (campaign): measured classification error delta per structure (TinyCNN stand-in, baseline err %.3f)\n",
		ev.BaselineErr)
	for _, cr := range res.Configs {
		note := ""
		if cr.EarlyStopped {
			note = "  [early stop]"
		}
		if len(cr.Errors) > 0 {
			note += fmt.Sprintf("  [%d failed trials]", len(cr.Errors))
		}
		fmt.Fprintf(w, "  %-30s mean +%.4f ±%.4f  worst +%.4f  n=%d%s\n",
			cr.Config, cr.Mean, cr.CIHalf, cr.Max, cr.N, note)
	}
	fmt.Fprintf(w, "trials: %d executed, %d reused from checkpoint, %d skipped by early stop\n",
		res.Executed, res.Reused, res.Skipped)
	if res.Interrupted {
		fmt.Fprintln(w, "campaign interrupted; the aggregates above are partial")
	}
	return runErr
}

package exper

import (
	"context"
	"fmt"
	"io"

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

// Fig5Runner trains the measured model and returns the Figure 5 trial
// function: a pure function of (config label, trial seed) suitable for
// the campaign engine or a fleet worker. Two Envs with the same Seed
// produce bit-identical runners, which is what lets independent worker
// processes execute disjoint shards of one campaign.
func (e *Env) Fig5Runner() (campaign.RunFunc, error) {
	ev, err := e.Measured()
	if err != nil {
		return nil, err
	}
	exps := fig5Experiments()
	byLabel := make(map[string]fig5Experiment, len(exps))
	for _, x := range exps {
		byLabel[x.Label] = x
	}
	return func(ctx context.Context, t campaign.Trial) (campaign.Sample, error) {
		x, ok := byLabel[t.Config]
		if !ok {
			return campaign.Sample{}, fmt.Errorf("exper: unknown config %q", t.Config)
		}
		delta, st, err := ev.EvalTrial(ctx, x.Config(), t.Seed)
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
	}, nil
}

// Fig5 regenerates Figure 5 with real measured inference on the trained
// small model: the classification-error delta when each structure is
// stored alone at SLC/MLC2/MLC3, with and without protection. It runs
// the (config x seed) trials through the campaign engine, so it gets
// cancellation, per-trial panic isolation and adaptive early stopping
// from opt. Fig5 sets opt.Seed to e.Seed+99 (trial seeds are
// campaign.TrialSeed(e.Seed+99, label, trial), the seeds a fleet worker
// draws too) and defaults opt.MaxTrials to 12.
func (e *Env) Fig5(ctx context.Context, w io.Writer, opt campaign.Options) error {
	run, err := e.Fig5Runner()
	if err != nil {
		return err
	}
	opt.Seed = e.Seed + 99
	if opt.MaxTrials == 0 {
		opt.MaxTrials = 12
	}
	c, err := campaign.New(Fig5Configs(), run, opt)
	if err != nil {
		return err
	}
	res, runErr := c.Run(ctx)
	if res == nil {
		return runErr // hard storage failure (e.g. checkpoint lock held)
	}

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

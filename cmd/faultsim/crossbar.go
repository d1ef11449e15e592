package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/ares"
	"repro/internal/campaign"
	"repro/internal/crossbar"
	"repro/internal/envm"
	"repro/internal/mitigate"
)

// xbarRow is one tile size of the crossbar table: its geometry, the
// mitigated policy, any planner warning, and the labels of its bare and
// mitigated configs.
type xbarRow struct {
	xc, mit         crossbar.Config
	segments, tiles int
	warning         string
	bare, mitigated string
}

// crossbarPlan is the compute-in-memory mode (-crossbar): instead of
// corrupting stored bits, each tile size maps the clustered weights onto
// differential conductance pairs as two configs — the bare array
// (programming variation + stuck-at faults, no tolerance) and the same
// array with online soft-error detection + remap scrubbing — reported
// as one before/after row against the model's ITN bound. The detection
// threshold and remap budget come from mitigate.PlanOnline unless
// -detect-sigma pins the threshold.
func crossbarPlan(ev *ares.MeasuredEvaluator, tech envm.Tech, xcfgs []crossbar.Config,
	planned bool, trials int) campaignPlan {
	bound := ev.Model.Meta.ErrorBound
	// The online planner sizes budgets for a 5-year deployment with the
	// scrub scheduler's default endurance allowance.
	dep := deployment(ev, tech, 5)
	if planned {
		fmt.Printf("crossbar: %d tile size(s); detection threshold and remap budget from the online planner (%.0f-year deployment, bound %.4f)\n",
			len(xcfgs), dep.LifetimeYears, bound)
	} else {
		fmt.Printf("crossbar: %d tile size(s); detection threshold pinned by -detect-sigma\n", len(xcfgs))
	}
	rows := make([]xbarRow, len(xcfgs))
	var cfgs []ares.Config
	for i, xc := range xcfgs {
		// Before: the bare array — no detection, no remapping.
		bare := xc
		bare.DetectSigma, bare.MaxRemaps = 0, 0
		bareCfg := ares.Config{Tech: tech, Crossbar: &bare}
		r := xbarRow{xc: xc, mit: xc}
		var err error
		if r.segments, r.tiles, err = ev.XbarGeometry(bareCfg); err != nil {
			log.Fatal(err)
		}
		// After: online tolerance, policy from the planner or the flag.
		if planned {
			plan, err := mitigate.PlanOnline(dep, xc, r.segments, r.tiles)
			if err != nil {
				log.Fatal(err)
			}
			if !plan.Feasible {
				r.warning = plan.Reason
			}
			r.mit = plan.Apply(xc)
		}
		mitCfg := ares.Config{Tech: tech, Crossbar: &r.mit}
		r.bare, r.mitigated = bareCfg.String(), mitCfg.String()
		rows[i] = r
		cfgs = append(cfgs, bareCfg, mitCfg)
	}
	configs, run := runnerOf(ev, cfgs...)
	return campaignPlan{configs: configs, run: run, report: func(res *campaign.Result, elapsed time.Duration) {
		fmt.Printf("\n%-10s %6s %6s %7s %7s %18s %18s %11s %11s %9s\n",
			"tile", "segs", "tiles", "detect", "budget",
			"unmitigated", "mitigated", "remaps/map", "zeroed/map", "vs bound")
		for _, r := range rows {
			if r.warning != "" {
				fmt.Printf("  %s: planner warning: %s\n", r.xc.String(), r.warning)
			}
			before, after := res.Config(r.bare), res.Config(r.mitigated)
			if before.N == 0 || after.N == 0 {
				fmt.Printf("%-10s (interrupted before any trial completed)\n", r.xc.String())
				continue
			}
			fmt.Printf("%-10s %6d %6d %6.2fσ %7d %8s%9s %8s%9s %11.1f %11.1f %9s\n",
				fmt.Sprintf("%dx%d", r.xc.Rows, r.xc.Cols), r.segments, r.tiles,
				r.mit.DetectSigma, r.mit.MaxRemaps,
				fmt.Sprintf("+%.4f", before.Mean), fmt.Sprintf("±%.4f", before.CIHalf),
				fmt.Sprintf("+%.4f", after.Mean), fmt.Sprintf("±%.4f", after.CIHalf),
				after.Extra["corrected"], after.Extra["degraded"],
				verdict(after.Mean <= bound))
			for _, te := range append(before.Errors, after.Errors...) {
				fmt.Printf("  failed trial: %v\n", te)
			}
		}
		fmt.Printf("\n%d fault maps per cell, %.1fs total; ITN bound %.4f (unmitigated rows are diagnostic, the verdict scores the mitigated array)\n",
			trials, elapsed.Seconds(), bound)
	}}
}

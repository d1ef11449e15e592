package mitigate_test

import (
	"context"
	"testing"

	"repro/internal/ares"
	"repro/internal/mitigate"
)

// The subsystem's reason to exist, demonstrated end to end with real
// inference (seed-pinned): an unprotected, unscrubbed MLC3 RRAM
// deployment violates the iso-training-noise accuracy bound within 10
// years — retention drift takes the raw fault rate an order of
// magnitude up and CSR misalignment cascades do the rest — while the
// SAME storage configuration under criticality-aware protection and the
// scheduler's chosen scrub interval holds the bound at every epoch.
func TestLifetimeMitigationHoldsITNBound(t *testing.T) {
	ev, m := getFixture(t)
	ctx := context.Background()
	cfg := baseConfig() // MLC-RRAM, CSR, uniform 3 bpc, no protection
	bound := m.Meta.ErrorBound
	const years = 10.0
	const trials = 4

	// --- Baseline: no protection, no scrubbing. ---
	lpNone := ares.LifetimePolicy{Years: years, EvalEpochs: 4, FloorDelta: bound}
	var worstMean float64
	violated := 0
	epochSum := make([]float64, lpNone.EpochCount())
	for trial := 0; trial < trials; trial++ {
		res, err := ev.LifetimeTrial(ctx, cfg, lpNone, uint64(1000+trial))
		if err != nil {
			t.Fatal(err)
		}
		if res.FirstViolation >= 0 {
			violated++
		}
		for e, es := range res.Epochs {
			epochSum[e] += es.DeltaErr
		}
	}
	for _, s := range epochSum {
		if mean := s / trials; mean > worstMean {
			worstMean = mean
		}
	}
	if worstMean <= bound {
		t.Fatalf("unmitigated MLC3 RRAM held the %.4f bound over %v years (worst epoch mean %.4f): the demo premise is broken",
			bound, years, worstMean)
	}
	if violated == 0 {
		t.Fatal("no unmitigated trial tripped the accuracy floor guard")
	}
	t.Logf("unmitigated: worst epoch mean delta %.4f (bound %.4f), %d/%d trials violated the floor",
		worstMean, bound, violated, trials)

	// --- Mitigated: criticality-aware protection + scheduled scrubbing. ---
	ranks, err := mitigate.RankModel(ev.Clustered(), cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := mitigate.PlanProtection(ranks, cfg.Tech, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	dep := mitigate.Deployment{
		Tech:          cfg.Tech,
		LifetimeYears: years,
		DeltaBound:    bound,
		Sens:          ares.Sensitivity(m.Name),
		Headroom:      ares.Headroom(m.Classes, ev.BaselineErr),
	}
	sp, err := mitigate.PlanScrub(dep, ranks, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Feasible {
		t.Fatalf("scheduler found no feasible plan: %+v", sp)
	}
	t.Logf("plan: %v; scrub every %.2f years (%d epochs, %.2g of endurance), predicted delta %.4f",
		plan, sp.IntervalYears, sp.Epochs, sp.EnduranceFrac, sp.PredictedDelta)

	protected := plan.Apply(cfg)
	lp := sp.Policy(dep)
	if sp.ScrubNeeded && !lp.Scrubbed() {
		t.Fatalf("scheduler demanded scrubbing but the policy does not scrub: %+v", lp)
	}
	mitEpochSum := make([]float64, lp.EpochCount())
	for trial := 0; trial < trials; trial++ {
		res, err := ev.LifetimeTrial(ctx, protected, lp, uint64(1000+trial))
		if err != nil {
			t.Fatal(err)
		}
		for e, es := range res.Epochs {
			mitEpochSum[e] += es.DeltaErr
		}
		if sp.ScrubNeeded && res.Rewrites != sp.Rewrites {
			t.Fatalf("trial performed %d rewrites, schedule says %d", res.Rewrites, sp.Rewrites)
		}
	}
	var mitWorst float64
	for _, s := range mitEpochSum {
		if mean := s / trials; mean > mitWorst {
			mitWorst = mean
		}
	}
	t.Logf("mitigated: worst epoch mean delta %.4f over %d epochs", mitWorst, lp.EpochCount())
	if mitWorst > bound {
		t.Fatalf("mitigated deployment violates the ITN bound: worst epoch mean %.4f > %.4f", mitWorst, bound)
	}
	// The mitigation must matter, not merely squeak by.
	if mitWorst*2 > worstMean {
		t.Errorf("mitigation bought less than 2x: %.4f vs %.4f", mitWorst, worstMean)
	}
}

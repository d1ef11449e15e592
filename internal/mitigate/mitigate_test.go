package mitigate_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/ares"
	"repro/internal/dnn"
	"repro/internal/envm"
	"repro/internal/mitigate"
	"repro/internal/sparse"
	"repro/internal/train"
)

// Shared trained model (training once keeps the suite fast).
var (
	fixOnce sync.Once
	fixEv   *ares.MeasuredEvaluator
	fixM    *dnn.Model
	fixErr  error
)

func getFixture(t *testing.T) (*ares.MeasuredEvaluator, *dnn.Model) {
	t.Helper()
	fixOnce.Do(func() {
		trainDS := train.Synthesize(train.SynthConfig{N: 600, Seed: 10, ProtoSeed: 77})
		testDS := train.Synthesize(train.SynthConfig{N: 200, Seed: 11, ProtoSeed: 77})
		fixM = dnn.TinyCNN()
		fixM.InitWeights(42)
		if _, err := train.Train(fixM, trainDS, train.Config{Epochs: 6, Seed: 1}); err != nil {
			fixErr = err
			return
		}
		fixEv, fixErr = ares.NewMeasuredEvaluator(fixM, testDS, 5)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixEv, fixM
}

func baseConfig() ares.Config {
	return ares.Config{
		Tech:     envm.MLCRRAM,
		Encoding: sparse.KindCSR,
		Default:  ares.StreamPolicy{BPC: 3},
	}
}

func getRanks(t *testing.T) []mitigate.StreamRank {
	t.Helper()
	ev, _ := getFixture(t)
	ranks, err := mitigate.RankModel(ev.Clustered(), baseConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	return ranks
}

// CSR metadata cascades on a single fault; values corruption is local.
// The criticality ranking must reflect that: index streams score above
// the values stream and carry the catastrophic flag.
func TestRankModelIndexStreamsFirst(t *testing.T) {
	ranks := getRanks(t)
	if len(ranks) != 3 {
		t.Fatalf("CSR has 3 streams, ranked %d: %+v", len(ranks), ranks)
	}
	pos := map[string]int{}
	byName := map[string]mitigate.StreamRank{}
	for i, r := range ranks {
		pos[r.Name] = i
		byName[r.Name] = r
	}
	if pos["colidx"] > pos["values"] {
		t.Errorf("colidx ranked below values: %+v", ranks)
	}
	if !byName["colidx"].Catastrophic {
		t.Error("colidx not flagged catastrophic despite misalignment cascades")
	}
	if byName["values"].Catastrophic {
		t.Error("values flagged catastrophic: per-event damage should be local")
	}
	if byName["colidx"].DamagePerEvent <= byName["values"].DamagePerEvent {
		t.Errorf("colidx per-event damage %.4g not above values %.4g",
			byName["colidx"].DamagePerEvent, byName["values"].DamagePerEvent)
	}
	for _, r := range ranks {
		if r.DataBits <= 0 || r.Cells <= 0 {
			t.Errorf("stream %s has empty size: %+v", r.Name, r)
		}
	}
	if byName["values"].BitSensitivity == nil {
		t.Error("values stream missing the cluster-index bit sensitivities")
	}
}

// Cluster-index MSBs move a weight across most of the centroid range;
// LSBs move it to a neighbour. The bit ranking must be increasing
// toward the MSB on the real clustered layers.
func TestIndexBitSensitivityMSBDominates(t *testing.T) {
	ev, _ := getFixture(t)
	for li, cl := range ev.Clustered() {
		sens := mitigate.IndexBitSensitivity(cl.Centroids, cl.IndexBits)
		if len(sens) != cl.IndexBits {
			t.Fatalf("layer %d: %d sensitivities for %d index bits", li, len(sens), cl.IndexBits)
		}
		msb, lsb := sens[cl.IndexBits-1], sens[0]
		if msb <= lsb {
			t.Errorf("layer %d: MSB sensitivity %.4g not above LSB %.4g", li, msb, lsb)
		}
	}
	// Degenerate inputs stay sane.
	if s := mitigate.IndexBitSensitivity(nil, 4); len(s) != 4 {
		t.Error("nil centroids must still size the result")
	}
}

func TestChooseBlockBits(t *testing.T) {
	if got := mitigate.ChooseBlockBits(0, 3); got != mitigate.ECCBlockChoices[0] {
		t.Errorf("zero rate chose %d, want the largest block", got)
	}
	if got := mitigate.ChooseBlockBits(0.1, 3); got != mitigate.ECCBlockChoices[len(mitigate.ECCBlockChoices)-1] {
		t.Errorf("extreme rate chose %d, want the smallest block", got)
	}
	prev := 1 << 20
	for _, rate := range []float64{1e-7, 1e-5, 1e-4, 1e-3, 1e-2} {
		b := mitigate.ChooseBlockBits(rate, 3)
		if b > prev {
			t.Errorf("block size not non-increasing in rate: %d after %d at rate %g", b, prev, rate)
		}
		prev = b
	}
}

func TestPlanProtectionBudget(t *testing.T) {
	ranks := getRanks(t)
	tech := envm.MLCRRAM

	zero, err := mitigate.PlanProtection(ranks, tech, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(zero.Protected) != 0 || len(zero.Derated) != 0 || zero.OverheadFrac != 0 {
		t.Fatalf("zero budget bought protection: %+v", zero)
	}

	modest, err := mitigate.PlanProtection(ranks, tech, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if modest.OverheadFrac > modest.BudgetFrac {
		t.Fatalf("plan overspent: %.4f > %.4f", modest.OverheadFrac, modest.BudgetFrac)
	}
	prot := map[string]bool{}
	for _, name := range modest.Protected {
		prot[name] = true
	}
	if !prot["colidx"] || !prot["rowcount"] {
		t.Fatalf("a 10%% budget must protect the CSR metadata: %+v", modest)
	}

	// A generous budget derates the cascade-prone metadata to SLC.
	rich, err := mitigate.PlanProtection(ranks, tech, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rich.Derated) == 0 {
		t.Fatalf("a 300%% budget bought no SLC derating: %+v", rich)
	}
	for _, name := range rich.Derated {
		if p := rich.Policies[name]; p.BPC != 1 {
			t.Errorf("derated stream %s at bpc %d", name, p.BPC)
		}
	}

	if _, err := mitigate.PlanProtection(ranks, tech, math.NaN()); err == nil {
		t.Error("NaN budget accepted")
	}
	if _, err := mitigate.PlanProtection(nil, tech, 0.1); err == nil {
		t.Error("empty ranking accepted")
	}
}

func TestPredictDeltaMonotoneInAge(t *testing.T) {
	ranks := getRanks(t)
	pl, err := mitigate.PlanProtection(ranks, envm.MLCRRAM, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	sens, headroom := ares.Sensitivity("TinyCNN"), ares.Headroom(10, 0.1)
	prev := -1.0
	for _, years := range []float64{0, 1, 2, 5, 10, 20} {
		d := mitigate.PredictDelta(ranks, pl, envm.MLCRRAM, sens, headroom, years)
		if d < prev {
			t.Fatalf("predicted delta decreased with age: %.4g at %gy after %.4g", d, years, prev)
		}
		if d < 0 || d > headroom {
			t.Fatalf("predicted delta %.4g outside [0, headroom]", d)
		}
		prev = d
	}
}

func TestPlanScrubRegimes(t *testing.T) {
	ranks := getRanks(t)
	sens := ares.Sensitivity("TinyCNN")
	headroom := ares.Headroom(10, 0.1)

	// Protected MLC-RRAM over 10 years: drift forces a refresh schedule
	// that the endurance budget easily affords (1e6 cycles).
	pl, err := mitigate.PlanProtection(ranks, envm.MLCRRAM, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	dep := mitigate.Deployment{
		Tech: envm.MLCRRAM, LifetimeYears: 10, DeltaBound: 0.005,
		Sens: sens, Headroom: headroom,
	}
	sp, err := mitigate.PlanScrub(dep, ranks, pl)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Feasible {
		t.Fatalf("MLC-RRAM schedule infeasible: %+v", sp)
	}
	if sp.ScrubNeeded {
		if sp.IntervalYears <= 0 || sp.IntervalYears >= dep.LifetimeYears {
			t.Fatalf("scrub interval %v outside (0, lifetime)", sp.IntervalYears)
		}
		if sp.Epochs < 2 || sp.Rewrites != sp.Epochs-1 {
			t.Fatalf("inconsistent schedule: %+v", sp)
		}
		if sp.PredictedDelta > dep.DeltaBound {
			t.Fatalf("feasible plan predicts %v above the bound", sp.PredictedDelta)
		}
	}
	if sp.EnduranceFrac > dep.MaxEnduranceFrac && dep.MaxEnduranceFrac > 0 {
		t.Fatalf("schedule overspends endurance: %+v", sp)
	}

	// An unprotected plan whose write-time rate already violates a razor
	// bound: scrubbing cannot help.
	bare := mitigate.Plan{Policies: map[string]ares.StreamPolicy{}, BlockBits: 512}
	for _, r := range ranks {
		bare.Policies[r.Name] = ares.StreamPolicy{BPC: r.BPC}
	}
	hard := dep
	hard.Tech = envm.CTT
	hard.DeltaBound = 1e-6
	sp2, err := mitigate.PlanScrub(hard, ranks, bare)
	if err != nil {
		t.Fatal(err)
	}
	if sp2.Feasible || !sp2.ScrubNeeded || sp2.Reason == "" {
		t.Fatalf("impossible deployment reported feasible: %+v", sp2)
	}

	// A huge bound needs no scrubbing at all.
	easy := dep
	easy.DeltaBound = headroom * 0.999
	sp3, err := mitigate.PlanScrub(easy, ranks, pl)
	if err != nil {
		t.Fatal(err)
	}
	if sp3.ScrubNeeded || !sp3.Feasible || sp3.IntervalYears != 0 {
		t.Fatalf("trivial bound still scheduled scrubbing: %+v", sp3)
	}

	if _, err := mitigate.PlanScrub(mitigate.Deployment{}, ranks, pl); err == nil {
		t.Error("empty deployment accepted")
	}
}

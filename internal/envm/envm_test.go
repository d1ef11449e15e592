package envm

import (
	"math"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/ecc"
	"repro/internal/stats"
)

// mustLevels unwraps Levels/LevelsAfter results in tests whose bpc is a
// valid constant, where an error is a test bug.
func mustLevels(lm LevelModel, err error) LevelModel {
	if err != nil {
		panic(err)
	}
	return lm
}

func TestLevelsRejectsBadBPC(t *testing.T) {
	for _, bpc := range []int{0, -1, 5, 99} {
		if _, err := CTT.Levels(bpc); err == nil {
			t.Errorf("Levels(%d) accepted", bpc)
		}
		if _, err := CTT.LevelsAfter(bpc, 3); err == nil {
			t.Errorf("LevelsAfter(%d, 3) accepted", bpc)
		}
	}
}

func TestTechValidation(t *testing.T) {
	for _, tech := range append(Evaluated(), Survey()...) {
		if err := tech.Validate(); err != nil {
			t.Errorf("%s: %v", tech.Name, err)
		}
	}
	bad := CTT
	bad.MaxBitsPerCell = 9
	if err := bad.Validate(); err == nil {
		t.Error("invalid tech accepted")
	}
}

func TestByName(t *testing.T) {
	tech, err := ByName("MLC-CTT")
	if err != nil || tech.Name != "MLC-CTT" {
		t.Fatalf("ByName failed: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestLevelModelCalibration(t *testing.T) {
	// The MLC3 worst adjacent fault rate must match the calibration
	// target for every evaluated tech.
	for _, tech := range Evaluated() {
		lm := mustLevels(tech.Levels(3))
		got := lm.WorstAdjacentFault()
		if math.Abs(math.Log10(got)-math.Log10(tech.MLC3FaultRate)) > 0.05 {
			t.Errorf("%s MLC3 fault = %.3g, want %.3g", tech.Name, got, tech.MLC3FaultRate)
		}
	}
}

func TestLevelGeometry(t *testing.T) {
	lm := mustLevels(CTT.Levels(3))
	if lm.NumLevels() != 8 || len(lm.Thresholds) != 7 {
		t.Fatalf("levels %d thresholds %d", lm.NumLevels(), len(lm.Thresholds))
	}
	// Means strictly increasing, thresholds between neighbors.
	for i := 1; i < 8; i++ {
		if lm.Levels[i].Mean <= lm.Levels[i-1].Mean {
			t.Fatal("means not increasing")
		}
		thr := lm.Thresholds[i-1]
		if thr <= lm.Levels[i-1].Mean || thr >= lm.Levels[i].Mean {
			t.Fatalf("threshold %d = %v outside (%v,%v)", i-1, thr, lm.Levels[i-1].Mean, lm.Levels[i].Mean)
		}
	}
}

func TestCTTUnprogrammedLevelWider(t *testing.T) {
	lm := mustLevels(CTT.Levels(3))
	if lm.Levels[0].Sigma <= lm.Levels[1].Sigma {
		t.Error("CTT level 0 should be wider than programmed levels")
	}
	// Guard band: gap 0->1 exceeds gap 1->2.
	g01 := lm.Levels[1].Mean - lm.Levels[0].Mean
	g12 := lm.Levels[2].Mean - lm.Levels[1].Mean
	if g01 <= g12 {
		t.Errorf("guard band missing: gap01=%v gap12=%v", g01, g12)
	}
}

func TestUnprogrammedLevelGuardBand(t *testing.T) {
	// Ablation: without the guard band (SeparateLevel0=false) the wide
	// level-0 distribution collides with level 1 and the worst fault is
	// concentrated there; the guard band equalizes it.
	noGuard := CTT
	noGuard.SeparateLevel0 = false
	sigma := CTT.deviceSigma()
	withG := CTT.levelsWithSigma(3, sigma).FaultMap()
	without := noGuard.levelsWithSigma(3, sigma).FaultMap()
	if without.PUp[0] <= withG.PUp[0] {
		t.Errorf("guard band did not reduce level-0 fault: %g vs %g", without.PUp[0], withG.PUp[0])
	}
}

func TestFewerBitsPerCellExponentiallySafer(t *testing.T) {
	// The core physical effect: MLC2 fault rates are many orders of
	// magnitude below MLC3; SLC is effectively fault-free.
	for _, tech := range Evaluated() {
		f3 := mustLevels(tech.Levels(3)).WorstAdjacentFault()
		f2 := mustLevels(tech.Levels(2)).WorstAdjacentFault()
		f1 := mustLevels(tech.Levels(1)).WorstAdjacentFault()
		if tech.MaxBitsPerCell < 3 {
			f3 = 1 // skip: undefined for SLC-only techs but Levels still computes
		}
		if f2 >= f3/100 {
			t.Errorf("%s: MLC2 fault %.3g not << MLC3 %.3g", tech.Name, f2, f3)
		}
		if f1 > 1e-15 {
			t.Errorf("%s: SLC fault %.3g should be negligible", tech.Name, f1)
		}
	}
}

func TestFaultMapBoundaries(t *testing.T) {
	fm := mustLevels(CTT.Levels(3)).FaultMap()
	if fm.PDown[0] != 0 {
		t.Error("lowest level cannot fault down")
	}
	if fm.PUp[7] != 0 {
		t.Error("highest level cannot fault up")
	}
	if fm.MaxRate() <= 0 || fm.TotalRate() <= 0 {
		t.Error("rates should be positive at MLC3")
	}
}

func TestSenseAmpAlterationWithinBudget(t *testing.T) {
	// The chosen design point alters fault rates by < 2x (Section 2.3).
	// The constraint is only meaningful for MLC technologies: at SLC the
	// fault rates on both sides are doubly-exponentially small.
	for _, tech := range Evaluated() {
		bpcMax := tech.MaxBitsPerCell
		if bpcMax < 2 {
			continue
		}
		lm := mustLevels(tech.Levels(bpcMax))
		alt := DefaultSenseAmp.FaultAlteration(lm)
		if alt >= 2 {
			t.Errorf("%s: sense amp alters fault rate %.2fx >= 2x", tech.Name, alt)
		}
		if alt < 1 {
			t.Errorf("%s: alteration %.2fx < 1 (offset should not reduce faults)", tech.Name, alt)
		}
	}
}

// widthForBudget returns the smallest width scale (in 0.5 steps up to
// maxScale) whose fault-rate alteration stays under the budget; 0 if none
// does.
func widthForBudget(lm LevelModel, offsetAtMin, budget, maxScale float64) float64 {
	for w := 0.5; w <= maxScale; w += 0.5 {
		sa := SenseAmp{OffsetSigmaAtMinWidth: offsetAtMin, WidthScale: w}
		if sa.FaultAlteration(lm) < budget {
			return w
		}
	}
	return 0
}

func TestSenseAmpWidthTradeoff(t *testing.T) {
	lm := mustLevels(CTT.Levels(3))
	narrow := SenseAmp{OffsetSigmaAtMinWidth: 0.02, WidthScale: 1}
	wide := SenseAmp{OffsetSigmaAtMinWidth: 0.02, WidthScale: 16}
	if narrow.FaultAlteration(lm) <= wide.FaultAlteration(lm) {
		t.Error("wider SA should alter fault rates less")
	}
	w := widthForBudget(lm, 0.02, 2.0, 32)
	if w <= 0 {
		t.Fatal("no width satisfies the 2x budget")
	}
	sa := SenseAmp{OffsetSigmaAtMinWidth: 0.02, WidthScale: w}
	if sa.FaultAlteration(lm) >= 2 {
		t.Error("widthForBudget returned a width violating the budget")
	}
}

func TestCellsFor(t *testing.T) {
	if CellsFor(9, 3) != 3 || CellsFor(10, 3) != 4 || CellsFor(0, 3) != 0 {
		t.Error("CellsFor wrong")
	}
}

func TestStoreConfigValidate(t *testing.T) {
	good := StoreConfig{Tech: CTT, BPC: 3}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := StoreConfig{Tech: SLCRRAM, BPC: 2}
	if err := bad.Validate(); err == nil {
		t.Error("SLC-RRAM at 2 bpc accepted")
	}
}

func TestInjectEmpiricalRateMatchesModel(t *testing.T) {
	cfg := StoreConfig{Tech: CTT, BPC: 3}
	fm := cfg.FaultMap()
	src := stats.NewSource(42)
	dataSrc := stats.NewSource(7)
	const nCells = 400000
	a := bitstream.New(nCells * 3)
	for i := 0; i < nCells; i++ {
		a.SetBits(i*3, 3, uint64(dataSrc.Intn(8)))
	}
	faults := InjectArray(a, cfg, src)
	want := float64(nCells) * fm.TotalRate()
	got := float64(faults)
	if math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Errorf("faults = %v, want ~%v", got, want)
	}
}

func TestInjectFaultsAreAdjacentLevel(t *testing.T) {
	cfg := StoreConfig{Tech: CTT, BPC: 3}
	src := stats.NewSource(1)
	const nCells = 200000
	a := bitstream.New(nCells * 3)
	dataSrc := stats.NewSource(2)
	for i := 0; i < nCells; i++ {
		a.SetBits(i*3, 3, uint64(dataSrc.Intn(8)))
	}
	ref := a.Clone()
	faults := InjectArray(a, cfg, src)
	if faults == 0 {
		t.Fatal("expected some faults at CTT MLC3")
	}
	changed := 0
	for i := 0; i < nCells; i++ {
		before := ref.GetBits(i*3, 3)
		after := a.GetBits(i*3, 3)
		if before == after {
			continue
		}
		changed++
		d := int64(after) - int64(before)
		if d != 1 && d != -1 {
			t.Fatalf("cell %d moved %d levels (binary mapping)", i, d)
		}
	}
	if changed != faults {
		t.Errorf("changed cells %d != reported faults %d", changed, faults)
	}
}

func TestInjectGrayFaultIsSingleBitFlip(t *testing.T) {
	cfg := StoreConfig{Tech: CTT, BPC: 3, Gray: true}
	src := stats.NewSource(3)
	const nCells = 200000
	a := bitstream.New(nCells * 3)
	dataSrc := stats.NewSource(4)
	for i := 0; i < nCells; i++ {
		a.SetBits(i*3, 3, uint64(dataSrc.Intn(8)))
	}
	ref := a.Clone()
	faults := InjectArray(a, cfg, src)
	if faults == 0 {
		t.Fatal("expected faults")
	}
	for i := 0; i < nCells; i++ {
		before := ref.GetBits(i*3, 3)
		after := a.GetBits(i*3, 3)
		if before == after {
			continue
		}
		diff := before ^ after
		if diff&(diff-1) != 0 {
			t.Fatalf("cell %d: gray fault flipped multiple bits (%03b -> %03b)", i, before, after)
		}
		// And the level moved by exactly one.
		lb, la := ecc.GrayInv(before), ecc.GrayInv(after)
		if d := int64(la) - int64(lb); d != 1 && d != -1 {
			t.Fatalf("cell %d: gray level moved %d", i, d)
		}
	}
}

func TestInjectDeterministic(t *testing.T) {
	cfg := StoreConfig{Tech: MLCRRAM, BPC: 3}
	mk := func() *bitstream.Array {
		a := bitstream.New(30000)
		ds := stats.NewSource(5)
		for i := 0; i < 10000; i++ {
			a.SetBits(i*3, 3, uint64(ds.Intn(8)))
		}
		InjectArray(a, cfg, stats.NewSource(99))
		return a
	}
	if !mk().Equal(mk()) {
		t.Error("injection not deterministic")
	}
}

func TestInjectSLCEffectivelyFaultFree(t *testing.T) {
	cfg := StoreConfig{Tech: SLCRRAM, BPC: 1}
	a := bitstream.New(1 << 20)
	if f := InjectArray(a, cfg, stats.NewSource(1)); f != 0 {
		t.Errorf("SLC injected %d faults in 1M cells", f)
	}
}

func TestExpectedFaults(t *testing.T) {
	cfg := StoreConfig{Tech: CTT, BPC: 3}
	e := expectedFaults(3*1e6, cfg)
	if e <= 0 {
		t.Error("expected positive fault count")
	}
	e2 := expectedFaults(3*1e6, StoreConfig{Tech: CTT, BPC: 2})
	if e2 >= e/100 {
		t.Error("MLC2 expectation should be orders of magnitude lower")
	}
}

func TestGrayRecodeRoundTrip(t *testing.T) {
	a := bitstream.New(300)
	ds := stats.NewSource(6)
	for i := 0; i < 100; i++ {
		a.SetBits(i*3, 3, uint64(ds.Intn(8)))
	}
	ref := a.Clone()
	grayRecode(a, 3, true)
	if a.Equal(ref) {
		t.Error("recode was identity")
	}
	grayRecode(a, 3, false)
	if !a.Equal(ref) {
		t.Error("gray recode round trip failed")
	}
}

func TestWriteTimeAnchors(t *testing.T) {
	// Table 5 shape: CTT writes take minutes; RRAM milliseconds.
	resnetCells := int64(12 * 8 * 1e6 / 2) // 12MB at 2 bpc
	ctt := CTT.WriteTimeSeconds(resnetCells, 2)
	if ctt < 300 || ctt > 3600 {
		t.Errorf("CTT ResNet50 write = %.0fs, want minutes (paper: 15.7min)", ctt)
	}
	slc := SLCRRAM.WriteTimeSeconds(int64(12*8*1e6), 1)
	if slc > 0.1 {
		t.Errorf("SLC-RRAM ResNet50 write = %.4fs, want ms (paper: 4.7ms)", slc)
	}
	opt := OptRRAM.WriteTimeSeconds(resnetCells, 2)
	if opt < 0.01 || opt > 1 {
		t.Errorf("Opt RRAM write = %.4fs, want ~117ms", opt)
	}
}

func TestWriteLatencyScalesWithLevels(t *testing.T) {
	if CTT.WriteLatency(3) <= CTT.WriteLatency(2) {
		t.Error("MLC3 programming should take longer than MLC2")
	}
}

func TestF2ToMM2(t *testing.T) {
	// 1M cells at 100 F2, 100nm node: 100 * (100nm)^2 = 1e6 nm2 per cell
	// -> 1e12 nm2 total = 1 mm2... checks unit conversion.
	tech := Tech{NodeNM: 100, CellAreaF2: 100}
	got := tech.F2ToMM2(1e6)
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("F2ToMM2 = %v, want 1", got)
	}
}

func TestEvaluatedOrderMatchesPaper(t *testing.T) {
	names := []string{"Opt MLC-RRAM", "MLC-CTT", "MLC-RRAM", "SLC-RRAM"}
	for i, tech := range Evaluated() {
		if tech.Name != names[i] {
			t.Errorf("Evaluated()[%d] = %s, want %s", i, tech.Name, names[i])
		}
	}
}

func TestGuardBandAblationHelper(t *testing.T) {
	withG, without := GuardBandAblation(CTT)
	if withG <= 0 || without <= 0 {
		t.Fatal("ablation rates must be positive")
	}
	if without <= withG {
		t.Errorf("guard band should reduce level-0 misreads: with=%g without=%g", withG, without)
	}
}

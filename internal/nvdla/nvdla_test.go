package nvdla

import (
	"math"
	"testing"

	"repro/internal/dnn"
	"repro/internal/envm"
	"repro/internal/nvsim"
)

func resnetWork(t *testing.T, compressedMB float64) []LayerWork {
	t.Helper()
	m := dnn.ResNet50()
	work := Workload(m, nil)
	if compressedMB > 0 {
		// Scale weight bits to the compressed total, preserving per-layer
		// proportions.
		var total int64
		for _, w := range work {
			total += w.WeightBits
		}
		scale := compressedMB * 8e6 / float64(total)
		for i := range work {
			work[i].WeightBits = int64(float64(work[i].WeightBits) * scale)
		}
	}
	return work
}

func cttArray(t *testing.T, capMB int64, bpc int) nvsim.Result {
	t.Helper()
	return nvsim.Characterize(nvsim.Config{
		Tech: envm.CTT, BPC: bpc, CapacityBits: capMB * 8e6, Target: nvsim.OptReadEDP,
	})
}

func TestWorkloadShapes(t *testing.T) {
	m := dnn.LeNet5()
	work := Workload(m, nil)
	if len(work) != 4 {
		t.Fatalf("LeNet5 should yield 4 work items, got %d", len(work))
	}
	// conv1: 24*24*20*1*5*5 = 288000 MACs.
	if work[0].MACs != 288000 {
		t.Errorf("conv1 MACs = %d, want 288000", work[0].MACs)
	}
	// fc1: 800*500.
	if work[2].MACs != 400000 {
		t.Errorf("fc1 MACs = %d, want 400000", work[2].MACs)
	}
	// Dense 16-bit weight default.
	var first *dnn.Layer
	for _, l := range m.Layers {
		if l.HasWeights() {
			first = l
			break
		}
	}
	if work[0].WeightBits != int64(first.WeightCount())*16 {
		t.Error("default weight bits wrong")
	}
}

func TestWorkloadCustomBits(t *testing.T) {
	m := dnn.LeNet5()
	bits := []int64{100, 200, 300, 400}
	work := Workload(m, bits)
	for i, w := range work {
		if w.WeightBits != bits[i] {
			t.Errorf("layer %d bits = %d", i, w.WeightBits)
		}
	}
}

func TestRunBasics(t *testing.T) {
	work := resnetWork(t, 12)
	rep := Run(NVDLA1024, work, ENVMWeights{cttArray(t, 12, 2)})
	if rep.FPS <= 0 || rep.EnergyUJ <= 0 || rep.AvgPowerMW <= 0 {
		t.Fatalf("bad report: %+v", rep)
	}
	if rep.TotalAreaMM2 <= NVDLA1024.DatapathAreaMM2 {
		t.Error("area should include SRAM + eNVM")
	}
}

func TestFig9ShapeEnergyAndPower(t *testing.T) {
	// Figure 9: on-chip CTT vs DRAM baseline for ResNet50 on NVDLA-64:
	// ~3.2x lower average power, >=2.5x lower energy per inference.
	baselineWork := resnetWork(t, 12) // weights compressed (BitM+IdxSync 12MB) in both systems
	dram := Run(NVDLA64, baselineWork, DRAMWeights{NVDLA64.DRAM})
	ctt := Run(NVDLA64, baselineWork, ENVMWeights{cttArray(t, 12, 2)})

	powerRatio := dram.AvgPowerMW / ctt.AvgPowerMW
	energyRatio := dram.EnergyUJ / ctt.EnergyUJ
	if powerRatio < 2 || powerRatio > 5 {
		t.Errorf("power ratio = %.2f, paper reports ~3.2x", powerRatio)
	}
	if energyRatio < 2 || energyRatio > 6 {
		t.Errorf("energy ratio = %.2f, paper reports up to 3.5x", energyRatio)
	}
	// Weight-fetch energy reduction is the dominant driver (>100x per
	// Section 5.2 for NVDLA-64).
	if dram.WeightEnergyUJ < 50*ctt.WeightEnergyUJ {
		t.Errorf("weight energy ratio %.1f, want >= 50x", dram.WeightEnergyUJ/ctt.WeightEnergyUJ)
	}
}

func TestFig9FPSAbove60(t *testing.T) {
	// Section 5.2: best performance per model consistently exceeds 60 FPS
	// on NVDLA-1024.
	work := resnetWork(t, 12)
	for _, tech := range []envm.Tech{envm.CTT, envm.OptRRAM, envm.MLCRRAM} {
		bpc := 2
		arr := nvsim.Characterize(nvsim.Config{
			Tech: tech, BPC: bpc, CapacityBits: 12 * 8e6, Target: nvsim.OptReadEDP,
		})
		rep := Run(NVDLA1024, work, ENVMWeights{arr})
		if rep.FPS < 60 {
			t.Errorf("%s: %.0f FPS < 60", tech.Name, rep.FPS)
		}
	}
}

func TestNVDLA1024FasterThan64(t *testing.T) {
	work := resnetWork(t, 12)
	mem := ENVMWeights{cttArray(t, 12, 2)}
	small := Run(NVDLA64, work, mem)
	big := Run(NVDLA1024, work, mem)
	if big.FPS <= small.FPS {
		t.Errorf("NVDLA-1024 %.1f FPS <= NVDLA-64 %.1f FPS", big.FPS, small.FPS)
	}
	if big.AvgPowerMW <= small.AvgPowerMW {
		t.Error("bigger datapath should draw more power")
	}
}

func TestFig10NonVolatilityCrossover(t *testing.T) {
	// Figure 10: at low frame rates eNVM wins big (5.3-7.5x); the
	// always-on DRAM baseline approaches eNVM at high frame rates.
	work := resnetWork(t, 12)
	mem := ENVMWeights{cttArray(t, 12, 2)}
	dramMem := DRAMWeights{NVDLA1024.DRAM}
	dramRep := Run(NVDLA1024, work, dramMem)
	envmRep := Run(NVDLA1024, work, mem)
	raw := int64(70 * 8e6 * 2) // 70MB 16-bit raw weights for wake-up reload

	lowFPS, highFPS := 5.0, 120.0
	dramLow := EnergyAtFPS(NVDLA1024, dramRep, dramMem, raw, lowFPS, AlwaysOn)
	envmLow := EnergyAtFPS(NVDLA1024, envmRep, mem, raw, lowFPS, NonVolatileSleep)
	if ratio := dramLow / envmLow; ratio < 3 {
		t.Errorf("low-FPS always-on ratio %.1fx, paper reports 5.3-7.5x", ratio)
	}
	dramHigh := EnergyAtFPS(NVDLA1024, dramRep, dramMem, raw, highFPS, AlwaysOn)
	envmHigh := EnergyAtFPS(NVDLA1024, envmRep, mem, raw, highFPS, NonVolatileSleep)
	ratioHigh := dramHigh / envmHigh
	ratioLow := dramLow / envmLow
	if ratioHigh >= ratioLow {
		t.Errorf("always-on advantage should shrink at high FPS: %.1f vs %.1f", ratioHigh, ratioLow)
	}

	// Wake-up mode is flat in FPS.
	wakeLow := EnergyAtFPS(NVDLA1024, dramRep, dramMem, raw, lowFPS, WakeUp)
	wakeHigh := EnergyAtFPS(NVDLA1024, dramRep, dramMem, raw, highFPS, WakeUp)
	if math.Abs(wakeLow-wakeHigh)/wakeLow > 1e-9 {
		t.Error("wake-up energy should not depend on FPS")
	}
	// Below ~22 FPS, wake-up beats always-on (Section 5.3).
	if wakeLow >= dramLow {
		t.Errorf("at %v FPS wake-up (%.1fuJ) should beat always-on (%.1fuJ)", lowFPS, wakeLow, dramLow)
	}
}

func TestHybridPlanGreedyPlacement(t *testing.T) {
	m := dnn.VGG16()
	work := Workload(m, nil)
	// Compress to ~32MB (CSR+ECC scale).
	var total int64
	for _, w := range work {
		total += w.WeightBits
	}
	scale := 32 * 8e6 / float64(total)
	for i := range work {
		work[i].WeightBits = int64(float64(work[i].WeightBits) * scale)
	}

	plan := PlanHybrid(NVDLA1024, work, envm.CTT, 3, 1.0, 0.45)
	if plan.ENVMCapBits <= 0 {
		t.Fatal("no eNVM capacity planned at 45% of 1mm²")
	}
	if plan.SRAMBytes <= 0 {
		t.Fatal("no SRAM planned")
	}
	// Placed bits must not exceed capacity.
	var placed int64
	for i, f := range plan.InENVM {
		placed += int64(f * float64(work[i].WeightBits))
	}
	if placed > plan.ENVMCapBits {
		t.Errorf("placed %d bits > capacity %d", placed, plan.ENVMCapBits)
	}
	// Greedy: the most DRAM-bound layer (largest weightNs-computeNs) must
	// be fully placed if anything is.
	if placed > 0 {
		best, bestBurn := -1, math.Inf(-1)
		for i, lw := range work {
			burn := float64(lw.WeightBits)/8/NVDLA1024.DRAM.ReadBandwidthGBs -
				float64(lw.MACs)/(float64(NVDLA1024.MACs)*lw.Utilization)
			if burn > bestBurn {
				best, bestBurn = i, burn
			}
		}
		if plan.InENVM[best] < 1 && placed < plan.ENVMCapBits {
			t.Error("greedy placement skipped the most DRAM-bound layer")
		}
	}
}

func TestFig11HybridSweepShape(t *testing.T) {
	// Figure 11: some eNVM beats none; starving SRAM collapses
	// performance once activations spill to DRAM.
	m := dnn.VGG16()
	work := Workload(m, nil)
	var total int64
	for _, w := range work {
		total += w.WeightBits
	}
	scale := 32 * 8e6 / float64(total)
	for i := range work {
		work[i].WeightBits = int64(float64(work[i].WeightBits) * scale)
	}

	run := func(frac float64) Report {
		plan := PlanHybrid(NVDLA1024, work, envm.CTT, 3, 1.0, frac)
		return RunHybrid(NVDLA1024, work, plan)
	}
	none := run(0)
	mid := run(0.45)
	starved := run(0.98)

	// Section 6: lowest energy per inference near 45% eNVM (weight
	// fetches move from DRAM to cheap on-chip reads) ...
	if mid.EnergyUJ >= none.EnergyUJ {
		t.Errorf("45%% eNVM energy %.1f should beat 0%% (%.1f)", mid.EnergyUJ, none.EnergyUJ)
	}
	// ... at modest performance cost ...
	if mid.FPS < 0.6*none.FPS {
		t.Errorf("45%% eNVM FPS %.1f degraded too far vs 0%% (%.1f)", mid.FPS, none.FPS)
	}
	// ... and a sharp collapse once SRAM can no longer hold the working
	// set of intermediate values.
	if starved.FPS > 0.75*mid.FPS {
		t.Errorf("starved SRAM FPS %.1f should collapse well below mid %.1f", starved.FPS, mid.FPS)
	}
	if starved.EnergyUJ < mid.EnergyUJ {
		t.Errorf("starved energy %.1f should exceed mid %.1f", starved.EnergyUJ, mid.EnergyUJ)
	}
}

func TestPowerModeString(t *testing.T) {
	if AlwaysOn.String() != "always-on" || WakeUp.String() != "wake-up" || NonVolatileSleep.String() != "nv-sleep" {
		t.Error("power mode strings wrong")
	}
}

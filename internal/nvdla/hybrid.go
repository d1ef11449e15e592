package nvdla

import (
	"math"
	"sort"

	"repro/internal/envm"
	"repro/internal/nvsim"
)

// HybridPlan is the Section 6 memory organization: a fixed on-chip area
// budget split between SRAM (intermediate values) and eNVM (weights),
// with DRAM serving whatever does not fit. The eNVM is not a cache: it
// and DRAM hold mutually exclusive weight sets.
type HybridPlan struct {
	AreaBudgetMM2 float64

	ENVMArray   nvsim.Result
	ENVMCapBits int64
	SRAMBytes   int64
	SRAMAreaMM2 float64
	// InENVM[i] is the fraction of weight layer i's bits served from
	// eNVM (greedy assignment; at most one layer is split).
	InENVM []float64
}

// PlanHybrid splits budgetMM2 between eNVM (fracENVM of the area) and
// SRAM, characterizes the largest eNVM array fitting its share, and
// greedily places the most DRAM-bottlenecked layers' weights on-chip
// first (the paper's placement heuristic).
func PlanHybrid(cfg Config, work []LayerWork, tech envm.Tech, bpc int, budgetMM2, fracENVM float64) HybridPlan {
	plan := HybridPlan{AreaBudgetMM2: budgetMM2}
	sram := nvsim.DefaultSRAM
	plan.SRAMAreaMM2 = budgetMM2 * (1 - fracENVM)
	plan.SRAMBytes = sram.CapacityBytes(plan.SRAMAreaMM2)
	plan.InENVM = make([]float64, len(work))

	envmArea := budgetMM2 * fracENVM
	if envmArea > 0 {
		capBits := nvsim.MaxCapacityWithinArea(tech, bpc, nvsim.OptReadEDP, envmArea)
		if capBits > 0 {
			plan.ENVMCapBits = capBits
			plan.ENVMArray = nvsim.Characterize(nvsim.Config{
				Tech: tech, BPC: bpc, CapacityBits: capBits, Target: nvsim.OptReadEDP,
			})
		}
	}
	if plan.ENVMCapBits == 0 {
		return plan
	}

	// Rank layers by DRAM-boundedness: weight streaming time at DRAM
	// bandwidth minus compute time; most bottlenecked first.
	type ranked struct {
		idx  int
		burn float64
		bits int64
	}
	var order []ranked
	for i, lw := range work {
		weightNs := float64(lw.WeightBits) / 8 / cfg.DRAM.ReadBandwidthGBs
		computeNs := float64(lw.MACs) / (float64(cfg.MACs) * lw.Utilization) / cfg.FreqGHz
		order = append(order, ranked{idx: i, burn: weightNs - computeNs, bits: lw.WeightBits})
	}
	sort.Slice(order, func(a, b int) bool { return order[a].burn > order[b].burn })

	remaining := plan.ENVMCapBits
	for _, r := range order {
		if remaining <= 0 {
			break
		}
		take := r.bits
		if take > remaining {
			take = remaining
		}
		plan.InENVM[r.idx] = float64(take) / float64(r.bits)
		remaining -= take
	}
	return plan
}

// RunHybrid evaluates one inference under a hybrid plan. Weight bits are
// streamed from eNVM and DRAM per the plan; activation traffic spills to
// DRAM for layers whose working set exceeds the SRAM allocation
// (Section 6: "execution becomes bottlenecked on writing to and fetching
// activations from DRAM").
func RunHybrid(cfg Config, work []LayerWork, plan HybridPlan) Report {
	sram := nvsim.DefaultSRAM
	envmBW := 0.0
	envmLat := 0.0
	envmEnergy := 0.0
	if plan.ENVMCapBits > 0 {
		envmBW = plan.ENVMArray.ReadBandwidthGBs
		envmLat = plan.ENVMArray.ReadLatencyNs
		envmEnergy = plan.ENVMArray.EnergyPerBitPJ()
	}
	sramBW := sram.BandwidthGBs(plan.SRAMBytes)
	if sramBW <= 0 {
		sramBW = 0.1
	}

	var cycles float64
	var weightPJ, actPJ float64
	dramUsed := false
	for i, lw := range work {
		f := plan.InENVM[i]
		envmBits := f * float64(lw.WeightBits)
		dramWeightBits := float64(lw.WeightBits) - envmBits
		lat := 0.0
		envmNs := 0.0
		if envmBits > 0 {
			envmNs = envmBits / 8 / envmBW
			lat = math.Max(lat, envmLat)
			weightPJ += envmBits * envmEnergy
		}
		// The DRAM interface is a single shared resource: weights that
		// overflowed the eNVM and activations that overflowed the SRAM
		// contend for its bandwidth. This contention is exactly why
		// giving part of the budget to eNVM relieves DRAM-bound layers.
		dramBits := 0.0
		sramActNs := 0.0
		if dramWeightBits > 1 {
			dramBits += dramWeightBits
			weightPJ += dramWeightBits * cfg.DRAM.EnergyPJPerBit
		}
		if lw.WorkingSetBits > plan.SRAMBytes*8 {
			// The layer's streaming working set exceeds the SRAM
			// allocation: tiling re-fetches intermediate values from DRAM
			// roughly once per SRAM-sized tile (the sharp degradation of
			// Figure 11).
			refetch := math.Ceil(float64(lw.WorkingSetBits) / float64(plan.SRAMBytes*8))
			// Spilled intermediates round-trip: written to DRAM and read
			// back, once per SRAM-sized tile.
			traffic := 2 * float64(lw.ActBits) * refetch
			dramBits += traffic
			actPJ += traffic * cfg.DRAM.EnergyPJPerBit
		} else {
			sramActNs = float64(lw.ActBits) / 8 / sramBW
			actPJ += float64(lw.ActBits) * sram.EnergyPJPerBit
		}
		dramNs := 0.0
		if dramBits > 0 {
			dramNs = dramBits / 8 / cfg.DRAM.ReadBandwidthGBs
			lat = math.Max(lat, DRAMWeights{cfg.DRAM}.LatencyNs())
			dramUsed = true
		}
		compute := float64(lw.MACs) / (float64(cfg.MACs) * lw.Utilization)
		bound := math.Max(compute,
			math.Max(envmNs, math.Max(dramNs, sramActNs))*cfg.FreqGHz)
		cycles += bound + lat*cfg.FreqGHz
	}
	timeNs := cycles / cfg.FreqGHz

	staticMW := sram.LeakageMW(plan.SRAMBytes)
	if plan.ENVMCapBits > 0 {
		staticMW += plan.ENVMArray.LeakageMW
	}
	if dramUsed {
		staticMW += cfg.DRAM.PowerMW
	}
	totalPJ := weightPJ + actPJ + staticMW*timeNs + cfg.DatapathPowerMW*timeNs
	label := "hybrid"
	if plan.ENVMCapBits > 0 {
		label = "hybrid-" + plan.ENVMArray.Tech
	}
	return Report{
		Config: cfg.Name, Memory: label,
		Cycles:         cycles,
		FPS:            1e9 / timeNs,
		EnergyUJ:       totalPJ * 1e-6,
		WeightEnergyUJ: weightPJ * 1e-6,
		AvgPowerMW:     totalPJ / timeNs,
		TotalAreaMM2:   cfg.DatapathAreaMM2 + plan.AreaBudgetMM2,
	}
}

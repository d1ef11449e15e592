// Package nvsim is an analytical re-implementation of the NVSim
// memory-array characterization flow the paper relies on (Section 3.4):
// given a technology (internal/envm), a capacity, a bits-per-cell setting,
// and an optimization target, it sweeps array organizations
// (banks x mats x data width), models area, read latency, read energy,
// bandwidth, and leakage for each, and returns the target-optimal or
// Pareto-optimal points.
//
// The model is deliberately first-order — RC-style wordline/bitline
// delays, H-tree routing that grows with the square root of area, a
// flash-ADC MLC sensing stage with (levels-1) sense amps per multiplexed
// column — with constants calibrated to the paper's Figure 1 and Table 4
// anchor points. Absolute numbers are approximate; orderings and scaling
// shapes are the contract (see DESIGN.md).
package nvsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/envm"
)

// Target selects the NVSim optimization objective (Table 3).
type Target int

const (
	// OptReadEDP minimizes read energy x delay (the paper's default for
	// its presented results).
	OptReadEDP Target = iota
	// OptArea minimizes total array area.
	OptArea
	// OptReadLatency minimizes read latency.
	OptReadLatency
	// OptReadEnergy minimizes dynamic read energy.
	OptReadEnergy
	// OptLeakage minimizes standby leakage.
	OptLeakage
)

// String implements fmt.Stringer.
func (t Target) String() string {
	switch t {
	case OptReadEDP:
		return "ReadEDP"
	case OptArea:
		return "Area"
	case OptReadLatency:
		return "ReadLatency"
	case OptReadEnergy:
		return "ReadEnergy"
	case OptLeakage:
		return "Leakage"
	}
	return fmt.Sprintf("Target(%d)", int(t))
}

// Config is one characterization request.
type Config struct {
	Tech envm.Tech
	// BPC is bits per cell.
	BPC int
	// CapacityBits is the usable data capacity in bits.
	CapacityBits int64
	// Target picks the organization from the sweep.
	Target Target
}

// Result is one characterized organization.
type Result struct {
	Tech      string
	BPC       int
	Capacity  int64 // bits
	Banks     int
	Mats      int // mats per bank
	Rows      int // rows per mat
	Cols      int // cols per mat
	DataWidth int // bits per access

	AreaMM2          float64
	ReadLatencyNs    float64
	ReadEnergyPJ     float64 // per access of DataWidth bits
	ReadBandwidthGBs float64
	LeakageMW        float64
	WriteTimeSec     float64 // full-array program time
}

// EDP returns read energy x delay (pJ x ns).
func (r Result) EDP() float64 { return r.ReadEnergyPJ * r.ReadLatencyNs }

// EnergyPerBitPJ returns read energy normalized per data bit.
func (r Result) EnergyPerBitPJ() float64 {
	if r.DataWidth == 0 {
		return 0
	}
	return r.ReadEnergyPJ / float64(r.DataWidth)
}

var bankChoices = []int{1, 2, 4, 8, 16, 32, 64}
var matChoices = []int{1, 2, 4, 8, 16}
var widthChoices = []int{8, 16, 32, 64, 128}

// muxFactor is the column multiplexing degree for sense amps (Section
// 2.3): one sensing stage serves 8 columns.
const muxFactor = 8

// Sweep characterizes every organization of the search space — banks x
// mats x data width, the same for every configuration — in that order.
// An invalid cfg (a technology that fails validation, a bits-per-cell
// setting it does not support, a non-positive capacity) is an error.
func Sweep(cfg Config) ([]Result, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(bankChoices)*len(matChoices)*len(widthChoices))
	for _, banks := range bankChoices {
		for _, mats := range matChoices {
			for _, dw := range widthChoices {
				out = append(out, characterizeOrg(cfg, banks, mats, dw))
			}
		}
	}
	return out, nil
}

// Characterize returns the best organization for the configured target:
// the Sweep point with the lowest figure of merit, the first on a tie. It
// panics on an invalid cfg.
func Characterize(cfg Config) Result {
	points, err := Sweep(cfg)
	if err != nil {
		panic(err)
	}
	best := points[0]
	for _, p := range points[1:] {
		if score(p, cfg.Target) < score(best, cfg.Target) {
			best = p
		}
	}
	return best
}

// score returns r's figure of merit under target t (lower is better).
func score(r Result, t Target) float64 {
	switch t {
	case OptArea:
		return r.AreaMM2
	case OptReadLatency:
		return r.ReadLatencyNs
	case OptReadEnergy:
		return r.ReadEnergyPJ
	case OptLeakage:
		return r.LeakageMW
	default:
		return r.EDP()
	}
}

func validate(cfg Config) error {
	if err := cfg.Tech.Validate(); err != nil {
		return err
	}
	if cfg.BPC < 1 || cfg.BPC > cfg.Tech.MaxBitsPerCell {
		return fmt.Errorf("nvsim: %s does not support %d bpc", cfg.Tech.Name, cfg.BPC)
	}
	if cfg.CapacityBits <= 0 {
		return fmt.Errorf("nvsim: non-positive capacity")
	}
	return nil
}

// Model constants, calibrated against the paper's anchors.
const (
	decoderLatNsPerLog  = 0.04 // row decoder: ns per log2(rows)
	wordlineLatNsPerCol = 2e-4 // wordline RC per column
	bitlineLatNsPerRow  = 2e-4 // bitline RC per row
	mlcSenseFactor      = 0.35 // extra sensing latency per (levels-2)/2
	routeLatNsPerSqrtMM = 0.35 // H-tree global routing
	periphDecoderFrac   = 0.10 // decoder/driver area fraction of mat
	saCellEquiv         = 30.0 // sense amp area in cell equivalents
	routeAreaPerLog     = 0.06 // routing overhead per log2(banks*mats)
	mlcEnergyFactor     = 0.20 // extra read energy per (levels-2)/2
	routeEnergyPJ       = 0.01 // per bit per sqrt(mm2)
	periphLeakMWPerMM2  = 0.05 // periphery leakage density
)

func characterizeOrg(cfg Config, banks, mats, dataWidth int) Result {
	cells := envm.CellsFor(cfg.CapacityBits, cfg.BPC)
	totalMats := int64(banks * mats)
	cellsPerMat := (cells + totalMats - 1) / totalMats
	side := int(math.Ceil(math.Sqrt(float64(cellsPerMat))))
	if side < 8 {
		side = 8
	}
	rows, cols := side, side
	// A mat must deliver the access width from its multiplexed columns.
	if cols/muxFactor < dataWidth/cfg.BPC/banks && cols < dataWidth {
		// Tiny arrays can't sustain wide access; widen cols.
		cols = dataWidth
	}
	levels := 1 << uint(cfg.BPC)

	// --- Area ---
	rawCellArea := cfg.Tech.F2ToMM2(int64(rows) * int64(cols) * totalMats)
	saPerMat := float64(cols) / float64(muxFactor) * float64(levels-1)
	saFrac := saCellEquiv * saPerMat / float64(rows*cols)
	matOverhead := periphDecoderFrac + saFrac
	area := rawCellArea * (1 + matOverhead)
	area *= 1 + routeAreaPerLog*math.Log2(float64(banks*mats))

	// --- Latency ---
	nodeScale := 0.5 + float64(cfg.Tech.NodeNM)/32.0
	tDec := decoderLatNsPerLog * math.Log2(float64(rows))
	tWL := wordlineLatNsPerCol * float64(cols) * nodeScale
	tBL := bitlineLatNsPerRow * float64(rows) * nodeScale
	tSense := cfg.Tech.ReadLatencyNs * (1 + mlcSenseFactor*float64(levels-2)/2)
	tRoute := routeLatNsPerSqrtMM * math.Sqrt(area)
	lat := tDec + tWL + tBL + tSense + tRoute

	// --- Energy (per access of dataWidth bits) ---
	eBits := float64(dataWidth) * cfg.Tech.ReadEnergyPJPerBit *
		(1 + mlcEnergyFactor*float64(levels-2)/2)
	eRoute := routeEnergyPJ * float64(dataWidth) * math.Sqrt(area)
	energy := eBits + eRoute

	// --- Bandwidth: banks stream independently ---
	bytesPerAccess := float64(dataWidth) / 8
	bw := float64(banks) * bytesPerAccess / lat // GB/s (B/ns)

	// --- Leakage ---
	leak := float64(cells)*cfg.Tech.LeakagePWPerCell*1e-9 + periphLeakMWPerMM2*area

	return Result{
		Tech: cfg.Tech.Name, BPC: cfg.BPC, Capacity: cfg.CapacityBits,
		Banks: banks, Mats: mats, Rows: rows, Cols: cols, DataWidth: dataWidth,
		AreaMM2: area, ReadLatencyNs: lat, ReadEnergyPJ: energy,
		ReadBandwidthGBs: bw, LeakageMW: leak,
		WriteTimeSec: cfg.Tech.WriteTimeSeconds(cells, cfg.BPC),
	}
}

// Pareto filters points to the (area, latency, energy) Pareto frontier:
// a point survives if no other point is no worse in all three dimensions
// and strictly better in one.
func Pareto(points []Result) []Result {
	var out []Result
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if q.AreaMM2 <= p.AreaMM2 && q.ReadLatencyNs <= p.ReadLatencyNs &&
				q.ReadEnergyPJ <= p.ReadEnergyPJ &&
				(q.AreaMM2 < p.AreaMM2 || q.ReadLatencyNs < p.ReadLatencyNs ||
					q.ReadEnergyPJ < p.ReadEnergyPJ) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	// A full key, so that points of equal area keep one order whatever
	// the sort algorithm.
	slices.SortFunc(out, func(a, b Result) int {
		return cmp.Or(cmp.Compare(a.AreaMM2, b.AreaMM2), cmp.Compare(a.ReadLatencyNs, b.ReadLatencyNs),
			cmp.Compare(a.ReadEnergyPJ, b.ReadEnergyPJ), cmp.Compare(a.Banks, b.Banks), cmp.Compare(a.Mats, b.Mats))
	})
	return out
}

// MaxCapacityWithinArea returns the largest capacity (in bits, searched
// in 1-Mbit steps via binary search) whose target-optimal characterization
// fits within areaMM2. Returns 0 if even 1 Mbit does not fit.
func MaxCapacityWithinArea(tech envm.Tech, bpc int, target Target, areaMM2 float64) int64 {
	const step = 1 << 20
	lo, hi := int64(0), int64(8)<<33 // up to 8 Gbit
	for lo < hi {
		mid := (lo + hi + 1) / 2
		r := Characterize(Config{Tech: tech, BPC: bpc, CapacityBits: mid * step, Target: target})
		if r.AreaMM2 <= areaMM2 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo * step
}

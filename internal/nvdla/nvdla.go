// Package nvdla models the NVIDIA Deep Learning Accelerator the paper
// uses as its system-level vehicle (Section 3.5): per-layer roofline
// cycle counts (compute vs weight-fetch vs activation-traffic bound),
// energy and average power, for three memory organizations — the
// baseline off-chip DRAM weight store, all-weights-on-chip eNVM
// (Section 5), and a fixed-area hybrid SRAM/eNVM split with DRAM
// overflow (Section 6).
//
// Configuration parameters are the paper's Table 3. The datapath power
// values are back-solved from the paper's reported baseline-versus-eNVM
// power ratios (Figure 9), since Table 3 does not list them.
package nvdla

import (
	"fmt"
	"math"

	"repro/internal/dnn"
	"repro/internal/nvsim"
)

// Config is one NVDLA hardware configuration (Table 3).
type Config struct {
	Name            string
	MACs            int
	SRAMBytes       int64
	FreqGHz         float64
	DatapathAreaMM2 float64
	// DatapathPowerMW is the average active power of the convolution
	// core + fixed DLA components at full utilization.
	DatapathPowerMW float64
	// SRAMBandwidthGBs feeds activations (Table 3).
	SRAMBandwidthGBs float64
	DRAM             nvsim.DRAM
}

// The two evaluated configurations (Table 3).
var (
	NVDLA64 = Config{
		Name: "NVDLA-64", MACs: 64, SRAMBytes: 512 << 10,
		FreqGHz: 1.0, DatapathAreaMM2: 0.55, DatapathPowerMW: 45,
		SRAMBandwidthGBs: 6, DRAM: nvsim.DefaultDRAM64,
	}
	NVDLA1024 = Config{
		Name: "NVDLA-1024", MACs: 1024, SRAMBytes: 2 << 20,
		FreqGHz: 1.0, DatapathAreaMM2: 2.4, DatapathPowerMW: 320,
		SRAMBandwidthGBs: 25, DRAM: nvsim.DefaultDRAM1024,
	}
)

// LayerWork is the workload of one weight layer.
type LayerWork struct {
	Name string
	// MACs is the dense multiply-accumulate count.
	MACs int64
	// WeightBits is the encoded weight traffic fetched for this layer.
	WeightBits int64
	// ActBits is the activation traffic (input + output, 8-bit values).
	ActBits int64
	// WorkingSetBits is the on-chip buffering the layer needs to stream
	// without DRAM round trips: a strip of input rows covering the kernel
	// height plus the corresponding output rows (NVDLA's line-oriented
	// dataflow), not whole feature maps.
	WorkingSetBits int64
	// Utilization is the datapath efficiency for this layer shape.
	Utilization float64
}

// Workload derives per-layer work from a model. compression maps each
// weight layer (by index among weight layers) to its encoded bits; if
// nil, 16-bit dense weights are assumed (the paper's baseline datatype).
func Workload(m *dnn.Model, encodedBits []int64) []LayerWork {
	var out []LayerWork
	wi := 0
	for _, l := range m.Layers {
		if !l.HasWeights() {
			continue
		}
		w := LayerWork{Name: l.Name}
		switch l.Kind {
		case dnn.Conv:
			cs := l.Conv
			w.MACs = int64(cs.OutH()) * int64(cs.OutW()) * int64(cs.OutC) *
				int64(cs.InC) * int64(cs.KH) * int64(cs.KW)
			inBits := int64(cs.InC) * int64(cs.InH) * int64(cs.InW) * 8
			outBits := int64(cs.OutC) * int64(cs.OutH()) * int64(cs.OutW()) * 8
			w.ActBits = inBits + outBits
			// Strip buffering: KH+1 input rows and one output row.
			w.WorkingSetBits = int64(cs.InC)*int64(cs.InW)*int64(cs.KH+1)*8 +
				int64(cs.OutC)*int64(cs.OutW())*8
			w.Utilization = 0.85 // conv layers map well onto the MAC array
		case dnn.FC:
			w.MACs = int64(l.InFeatures) * int64(l.OutFeatures)
			w.ActBits = int64(l.InFeatures+l.OutFeatures) * 8
			w.WorkingSetBits = w.ActBits
			w.Utilization = 0.6 // FC layers underutilize the conv core
		}
		if encodedBits != nil {
			w.WeightBits = encodedBits[wi]
		} else {
			w.WeightBits = int64(l.WeightCount()) * 16
		}
		out = append(out, w)
		wi++
	}
	return out
}

// WeightMemory abstracts where weights are fetched from.
type WeightMemory interface {
	// Label for reports.
	Label() string
	// BandwidthGBs is sustained weight read bandwidth.
	BandwidthGBs() float64
	// LatencyNs is the access latency (pipeline fill per layer).
	LatencyNs() float64
	// EnergyPJPerBit is dynamic fetch energy.
	EnergyPJPerBit() float64
	// StaticPowerMW is the always-on power while the system is active.
	StaticPowerMW() float64
	// AreaMM2 is on-chip area consumed (0 for off-chip DRAM).
	AreaMM2() float64
	// NonVolatile reports whether contents survive power-off.
	NonVolatile() bool
}

// DRAMWeights is the baseline: weights in off-chip LPDDR4.
type DRAMWeights struct{ D nvsim.DRAM }

func (d DRAMWeights) Label() string           { return "LPDDR4-DRAM" }
func (d DRAMWeights) BandwidthGBs() float64   { return d.D.ReadBandwidthGBs }
func (d DRAMWeights) LatencyNs() float64      { return 100 }
func (d DRAMWeights) EnergyPJPerBit() float64 { return d.D.EnergyPJPerBit }
func (d DRAMWeights) StaticPowerMW() float64  { return d.D.PowerMW }
func (d DRAMWeights) AreaMM2() float64        { return 0 }
func (d DRAMWeights) NonVolatile() bool       { return false }

// ENVMWeights wraps a characterized on-chip eNVM array.
type ENVMWeights struct{ R nvsim.Result }

func (e ENVMWeights) Label() string           { return e.R.Tech }
func (e ENVMWeights) BandwidthGBs() float64   { return e.R.ReadBandwidthGBs }
func (e ENVMWeights) LatencyNs() float64      { return e.R.ReadLatencyNs }
func (e ENVMWeights) EnergyPJPerBit() float64 { return e.R.EnergyPerBitPJ() }
func (e ENVMWeights) StaticPowerMW() float64  { return e.R.LeakageMW }
func (e ENVMWeights) AreaMM2() float64        { return e.R.AreaMM2 }
func (e ENVMWeights) NonVolatile() bool       { return true }

// Report is the system-level outcome of running one inference.
type Report struct {
	Config string
	Memory string
	// Cycles to process one frame.
	Cycles float64
	// FPS at the configured frequency.
	FPS float64
	// EnergyUJ is the dynamic + static energy per inference at max rate.
	EnergyUJ float64
	// AvgPowerMW at maximum frame rate.
	AvgPowerMW float64
	// TotalAreaMM2 = datapath + SRAM + on-chip weight memory.
	TotalAreaMM2 float64
	// WeightEnergyUJ isolates the weight-fetch component.
	WeightEnergyUJ float64
}

// Run evaluates one inference of the workload with all weights served by
// mem (Figure 7a/7b organizations).
func Run(cfg Config, work []LayerWork, mem WeightMemory) Report {
	var cycles, weightBits, actBits float64
	for _, lw := range work {
		cycles += layerCycles(cfg, lw, mem.BandwidthGBs(), mem.LatencyNs())
		weightBits += float64(lw.WeightBits)
		actBits += float64(lw.ActBits)
	}
	timeNs := cycles / cfg.FreqGHz

	sram := nvsim.DefaultSRAM
	weightEnergyPJ := weightBits * mem.EnergyPJPerBit()
	actEnergyPJ := actBits * sram.EnergyPJPerBit
	staticMW := mem.StaticPowerMW() + sram.LeakageMW(cfg.SRAMBytes)
	staticPJ := staticMW * timeNs // 1 mW x 1 ns = 1e-12 J = 1 pJ
	datapathPJ := cfg.DatapathPowerMW * timeNs

	totalPJ := weightEnergyPJ + actEnergyPJ + staticPJ + datapathPJ
	return Report{
		Config: cfg.Name, Memory: mem.Label(),
		Cycles:         cycles,
		FPS:            1e9 / timeNs,
		EnergyUJ:       totalPJ * 1e-6,
		WeightEnergyUJ: weightEnergyPJ * 1e-6,
		AvgPowerMW:     totalPJ / timeNs, // pJ / ns = mW
		TotalAreaMM2:   cfg.DatapathAreaMM2 + sram.AreaMM2(cfg.SRAMBytes) + mem.AreaMM2(),
	}
}

// layerCycles applies the double-buffered roofline: the layer takes as
// long as its slowest of compute, weight streaming, and activation
// traffic, plus the weight-pipeline fill.
func layerCycles(cfg Config, lw LayerWork, weightBW, weightLatNs float64) float64 {
	compute := float64(lw.MACs) / (float64(cfg.MACs) * lw.Utilization)
	weightNs := float64(lw.WeightBits) / 8 / weightBW // bytes / (GB/s) = ns
	actNs := float64(lw.ActBits) / 8 / cfg.SRAMBandwidthGBs
	bound := math.Max(compute, math.Max(weightNs*cfg.FreqGHz, actNs*cfg.FreqGHz))
	return bound + weightLatNs*cfg.FreqGHz
}

// EnergyAtFPS returns the average energy per inference when the system
// runs at the given frame rate (Section 5.3, Figure 10). Three operating
// modes:
//
//   - DRAM "always on": static power burns between frames.
//   - DRAM "wake up": the system powers down between frames but pays the
//     weight-reload energy on every wake.
//   - eNVM: non-volatile weights; the system powers down between frames
//     with no reload cost.
type PowerMode int

const (
	AlwaysOn PowerMode = iota
	WakeUp
	NonVolatileSleep
)

func (m PowerMode) String() string {
	switch m {
	case AlwaysOn:
		return "always-on"
	case WakeUp:
		return "wake-up"
	case NonVolatileSleep:
		return "nv-sleep"
	}
	return fmt.Sprintf("PowerMode(%d)", int(m))
}

// EnergyAtFPS computes average energy per inference at the target frame
// rate for the given mode. rep must come from Run with the matching
// memory; rawWeightBits is the total (16-bit dense) weight volume used
// for wake-up reloads.
func EnergyAtFPS(cfg Config, rep Report, mem WeightMemory, rawWeightBits int64, fps float64, mode PowerMode) float64 {
	activeUJ := rep.EnergyUJ
	framePeriodNs := 1e9 / fps
	activeNs := rep.Cycles / cfg.FreqGHz
	idleNs := framePeriodNs - activeNs
	if idleNs < 0 {
		idleNs = 0 // system cannot keep up; energy/inference is the active cost
	}
	switch mode {
	case AlwaysOn:
		idleMW := mem.StaticPowerMW() + nvsim.DefaultSRAM.LeakageMW(cfg.SRAMBytes)
		return activeUJ + idleMW*idleNs*1e-6
	case WakeUp:
		wakePJ := float64(rawWeightBits) * cfg.DRAM.WakeEnergyPJPerBit
		return activeUJ + wakePJ*1e-6
	case NonVolatileSleep:
		// Non-volatile weights: nothing to reload and nothing to retain.
		return activeUJ
	}
	panic("nvdla: unknown power mode")
}

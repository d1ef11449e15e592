package nvsim

import "math"

// SRAM is the on-chip SRAM reference model used for NVDLA's intermediate
// buffers and the hybrid-memory study (Section 6). Constants reflect a
// modern (16nm-class) node where ~1 MB of SRAM occupies ~1 mm²
// (Section 5.1 equates the paper's 1-2 mm² eNVM macros with "1-2 MB of
// SRAM in modern process nodes").
type SRAM struct {
	// DensityMBPerMM2 is usable capacity per area.
	DensityMBPerMM2 float64
	// ReadLatencyNs is the access latency for a ~1 mm² macro.
	ReadLatencyNs float64
	// EnergyPJPerBit is dynamic access energy.
	EnergyPJPerBit float64
	// LeakageMWPerMB is standby leakage (SRAM's key disadvantage versus
	// the non-volatile technologies).
	LeakageMWPerMB float64
}

// DefaultSRAM is the 16nm-class reference.
var DefaultSRAM = SRAM{
	DensityMBPerMM2: 1.0,
	ReadLatencyNs:   1.0,
	EnergyPJPerBit:  0.12,
	LeakageMWPerMB:  8.0,
}

// AreaMM2 returns the macro area for the given capacity in bytes.
func (s SRAM) AreaMM2(capacityBytes int64) float64 {
	return float64(capacityBytes) / 1e6 / s.DensityMBPerMM2
}

// CapacityBytes returns the capacity fitting in the given area.
func (s SRAM) CapacityBytes(areaMM2 float64) int64 {
	return int64(areaMM2 * s.DensityMBPerMM2 * 1e6)
}

// LeakageMW returns standby leakage for the given capacity in bytes.
func (s SRAM) LeakageMW(capacityBytes int64) float64 {
	return float64(capacityBytes) / 1e6 * s.LeakageMWPerMB
}

// BandwidthGBs returns sustainable read bandwidth for a macro of the
// given capacity: wider macros stripe across more banks. Calibrated to
// Table 3's 6 GB/s (512 KB) and 25 GB/s (2 MB) NVDLA SRAM figures.
func (s SRAM) BandwidthGBs(capacityBytes int64) float64 {
	mb := float64(capacityBytes) / 1e6
	if mb <= 0 {
		return 0
	}
	return 6 * math.Sqrt(mb/0.512) * math.Sqrt(mb/0.512)
}

// DRAM is the off-chip LPDDR4 reference (Table 3): the baseline weight
// store the paper eliminates.
type DRAM struct {
	// ReadBandwidthGBs is sustained read bandwidth.
	ReadBandwidthGBs float64
	// PowerMW is the interface+device power while active/idle (the paper
	// uses 100 mW for NVDLA-64 and 200 mW for NVDLA-1024 at 1 GHz).
	PowerMW float64
	// EnergyPJPerBit is the end-to-end access energy.
	EnergyPJPerBit float64
	// WakeEnergyPJPerBit is the energy to reload one bit of weights from
	// main storage into DRAM on wake-up.
	WakeEnergyPJPerBit float64
}

// DefaultDRAM64 and DefaultDRAM1024 match the Table 3 baselines.
var (
	DefaultDRAM64   = DRAM{ReadBandwidthGBs: 25, PowerMW: 100, EnergyPJPerBit: 15, WakeEnergyPJPerBit: 30}
	DefaultDRAM1024 = DRAM{ReadBandwidthGBs: 25, PowerMW: 200, EnergyPJPerBit: 15, WakeEnergyPJPerBit: 30}
)

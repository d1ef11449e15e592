package envm

import (
	"math"

	"repro/internal/stats"
)

// Iterative program-and-verify simulation (Section 2.2: "CTTs are
// programmed by iteratively injecting increments of charge and reading
// until a desired shift is achieved"). Each pulse adds a stochastic
// increment; programming stops once the cell reads at or above its
// target level. The achieved distribution is one-sided (overshoot only),
// which is why programmed levels in Figure 2b are tighter than the
// unprogrammed distribution — and why tighter levels cost more pulses,
// i.e. longer writes.

// ProgramModel parameterizes the pulse process.
type ProgramModel struct {
	// PulseMean is the mean level shift per pulse, in window units.
	PulseMean float64
	// PulseSigma is the per-pulse shift randomness.
	PulseSigma float64
	// VerifyNoise is the read noise during verify, in window units.
	VerifyNoise float64
}

// DefaultProgram approximates the CTT chip's write process.
var DefaultProgram = ProgramModel{PulseMean: 0.02, PulseSigma: 0.006, VerifyNoise: 0.004}

// ProgramStats summarizes a Monte-Carlo programming campaign.
type ProgramStats struct {
	// MeanPulses is the average pulses needed per cell.
	MeanPulses float64
	// AchievedSigma is the standard deviation of the final stored values
	// around their mean (the device-level sigma the fault model consumes).
	AchievedSigma float64
}

// SimulateProgramming programs `cells` virtual cells from 0 to target
// (window units) and reports the resulting distribution tightness and
// pulse count.
func (pm ProgramModel) SimulateProgramming(target float64, cells int, src *stats.Source) ProgramStats {
	if cells < 1 {
		panic("envm: SimulateProgramming needs cells >= 1")
	}
	var pulseSum float64
	finals := make([]float64, cells)
	for c := 0; c < cells; c++ {
		level := 0.0
		pulses := 0
		for {
			// Verify: does the cell read at/above target?
			read := level + src.Gaussian(0, pm.VerifyNoise)
			if read >= target {
				break
			}
			step := src.Gaussian(pm.PulseMean, pm.PulseSigma)
			if step < 0 {
				step = 0
			}
			level += step
			pulses++
			if pulses > 10000 {
				break // degenerate parameters; avoid livelock
			}
		}
		finals[c] = level
		pulseSum += float64(pulses)
	}
	s := stats.Summarize(finals)
	return ProgramStats{
		MeanPulses:    pulseSum / float64(cells),
		AchievedSigma: s.Std,
	}
}

// WritePrecisionTradeoff sweeps the pulse size and reports the classic
// write-time/reliability trade: smaller pulses take longer but land
// tighter distributions (enabling more levels per cell).
type PrecisionPoint struct {
	PulseMean     float64
	MeanPulses    float64
	AchievedSigma float64
}

// WritePrecisionTradeoff evaluates the model at several pulse sizes.
func WritePrecisionTradeoff(base ProgramModel, target float64, cells int, pulseMeans []float64, seed uint64) []PrecisionPoint {
	src := stats.NewSource(seed)
	out := make([]PrecisionPoint, 0, len(pulseMeans))
	for _, p := range pulseMeans {
		m := base
		m.PulseMean = p
		m.PulseSigma = base.PulseSigma * p / base.PulseMean // proportional randomness
		st := m.SimulateProgramming(target, cells, src.Fork(uint64(math.Float64bits(p))))
		out = append(out, PrecisionPoint{PulseMean: p, MeanPulses: st.MeanPulses, AchievedSigma: st.AchievedSigma})
	}
	return out
}

// Retention drift (Section 2.2: CTT retains state in the threshold
// voltage "with high retention"; real devices still drift slowly). Drift
// widens every level distribution with time, raising fault rates — the
// quantitative form of the paper's retention remarks.

// DriftSigmaPerSqrtYear is the default drift coefficient (window units):
// level sigma grows as sqrt(years), the standard charge-loss model.
const DriftSigmaPerSqrtYear = 0.004

// LevelsAfter returns the level model after `years` of retention drift.
// Like Levels, an out-of-range bpc is reported as an error.
func (t Tech) LevelsAfter(bpc int, years float64) (LevelModel, error) {
	lm, err := t.Levels(bpc)
	if err != nil {
		return LevelModel{}, err
	}
	if years <= 0 {
		return lm, nil
	}
	drift := DriftSigmaPerSqrtYear * math.Sqrt(years)
	out := LevelModel{
		Levels:     make([]stats.Gaussian, len(lm.Levels)),
		Thresholds: append([]float64(nil), lm.Thresholds...),
	}
	for i, g := range lm.Levels {
		out.Levels[i] = stats.Gaussian{
			Mean:  g.Mean,
			Sigma: math.Sqrt(g.Sigma*g.Sigma + drift*drift),
		}
	}
	return out, nil
}

// RetentionFaultRate returns the worst adjacent misread probability after
// the given retention time. It requires a valid bpc (see Levels); use it
// only after StoreConfig.Validate or equivalent has checked the range.
func (t Tech) RetentionFaultRate(bpc int, years float64) float64 {
	lm, err := t.LevelsAfter(bpc, years)
	if err != nil {
		panic(err)
	}
	return lm.WorstAdjacentFault()
}

package envm

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// LevelModel describes the read-current distributions of an MLC
// configuration: one Gaussian per programmed level over a normalized
// current window [0, 1], plus the maximum-likelihood sensing thresholds
// between adjacent levels.
type LevelModel struct {
	// Levels holds the per-level distributions, ascending by mean.
	Levels []stats.Gaussian
	// Thresholds[i] separates level i from level i+1 (len = levels-1).
	Thresholds []float64
}

// NumLevels returns the number of programmed levels.
func (lm LevelModel) NumLevels() int { return len(lm.Levels) }

// Levels constructs the level model for this technology at the given
// bits-per-cell. Level means are spaced uniformly across the window
// (with a widened guard band below level 1 when SeparateLevel0 is set,
// mirroring the CTT chip's separation of the unprogrammed state), and
// sigmas are calibrated so that the worst adjacent-level misread
// probability at MLC3 equals MLC3FaultRate. The same device sigma is
// reused at lower bits-per-cell, where wider spacing drives fault rates
// down by many orders of magnitude — the physical effect the paper's
// density/reliability trade-off rests on.
//
// Bits-per-cell outside [1, 4] is reported as an error: bpc flows in
// from CLI flags and sweep configurations, and callers must be able to
// reject a bad value instead of crashing a whole campaign.
func (t Tech) Levels(bpc int) (LevelModel, error) {
	if bpc < 1 || bpc > 4 {
		return LevelModel{}, fmt.Errorf("envm: bits per cell %d out of range [1, 4]", bpc)
	}
	sigma := t.deviceSigma()
	return t.levelsWithSigma(bpc, sigma), nil
}

// deviceSigma calibrates the programmed-level sigma at MLC3 against
// MLC3FaultRate. Because level-0 may be wider and guard-banded, the
// relation fault = Q(d/2sigma) is only approximate; a short fixed-point
// iteration converges to <0.1% error.
func (t Tech) deviceSigma() float64 {
	// Initial guess from uniform spacing.
	d := 1.0 / 7.0 // MLC3: 8 levels
	sigma := d / (2 * stats.InvQ(t.MLC3FaultRate))
	for iter := 0; iter < 20; iter++ {
		lm := t.levelsWithSigma(3, sigma)
		worst := lm.WorstAdjacentFault()
		if worst <= 0 {
			break
		}
		ratio := stats.InvQ(worst) / stats.InvQ(t.MLC3FaultRate)
		if math.Abs(ratio-1) < 1e-3 {
			break
		}
		sigma *= ratio
	}
	return sigma
}

// levelsWithSigma builds the geometry for bpc bits with the given
// programmed-level sigma.
func (t Tech) levelsWithSigma(bpc int, sigma float64) LevelModel {
	n := 1 << uint(bpc)
	lm := LevelModel{Levels: make([]stats.Gaussian, n)}
	s0 := sigma
	if t.Level0SigmaFactor > 0 {
		s0 = sigma * t.Level0SigmaFactor
	}
	if n == 1 {
		lm.Levels[0] = stats.Gaussian{Mean: 0, Sigma: s0}
		return lm
	}
	guard := 0.0
	if t.SeparateLevel0 && n > 2 {
		// Extra spacing between the unprogrammed level and level 1,
		// proportional to the additional width of level 0.
		guard = (s0 - sigma) * 2
	}
	// Level 0 at 0; levels 1..n-1 uniformly over [guardEdge, 1].
	lm.Levels[0] = stats.Gaussian{Mean: 0, Sigma: s0}
	base := 1.0/float64(n-1) + guard
	if base > 0.9 {
		base = 0.9
	}
	for i := 1; i < n; i++ {
		mean := base + (1-base)*float64(i-1)/math.Max(1, float64(n-2))
		if n == 2 {
			mean = 1
		}
		lm.Levels[i] = stats.Gaussian{Mean: mean, Sigma: sigma}
	}
	lm.Thresholds = make([]float64, n-1)
	for i := 0; i < n-1; i++ {
		lm.Thresholds[i] = stats.MidpointThreshold(lm.Levels[i], lm.Levels[i+1])
	}
	return lm
}

// GuardBandAblation quantifies the Section 2.2.1 design choice of
// separating the unprogrammed level: at *equal device sigma* (no
// recalibration), it returns the probability of misreading the
// unprogrammed level as level 1 with and without the guard band.
func GuardBandAblation(t Tech) (withGuard, withoutGuard float64) {
	sigma := t.deviceSigma()
	guarded := t
	guarded.SeparateLevel0 = true
	bare := t
	bare.SeparateLevel0 = false
	withGuard = guarded.levelsWithSigma(3, sigma).FaultMap().PUp[0]
	withoutGuard = bare.levelsWithSigma(3, sigma).FaultMap().PUp[0]
	return withGuard, withoutGuard
}

// FaultMap holds, per level, the probability of misreading it as the
// adjacent level below (PDown) or above (PUp). Non-adjacent misreads are
// below 1.5e-10 in the paper's characterization and are neglected, as the
// paper does (footnote 1).
type FaultMap struct {
	PDown, PUp []float64
}

// NumLevels returns the number of levels covered.
func (fm FaultMap) NumLevels() int { return len(fm.PUp) }

// MaxRate returns the worst single-direction misread probability.
func (fm FaultMap) MaxRate() float64 {
	worst := 0.0
	for i := range fm.PUp {
		if fm.PUp[i] > worst {
			worst = fm.PUp[i]
		}
		if fm.PDown[i] > worst {
			worst = fm.PDown[i]
		}
	}
	return worst
}

// TotalRate returns the average probability that a uniformly random
// stored level is misread.
func (fm FaultMap) TotalRate() float64 {
	var sum float64
	for i := range fm.PUp {
		sum += fm.PUp[i] + fm.PDown[i]
	}
	return sum / float64(len(fm.PUp))
}

// FaultMap derives per-level misread probabilities from the level
// distributions and thresholds.
func (lm LevelModel) FaultMap() FaultMap {
	n := lm.NumLevels()
	fm := FaultMap{PDown: make([]float64, n), PUp: make([]float64, n)}
	for i := 0; i < n; i++ {
		tLo, tHi := math.Inf(-1), math.Inf(1)
		if i > 0 {
			tLo = lm.Thresholds[i-1]
		}
		if i < n-1 {
			tHi = lm.Thresholds[i]
		}
		fm.PDown[i], fm.PUp[i] = stats.OverlapFaultProb(lm.Levels[i], tLo, tHi)
	}
	return fm
}

// WorstAdjacentFault returns the maximum single-direction misread
// probability across levels.
func (lm LevelModel) WorstAdjacentFault() float64 {
	return lm.FaultMap().MaxRate()
}

// SenseAmp models the sense amplifier of Section 2.3: a current-mode
// latch whose input-referred offset is dominated by the input
// differential pair; offset sigma scales as 1/sqrt(W/Wmin).
type SenseAmp struct {
	// OffsetSigmaAtMinWidth is the input-referred offset sigma (in
	// normalized window units) at the minimum transistor width.
	OffsetSigmaAtMinWidth float64
	// WidthScale is the chosen W/Wmin (larger = less offset, more area).
	WidthScale float64
}

// DefaultSenseAmp is the design point chosen in the paper: input pair
// sized (Monte-Carlo style 1/sqrt(W) offset scaling) so the inherent
// inter-level fault rates of every evaluated MLC technology are altered
// by less than 2x while the array overhead stays below 1%.
var DefaultSenseAmp = SenseAmp{OffsetSigmaAtMinWidth: 0.02, WidthScale: 25}

// OffsetSigma returns the effective offset sigma at the configured width.
func (sa SenseAmp) OffsetSigma() float64 {
	if sa.WidthScale <= 0 {
		return sa.OffsetSigmaAtMinWidth
	}
	return sa.OffsetSigmaAtMinWidth / math.Sqrt(sa.WidthScale)
}

// Apply widens every level distribution with the sense-amp offset
// (variances add: the offset shifts each comparison's effective
// threshold, equivalent to extra read noise).
func (sa SenseAmp) Apply(lm LevelModel) LevelModel {
	off := sa.OffsetSigma()
	out := LevelModel{
		Levels:     make([]stats.Gaussian, len(lm.Levels)),
		Thresholds: append([]float64(nil), lm.Thresholds...),
	}
	for i, g := range lm.Levels {
		out.Levels[i] = stats.Gaussian{
			Mean:  g.Mean,
			Sigma: math.Sqrt(g.Sigma*g.Sigma + off*off),
		}
	}
	return out
}

// FaultAlteration returns the ratio of worst-case fault rates with and
// without this sense amp applied to lm (the paper's <2x design
// constraint).
func (sa SenseAmp) FaultAlteration(lm LevelModel) float64 {
	before := lm.WorstAdjacentFault()
	after := sa.Apply(lm).WorstAdjacentFault()
	if before == 0 {
		return 1
	}
	return after / before
}

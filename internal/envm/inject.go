package envm

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/bitstream"
	"repro/internal/ecc"
	"repro/internal/stats"
)

// StoreConfig says how a bit stream is held in eNVM cells: which
// technology, how many bits per cell, whether the level mapping is
// Gray-coded (required for ECC so an adjacent-level fault is a single bit
// flip), and how long the cells have aged. Reads go through the paper's
// sense-amp design point, DefaultSenseAmp.
type StoreConfig struct {
	Tech Tech
	// BPC is bits per cell (1..Tech.MaxBitsPerCell).
	BPC int
	// Gray selects Gray-coded level mapping.
	Gray bool
	// RetentionYears ages the stored levels with drift before deriving
	// fault rates (0 = freshly programmed). Lets the explorer require a
	// configuration to stay within the accuracy bound over a deployment
	// lifetime, not just at write time.
	RetentionYears float64
}

// Validate checks the configuration.
func (c StoreConfig) Validate() error {
	if err := c.Tech.Validate(); err != nil {
		return err
	}
	if c.BPC < 1 || c.BPC > c.Tech.MaxBitsPerCell {
		return fmt.Errorf("envm: %s does not support %d bits per cell (max %d)",
			c.Tech.Name, c.BPC, c.Tech.MaxBitsPerCell)
	}
	return nil
}

// faultMapCache memoizes derived fault maps: deriving one runs the
// iterative sigma calibration, and design-space enumeration calls
// FaultMap millions of times with a handful of distinct configurations.
// Tech is a comparable value type, so the key covers custom technologies
// too. Cached maps are shared; callers must treat them as read-only.
var faultMapCache sync.Map // faultMapKey -> FaultMap

type faultMapKey struct {
	tech  Tech
	bpc   int
	years float64
}

// FaultMap returns the effective per-level misread probabilities for
// this configuration: Gaussian level overlap widened by DefaultSenseAmp,
// clamped from below by the technology's retention/defect floor on every
// physically possible transition. The result is memoized per
// configuration and must be treated as read-only.
//
// FaultMap panics on an out-of-range BPC: the config must have passed
// Validate before reaching here, so a failure is a programmer error,
// not a recoverable input condition.
func (c StoreConfig) FaultMap() FaultMap {
	key := faultMapKey{tech: c.Tech, bpc: c.BPC, years: c.RetentionYears}
	if v, ok := faultMapCache.Load(key); ok {
		return v.(FaultMap)
	}
	raw, err := c.Tech.LevelsAfter(c.BPC, c.RetentionYears)
	if err != nil {
		panic(err)
	}
	lm := DefaultSenseAmp.Apply(raw)
	fm := lm.FaultMap()
	floor := c.Tech.RetentionFloor(c.BPC)
	n := fm.NumLevels()
	for l := 0; l < n; l++ {
		if l > 0 && fm.PDown[l] < floor {
			fm.PDown[l] = floor
		}
		if l < n-1 && fm.PUp[l] < floor {
			fm.PUp[l] = floor
		}
	}
	faultMapCache.Store(key, fm)
	return fm
}

// CellsFor returns the number of cells needed to store bits at bpc bits
// per cell.
func CellsFor(bits int64, bpc int) int64 {
	if bpc < 1 {
		panic("envm: bpc < 1")
	}
	return (bits + int64(bpc) - 1) / int64(bpc)
}

// InjectArray samples read faults for every cell of the array and applies
// them in place, returning the number of faulted cells. Each group of BPC
// bits is one cell; the stored level is the symbol value (binary mapping)
// or its Gray-decode (Gray mapping). A fault moves the level to an
// adjacent one with the configured probability, exactly the paper's
// fault-injection procedure (Section 4.1).
//
// The scan uses geometric skip-sampling (thinning against the worst-case
// per-level rate), so injection cost scales with the number of *faults*,
// not the number of cells — essential for ImageNet-scale streams at
// sub-1e-6 fault rates.
func InjectArray(a *bitstream.Array, cfg StoreConfig, src *stats.Source) int {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	fm := cfg.FaultMap()
	nLevels := fm.NumLevels()
	// Per-level total fault probability and the thinning bound.
	pTot := make([]float64, nLevels)
	pMax := 0.0
	for l := 0; l < nLevels; l++ {
		pTot[l] = fm.PUp[l] + fm.PDown[l]
		if pTot[l] > pMax {
			pMax = pTot[l]
		}
	}
	nCells := int(CellsFor(int64(a.Len()), cfg.BPC))
	met.injectCalls.Inc()
	met.injectCells.Add(int64(nCells))
	// Below ~1e-18 per cell, the expected fault count over any physically
	// meaningful array is zero; skip the scan entirely (this is the SLC
	// regime).
	if pMax*float64(nCells) < 1e-9 {
		return 0
	}
	faults := 0
	candidates := int64(0)
	logq := math.Log1p(-pMax)
	i := 0
	for {
		// Geometric gap to the next candidate cell.
		u := src.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		if pMax < 1 {
			fgap := math.Log(u) / logq
			if fgap >= float64(nCells-i) {
				break
			}
			i += int(fgap)
		}
		if i >= nCells {
			break
		}
		candidates++
		sym := a.GetBits(i*cfg.BPC, cfg.BPC)
		level := sym
		if cfg.Gray {
			level = ecc.GrayInv(sym)
		}
		if level < uint64(nLevels) && src.Float64()*pMax < pTot[level] {
			// Fault: choose direction proportionally.
			newLevel := level
			if src.Float64()*pTot[level] < fm.PUp[level] {
				newLevel = level + 1
			} else {
				newLevel = level - 1
			}
			out := newLevel
			if cfg.Gray {
				out = ecc.Gray(newLevel)
			}
			a.SetBits(i*cfg.BPC, cfg.BPC, out)
			faults++
		}
		i++
	}
	met.injectCandidates.Add(candidates)
	met.injectFaults.Add(int64(faults))
	return faults
}

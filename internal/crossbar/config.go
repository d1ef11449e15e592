// Package crossbar models compute-in-memory inference on eNVM crossbar
// arrays: weights map to differential conductance pairs on fixed-size
// tiles, matrix-vector products accumulate along bitlines in the analog
// domain, and per-column ADCs quantize the partial sums. Device
// non-idealities — programming variation sampled from the envm level
// model, stuck-at-G_on/G_off cells, and stuck column drivers — perturb
// the *computation*, not just stored bits, which is the failure mode
// the storage-oriented fault pipeline (internal/ares RunTrialChecked) cannot
// express.
//
// The package also implements the online tolerance loop from the
// reliability literature: reference-column detection compares each
// column's analog probe response against its digital reference sum,
// a remap scrubber relocates flagged columns to per-tile spares
// (rewriting from the pristine weights and spending endurance), and a
// graceful-degradation path zeroes columns that cannot be repaired
// instead of aborting the trial. internal/mitigate plans the policy
// (threshold, budgets) against the deployment's endurance machinery;
// internal/ares drives trials through it (EvalTrialCrossbar).
package crossbar

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/envm"
)

// Config describes one crossbar design point plus its fault environment
// and online-tolerance policy. The zero value of each knob keeps the
// corresponding mechanism off (no variation, no faults, ideal ADC, no
// detection), so Config{Rows: 64, Cols: 64} is an ideal crossbar whose
// trials reproduce the dense digital forward pass bit for bit.
type Config struct {
	// Rows and Cols are the tile dimensions: Rows wordlines (inputs)
	// by Cols differential column pairs (outputs) per tile. A layer's
	// weight matrix is cut into ceil(In/Rows) x ceil(Out/Cols) tiles.
	Rows, Cols int
	// BPC is the write-DAC resolution in bits per device: target
	// conductances snap to the 2^BPC programmed levels of the envm
	// level model for the campaign's technology. 0 models an ideal
	// analog write (no target quantization) — the parity configuration.
	BPC int
	// VarSigma is the per-device programming-variation sigma in
	// normalized conductance-window units. 0 disables variation; use
	// DeriveSigma to take the technology's calibrated level sigma.
	VarSigma float64
	// StuckRate is the per-device stuck-at probability (each weight is
	// two devices). A stuck device's conductance pins to G_on or G_off
	// regardless of the programmed target.
	StuckRate float64
	// StuckColRate is the per-column stuck-driver probability: the
	// whole positive or negative line of one (row-tile, output) column
	// pins to G_on or G_off. This is the column-granular fault class
	// the online detector is built to catch.
	StuckColRate float64
	// StuckOnFrac is the fraction of stuck faults pinned at G_on (the
	// damaging direction); the rest pin at G_off. 0 means the default
	// 0.5.
	StuckOnFrac float64
	// ADCBits is the per-column ADC resolution; 0 disables ADC
	// quantization entirely (ideal readout — the parity configuration).
	ADCBits int
	// ADCHeadroom scales the per-column ADC full-scale range, which is
	// calibrated to the pristine column's L1 weight norm per tile.
	// 0 means the default 1.0.
	ADCHeadroom float64
	// SpareCols is the number of spare column pairs per tile available
	// to the remap scrubber.
	SpareCols int
	// DetectSigma is the online-detection threshold in multiples of
	// the expected probe-deviation sigma (VarSigma * wmax *
	// sqrt(2*rows)); a column whose probe deviation exceeds it is
	// flagged for remap. 0 disables online tolerance entirely.
	DetectSigma float64
	// MaxRemaps caps column rewrites per trial (the per-scrub-epoch
	// endurance budget; see mitigate.PlanOnline). 0 means unlimited.
	MaxRemaps int
}

// withDefaults resolves the zero-value knobs that mean "default"
// rather than "off".
func (c Config) withDefaults() Config {
	if c.StuckOnFrac == 0 {
		c.StuckOnFrac = 0.5
	}
	if c.ADCHeadroom == 0 {
		c.ADCHeadroom = 1
	}
	return c
}

// Validate rejects non-physical configurations. Rates and sigmas must
// be finite and non-negative; NaN is always a bug in the caller, never
// a request for a default.
func (c Config) Validate() error {
	if c.Rows < 1 || c.Cols < 1 {
		return fmt.Errorf("crossbar: tile %dx%d must have positive dimensions", c.Rows, c.Cols)
	}
	if c.BPC < 0 || c.BPC > 4 {
		return fmt.Errorf("crossbar: write DAC bits %d out of range [0, 4]", c.BPC)
	}
	if c.ADCBits < 0 || c.ADCBits > 16 {
		return fmt.Errorf("crossbar: ADC bits %d out of range [0, 16]", c.ADCBits)
	}
	if c.SpareCols < 0 {
		return fmt.Errorf("crossbar: negative spare columns %d", c.SpareCols)
	}
	if c.MaxRemaps < 0 {
		return fmt.Errorf("crossbar: negative remap budget %d", c.MaxRemaps)
	}
	for _, f := range []struct {
		name     string
		v        float64
		isRate   bool
		nonZeroP bool
	}{
		{"VarSigma", c.VarSigma, false, false},
		{"StuckRate", c.StuckRate, true, false},
		{"StuckColRate", c.StuckColRate, true, false},
		{"StuckOnFrac", c.StuckOnFrac, true, false},
		{"ADCHeadroom", c.ADCHeadroom, false, false},
		{"DetectSigma", c.DetectSigma, false, false},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("crossbar: %s %v must be finite", f.name, f.v)
		}
		if f.v < 0 {
			return fmt.Errorf("crossbar: %s %v must not be negative", f.name, f.v)
		}
		if f.isRate && f.v > 1 {
			return fmt.Errorf("crossbar: %s %v outside [0, 1]", f.name, f.v)
		}
	}
	return nil
}

// String renders the configuration compactly and deterministically:
// the tile dimensions always, every other knob only when set, so the
// string doubles as a cache key and as part of the campaign config ID
// (checkpoint resume must match across processes).
func (c Config) String() string {
	s := fmt.Sprintf("%dx%d", c.Rows, c.Cols)
	if c.BPC > 0 {
		s += fmt.Sprintf(",b%d", c.BPC)
	}
	if c.VarSigma > 0 {
		s += fmt.Sprintf(",s%.4g", c.VarSigma)
	}
	if c.StuckRate > 0 {
		s += fmt.Sprintf(",f%.4g", c.StuckRate)
	}
	if c.StuckColRate > 0 {
		s += fmt.Sprintf(",cf%.4g", c.StuckColRate)
	}
	if c.StuckOnFrac != 0 && c.StuckOnFrac != 0.5 {
		s += fmt.Sprintf(",on%.4g", c.StuckOnFrac)
	}
	if c.ADCBits > 0 {
		s += fmt.Sprintf(",adc%d", c.ADCBits)
		if c.ADCHeadroom != 0 && c.ADCHeadroom != 1 {
			s += fmt.Sprintf(",hr%.4g", c.ADCHeadroom)
		}
	}
	if c.SpareCols > 0 {
		s += fmt.Sprintf(",sp%d", c.SpareCols)
	}
	if c.DetectSigma > 0 {
		s += fmt.Sprintf(",d%.4g", c.DetectSigma)
		if c.MaxRemaps > 0 {
			s += fmt.Sprintf(",r%d", c.MaxRemaps)
		}
	}
	return s
}

// MapKey identifies the pristine mapping and baseline this config
// induces: tile geometry, write-DAC resolution, and ADC design. Fault
// rates and the online policy vary per campaign config but share one
// mapped baseline, so the ares evaluator caches per MapKey.
func (c Config) MapKey() string {
	c = c.withDefaults()
	return Config{Rows: c.Rows, Cols: c.Cols, BPC: c.BPC,
		ADCBits: c.ADCBits, ADCHeadroom: c.ADCHeadroom}.String()
}

// Online reports whether the online tolerance loop (detect -> remap ->
// degrade) runs during trials.
func (c Config) Online() bool { return c.DetectSigma > 0 }

// DeriveSigma returns the technology's calibrated programmed-level
// sigma — the per-device conductance variation a crossbar built from
// that technology inherits. The level model's programmed sigma is the
// same at every bits-per-cell (spacing changes, device physics does
// not), so the 1-bit model suffices.
func DeriveSigma(t envm.Tech) (float64, error) {
	lm, err := t.Levels(1)
	if err != nil {
		return 0, err
	}
	return lm.Levels[len(lm.Levels)-1].Sigma, nil
}

// dacGrid returns the write-DAC target grid for the config's BPC on
// the given technology: the programmed-level means of the envm level
// model, ascending over the normalized conductance window. nil when
// BPC is 0 (ideal analog write).
func (c Config) dacGrid(t envm.Tech) ([]float64, error) {
	if c.BPC == 0 {
		return nil, nil
	}
	lm, err := t.Levels(c.BPC)
	if err != nil {
		return nil, err
	}
	grid := make([]float64, len(lm.Levels))
	for i, g := range lm.Levels {
		grid[i] = g.Mean
	}
	return grid, nil
}

// LoadConfig reads one crossbar/ADC definition from JSON and validates
// it strictly: unknown fields, non-finite numbers, non-positive tile
// dimensions, and a zero-bit ADC are all rejected. A JSON definition
// describes physical hardware, so the programmatic "ideal" sentinels
// (ADCBits 0) are not accepted here — an ADC with no bits is a broken
// sketch, not a request for the ideal readout.
func LoadConfig(r io.Reader) (Config, error) {
	var c Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("crossbar: parsing config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	if c.ADCBits < 1 {
		return Config{}, fmt.Errorf("crossbar: ADC bits %d must be at least 1 in a hardware definition", c.ADCBits)
	}
	return c, nil
}

package cliutil

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/crossbar"
	"repro/internal/envm"
)

// XbarFlags is faultsim's crossbar compute-in-memory flag group
// (-crossbar and its tile, ADC and fault knobs). The -tile flag takes a
// comma-separated list of ROWSxCOLS tile sizes; each size becomes its
// own design point (one campaign config per size).
type XbarFlags struct {
	// Enabled is the -crossbar switch.
	Enabled      *bool
	tiles        *string
	adcBits      *int
	spareCols    *int
	varSigma     *float64
	stuckRate    *float64
	stuckColRate *float64
	detectSigma  *float64
}

// AddXbarFlags registers the crossbar flag group on the default
// FlagSet. Call before flag.Parse.
func AddXbarFlags() *XbarFlags {
	return &XbarFlags{
		Enabled:      flag.Bool("crossbar", false, "map weights to crossbar compute-in-memory arrays (differential conductance pairs, analog column sums) instead of a stored-bit encoding"),
		tiles:        flag.String("tile", "64x32", "comma-separated crossbar tile sizes as ROWSxCOLS; each size is its own design point"),
		adcBits:      flag.Int("adc-bits", 0, "per-column ADC resolution in bits (0 = ideal readout)"),
		spareCols:    flag.Int("spare-cols", 4, "spare columns per tile for online remapping"),
		varSigma:     flag.Float64("var-sigma", -1, "programming-variation sigma as a fraction of the conductance window (negative = derive from the tech's level model)"),
		stuckRate:    flag.Float64("stuck-rate", 1e-4, "per-device stuck-at fault rate"),
		stuckColRate: flag.Float64("stuck-col-rate", 0.01, "per-column driver stuck-at rate"),
		detectSigma:  flag.Float64("detect-sigma", 0, "online detection threshold in sigmas (0 = size it with the mitigation planner)"),
	}
}

// Planned reports whether the detection threshold should come from the
// online planner (mitigate.PlanOnline) rather than -detect-sigma.
func (x *XbarFlags) Planned() bool { return *x.detectSigma == 0 }

// Configs builds one validated crossbar config per -tile entry,
// deriving the variation sigma from tech's level model when -var-sigma
// is negative.
func (x *XbarFlags) Configs(tech envm.Tech) ([]crossbar.Config, error) {
	sigma := *x.varSigma
	if sigma < 0 {
		var err error
		sigma, err = crossbar.DeriveSigma(tech)
		if err != nil {
			return nil, err
		}
	}
	parts := strings.Split(*x.tiles, ",")
	out := make([]crossbar.Config, 0, len(parts))
	for _, t := range parts {
		t = strings.TrimSpace(t)
		if t == "" {
			continue
		}
		rows, cols, err := ParseTile(t)
		if err != nil {
			return nil, err
		}
		c := crossbar.Config{
			Rows: rows, Cols: cols,
			VarSigma:     sigma,
			StuckRate:    *x.stuckRate,
			StuckColRate: *x.stuckColRate,
			ADCBits:      *x.adcBits,
			SpareCols:    *x.spareCols,
			DetectSigma:  *x.detectSigma,
		}
		if err := c.Validate(); err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cliutil: -tile %q names no tile sizes", *x.tiles)
	}
	return out, nil
}

// ParseTile parses a ROWSxCOLS tile size like "64x32".
func ParseTile(s string) (rows, cols int, err error) {
	lo, hi, ok := strings.Cut(s, "x")
	if !ok {
		return 0, 0, fmt.Errorf("cliutil: tile %q is not ROWSxCOLS", s)
	}
	rows, err = strconv.Atoi(lo)
	if err == nil {
		cols, err = strconv.Atoi(hi)
	}
	if err != nil || rows < 1 || cols < 1 {
		return 0, 0, fmt.Errorf("cliutil: tile %q is not ROWSxCOLS with positive dimensions", s)
	}
	return rows, cols, nil
}

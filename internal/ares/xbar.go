package ares

import (
	"context"
	"errors"
	"time"

	"repro/internal/crossbar"
	"repro/internal/stats"
)

var errNoCrossbar = errors.New("ares: config has no crossbar design point")

// The crossbar compute-in-memory trial route (EvalTrial on a config
// with Crossbar set).
//
// The storage routes model faults in *stored bits*: inject, decode,
// apply the decoded weights to digital kernels. Here the array IS the
// compute: each weight layer maps once to differential conductance
// pairs on fixed tiles (crossbar.Map), a trial programs that mapping
// with sampled variation and stuck-at faults, optionally runs the
// online tolerance loop (detect -> remap -> degrade), and the resulting
// effective weights run through the crossbar kernels — per-row-tile
// analog accumulation with per-column ADC quantization — through the
// shared measurement (trial.go).
//
// Baseline discipline follows the 2:4 route (direct24.go): the DAC
// snap of weights to programmed levels and the ADC quantization of the
// *pristine* mapping are static design losses, so the baseline is the
// pristine mapped model measured through exactly the kernels trials
// use. A trial's delta reports only fault damage. With BPC=0, ADC off,
// and all fault rates zero, the mapping is bit-identical to the
// clustered weights and the route reproduces the dense digital pass
// exactly (the determinism-parity acceptance test).
//
// Seed contract: per-layer seeds are drawn tsrc.Uint64() in layer
// order from stats.NewSource(seed), matching corruptStorage; within a
// layer, Program forks 1..3 (variation / stuck cells / stuck columns)
// and the scrubber draws from fork 4. The trial outcome is a pure
// function of (cfg, seed).

// xbarState is the pristine per-design-point crossbar state: one
// immutable mapping per weight layer plus the mapped baseline error.
// Fault rates and the online policy do not affect it, so one state
// serves every campaign config sharing a tech + Config.MapKey (the
// evaluator caches by that key).
type xbarState struct {
	layers      []*crossbar.Layer
	baselineErr float64
}

// xbar builds (once per tech + mapping key) and returns the pristine
// crossbar state for cfg.
func (ev *MeasuredEvaluator) xbar(cfg Config) (*xbarState, error) {
	xc := *cfg.Crossbar
	key := cfg.Tech.Name + "|" + xc.MapKey()
	ev.xbarMu.Lock()
	defer ev.xbarMu.Unlock()
	if xs, ok := ev.xbarCache[key]; ok {
		met.cacheHits.Inc()
		return xs, nil
	}
	met.cacheMisses.Inc()
	start := time.Now()
	xs := &xbarState{layers: make([]*crossbar.Layer, len(ev.clustered))}
	for i, li := range ev.layerIdx {
		ly, err := crossbar.Map(ev.pristine.Layers[li].Weights, xc, cfg.Tech)
		if err != nil {
			return nil, err
		}
		xs.layers[i] = ly
	}
	// Mapped baseline, measured through the same kernels the trials
	// use. With an ideal write DAC and no ADC the mapping is
	// bit-identical to the clustered snapshot, so the clustered
	// baseline carries over without an inference pass.
	if xc.BPC == 0 && xc.ADCBits == 0 {
		xs.baselineErr = ev.BaselineErr
	} else {
		base := make([]layerTrial, len(xs.layers))
		for o, ly := range xs.layers {
			if base[o].x = ly.PristineXbar(); base[o].x == nil {
				base[o].w = ly.Pristine()
			}
		}
		xs.baselineErr, _ = ev.baseline(base)
	}
	met.encode.Since(start)
	ev.xbarCache[key] = xs
	return xs, nil
}

// XbarGeometry reports the deployed crossbar array geometry for cfg —
// total column segments and tiles summed over the weight layers — the
// inputs the online tolerance planner (mitigate.PlanOnline) sizes its
// threshold and budgets from.
func (ev *MeasuredEvaluator) XbarGeometry(cfg Config) (segments, tiles int, err error) {
	if cfg.Crossbar == nil {
		return 0, 0, errNoCrossbar
	}
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	xs, err := ev.xbar(cfg)
	if err != nil {
		return 0, 0, err
	}
	for _, ly := range xs.layers {
		segments += ly.Segments()
		tiles += ly.Tiles()
	}
	return segments, tiles, nil
}

// corruptXbar is the crossbar route's corrupt step: it programs every
// layer's crossbar for one trial and runs the online tolerance loop
// when enabled. Each layer runs on its trial's effective weights (ideal
// ADC) or ADC kernel handle; zero aggregate mismatch takes the fast
// path. Statistics use the storage-route vocabulary: Faults = injected
// stuck devices + stuck column drivers, Detected = segments flagged
// online, Corrected = segments remapped to spares, DegradedBlocks =
// segments zeroed, StructFrac = fraction of weights zeroed by
// degradation, Mismatch = fraction of effective weights differing from
// the pristine mapping, ValueNSR = weight-space noise-to-signal vs the
// mapped baseline.
func (ev *MeasuredEvaluator) corruptXbar(ctx context.Context, cfg Config, tsrc *stats.Source) (trial, error) {
	xs, err := ev.xbar(cfg)
	if err != nil {
		return trial{}, err
	}
	xc := *cfg.Crossbar
	injectStart := time.Now()
	tr := trial{layers: make([]layerTrial, len(ev.clustered)), baseline: xs.baselineErr, timer: met.eval}
	var zeroedW int
	for i := range ev.clustered {
		lseed := tsrc.Uint64()
		if err := ctx.Err(); err != nil {
			return trial{}, err
		}
		t, err := xs.layers[i].NewTrial(xc)
		if err != nil {
			return trial{}, err
		}
		lsrc := stats.NewSource(lseed)
		t.Program(lsrc)
		if xc.Online() {
			t.Online(lsrc.Fork(4))
		}
		lt := layerTrial{st: TrialStats{
			Faults:         t.Stats.StuckCells + t.Stats.StuckCols,
			Detected:       t.Stats.Flagged,
			Corrected:      t.Stats.Remapped,
			DegradedBlocks: t.Stats.Zeroed,
			Mismatch:       t.MismatchFrac(),
			ValueNSR:       t.NSR(),
		}, x: t.Xbar()}
		if lt.x == nil {
			lt.w = t.W
		}
		tr.layers[i] = lt
		zeroedW += t.Stats.ZeroedWeights
	}
	tr.stats = ev.aggregate(tr.layers)
	// The exact zeroed fraction, not a weighted mean of layer ratios.
	tr.stats.StructFrac = float64(zeroedW) / float64(ev.totalWeights())
	tr.pristine = tr.stats.Mismatch == 0
	met.inject.Since(injectStart)
	return tr, nil
}

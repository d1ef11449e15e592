package ares

import (
	"context"
	"fmt"
	"math"

	"repro/internal/sparse"
	"repro/internal/stats"
)

// Deployment-lifetime simulation (the mitigation counterpart of
// Section 7's retention analysis): a stored model ages, retention drift
// widens the fault rates, and an optional scrub cycle periodically
// reads, corrects, and rewrites every protected structure to reset the
// drift clock at the cost of endurance cycles.
//
// The epoch loop is physical, not statistical:
//
//   - With scrubbing, the cell state PERSISTS across epochs. Each epoch
//     injects misreads at the drift age accumulated since the last
//     rewrite, ECC corrects what it can, uncorrected damage is baked
//     into the rewritten cells, and the next epoch starts from that
//     state, its ECC parity recomputed from the rewritten bits.
//     Unprotected streams accumulate damage monotonically — exactly
//     the failure mode scrubbing cannot fix.
//   - Without scrubbing there is no rewrite to latch a misread into the
//     cell, so each evaluation epoch samples a fresh fault map at the
//     cumulative age: transient misreads against ever-wider margins.

// LifetimePolicy describes one deployment-lifetime scenario.
type LifetimePolicy struct {
	// Years is the deployment lifetime.
	Years float64
	// ScrubIntervalYears is the refresh period: every interval the store
	// is read, corrected, and rewritten. <= 0 (or >= Years) means the
	// model is written once and never refreshed.
	ScrubIntervalYears float64
	// EvalEpochs is the number of evaluation points for the no-scrub
	// case (default 8). Ignored when scrubbing: there every scrub period
	// is an epoch.
	EvalEpochs int
	// FloorDelta is the hard accuracy floor: an epoch whose measured
	// error delta exceeds it is flagged (0 = no guard).
	FloorDelta float64
}

// Scrubbed reports whether the policy actually refreshes the store.
func (lp LifetimePolicy) Scrubbed() bool {
	return lp.ScrubIntervalYears > 0 && lp.ScrubIntervalYears < lp.Years
}

// MaxLifetimeEpochs bounds one simulated deployment: a scrub interval
// short enough to need more epochs than this is a planner bug (or an
// endurance budget nobody has), not a simulation request.
const MaxLifetimeEpochs = 4096

// Validate rejects non-physical policies.
func (lp LifetimePolicy) Validate() error {
	if math.IsNaN(lp.Years) || lp.Years <= 0 {
		return fmt.Errorf("ares: lifetime years %v must be positive", lp.Years)
	}
	if math.IsNaN(lp.ScrubIntervalYears) {
		return fmt.Errorf("ares: scrub interval is NaN")
	}
	if math.IsNaN(lp.FloorDelta) || lp.FloorDelta < 0 {
		return fmt.Errorf("ares: floor delta %v must be >= 0", lp.FloorDelta)
	}
	if lp.EvalEpochs < 0 {
		return fmt.Errorf("ares: eval epochs %d must be >= 0", lp.EvalEpochs)
	}
	if n := lp.EpochCount(); n > MaxLifetimeEpochs {
		return fmt.Errorf("ares: %d lifetime epochs exceeds the %d cap (interval too short)", n, MaxLifetimeEpochs)
	}
	return nil
}

// EpochCount returns the number of evaluation epochs the policy implies.
func (lp LifetimePolicy) EpochCount() int {
	if lp.Scrubbed() {
		return int(math.Ceil(lp.Years / lp.ScrubIntervalYears))
	}
	if lp.EvalEpochs > 0 {
		return lp.EvalEpochs
	}
	return 8
}

// epochAges returns the cumulative deployment age at the end of each
// epoch; the final entry is exactly Years.
func (lp LifetimePolicy) epochAges() []float64 {
	n := lp.EpochCount()
	ages := make([]float64, n)
	if lp.Scrubbed() {
		for i := 0; i < n; i++ {
			ages[i] = math.Min(float64(i+1)*lp.ScrubIntervalYears, lp.Years)
		}
	} else {
		for i := 0; i < n; i++ {
			ages[i] = lp.Years * float64(i+1) / float64(n)
		}
	}
	ages[n-1] = lp.Years
	return ages
}

// EpochStats is one evaluation point of a lifetime trial.
type EpochStats struct {
	// Epoch is the 0-based epoch index.
	Epoch int
	// AgeYears is the cumulative deployment age at this evaluation.
	AgeYears float64
	// SinceScrubYears is the drift age the misreads were sampled at:
	// time since the last rewrite when scrubbing, AgeYears otherwise.
	SinceScrubYears float64
	// Stats aggregates the corruption statistics of this epoch's read.
	Stats TrialStats
	// DeltaErr is the measured classification-error delta.
	DeltaErr float64
	// FloorViolated flags DeltaErr > LifetimePolicy.FloorDelta.
	FloorViolated bool
}

// LifetimeStats is the outcome of one simulated deployment.
type LifetimeStats struct {
	// Epochs holds one entry per evaluation epoch, in age order.
	Epochs []EpochStats
	// Rewrites is the number of scrub rewrites performed (endurance
	// cycles spent beyond the initial program).
	Rewrites int
	// WorstDelta and FinalDelta summarize the error trajectory.
	WorstDelta, FinalDelta float64
	// FirstViolation is the index of the first epoch that breached the
	// accuracy floor (-1 if the floor held or no floor was set).
	FirstViolation int
}

// LifetimeTrial simulates one deployment of cfg under lp with the given
// trial seed and measures the classification error at every epoch. The
// outcome is a pure function of (cfg, lp, seed); errors are returned
// rather than panicking and a cancelled context aborts between layers.
func (ev *MeasuredEvaluator) LifetimeTrial(ctx context.Context, cfg Config, lp LifetimePolicy, seed uint64) (LifetimeStats, error) {
	res := LifetimeStats{FirstViolation: -1}
	if err := lp.Validate(); err != nil {
		return res, err
	}
	if err := cfg.Validate(); err != nil {
		return res, err
	}
	if cfg.Crossbar != nil {
		return res, fmt.Errorf("ares: lifetime simulation ages stored bits; crossbar config %s has none", cfg)
	}
	encs, err := ev.encodings(cfg.Encoding)
	if err != nil {
		return res, err
	}
	refs, sigs, baseline, err := ev.refFor(cfg)
	if err != nil {
		return res, err
	}
	scrub := lp.Scrubbed()
	src := stats.NewSource(seed)
	// cells holds each layer's stored encoding. With scrubbing it
	// persists across epochs; without, every epoch reads a fresh clone.
	cells := make([]sparse.Encoding, len(encs))

	ages := lp.epochAges()
	for e, age := range ages {
		// The drift age: since the last rewrite when scrubbing.
		ecfg := cfg
		ecfg.RetentionYears = age
		if scrub && e > 0 {
			ecfg.RetentionYears -= ages[e-1]
		}
		esrc := src.Fork(uint64(e) + 1)
		lts := make([]layerTrial, len(encs))
		for li, cl := range ev.clustered {
			if !scrub || cells[li] == nil {
				if cells[li], err = sparse.CloneEncoding(encs[li]); err != nil {
					return res, err
				}
			}
			st, dec, err := storageStep(ctx, storedOf(cells[li]), &pristineLayer{ev, li, encs[li].Streams(), sigs[li]}, refs[li], cl.Centroids, ecfg, esrc.Fork(uint64(li)+1))
			if err != nil {
				return res, err
			}
			lts[li] = layerTrial{st: st, idx: dec}
		}
		tr, err := ev.decodedTrial(lts, refs, baseline, cfg.Encoding == sparse.Kind24)
		if err != nil {
			return res, err
		}
		delta := ev.measure(tr)
		es := EpochStats{
			Epoch:           e,
			AgeYears:        age,
			SinceScrubYears: ecfg.RetentionYears,
			Stats:           tr.stats,
			DeltaErr:        delta,
		}
		if lp.FloorDelta > 0 && delta > lp.FloorDelta {
			es.FloorViolated = true
			if res.FirstViolation < 0 {
				res.FirstViolation = e
				met.floorViolations.Inc()
			}
		}
		res.Epochs = append(res.Epochs, es)
		if delta > res.WorstDelta {
			res.WorstDelta = delta
		}
		res.FinalDelta = delta
		met.scrubEpochs.Inc()

		// Scrub rewrite: reprogram every cell from the corrected state,
		// residual (uncorrected or degraded-to-zero) damage baked in; the
		// next epoch's storageStep protects the rewritten bits afresh (or
		// copies a clean stream's cached parity) and the drift clock
		// restarts. The final epoch ends the deployment, so no rewrite
		// follows it.
		if scrub && e < len(ages)-1 {
			res.Rewrites++
			met.scrubRewrites.Inc()
		}
	}
	return res, nil
}

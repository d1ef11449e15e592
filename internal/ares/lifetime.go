package ares

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/ecc"
	"repro/internal/envm"
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
//     into the rewritten codeword (ecc.Reprotect), and the next epoch
//     starts from that state. Unprotected streams accumulate damage
//     monotonically — exactly the failure mode scrubbing cannot fix.
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

// lifetimeLayer is the persistent cell state of one layer across a
// scrubbed deployment: the aged encoding plus the ECC state of its
// protected streams.
type lifetimeLayer struct {
	enc  sparse.Encoding
	prot map[int]*ecc.Protected
}

// newLifetimeLayer clones the pristine encoding and protects the
// configured streams once, at write time.
func newLifetimeLayer(pristine sparse.Encoding, cfg Config) (*lifetimeLayer, error) {
	clone, err := sparse.CloneEncoding(pristine)
	if err != nil {
		return nil, err
	}
	ll := &lifetimeLayer{enc: clone, prot: map[int]*ecc.Protected{}}
	for i, s := range clone.Streams() {
		p := cfg.PolicyFor(s.Name)
		if p.BPC != 0 && p.ECC {
			ll.prot[i] = ecc.NewBlockCode(cfg.BlockBits()).Protect(s.Bits)
		}
	}
	return ll, nil
}

// age injects one epoch of misreads at drift age ageYears into every
// stored stream, corrects the protected ones, and (with cfg.Degrade)
// zeroes uncorrectable blocks.
func (ll *lifetimeLayer) age(cfg Config, ageYears float64, src *stats.Source, st *TrialStats) {
	for i, s := range ll.enc.Streams() {
		p := cfg.PolicyFor(s.Name)
		if p.BPC == 0 {
			continue // perfect storage
		}
		sc := cfg.StoreConfig(p)
		sc.RetentionYears = ageYears
		ssrc := src.Fork(uint64(i) + 1)
		if prot := ll.prot[i]; prot != nil {
			injectProtected(prot, sc, cfg.Degrade, ssrc, st)
		} else {
			st.Faults += envm.InjectArray(s.Bits, sc, ssrc)
		}
	}
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
	encs, err := ev.encodings(cfg)
	if err != nil {
		return res, err
	}
	refs, baseline, err := ev.refFor(cfg)
	if err != nil {
		return res, err
	}
	scrub := lp.Scrubbed()
	src := stats.NewSource(seed)

	// Persistent cell state across epochs (scrub mode only).
	var layers []*lifetimeLayer
	if scrub {
		layers = make([]*lifetimeLayer, len(ev.clustered))
		for i := range ev.clustered {
			if layers[i], err = newLifetimeLayer(encs[i], cfg); err != nil {
				return res, err
			}
		}
	}

	prevAge := 0.0
	ages := lp.epochAges()
	for e, age := range ages {
		driftAge := age
		if scrub {
			driftAge = age - prevAge
		}
		esrc := src.Fork(uint64(e) + 1)
		lts := make([]layerTrial, len(ev.clustered))
		for li, cl := range ev.clustered {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			var ll *lifetimeLayer
			if scrub {
				ll = layers[li]
			} else if ll, err = newLifetimeLayer(encs[li], cfg); err != nil {
				return res, err
			}
			injectStart := time.Now()
			var st TrialStats
			ll.age(cfg, driftAge, esrc.Fork(uint64(li)+1), &st)
			met.inject.Since(injectStart)
			decodeStart := time.Now()
			dec := ll.enc.Decode()
			met.decode.Since(decodeStart)
			if len(dec) != len(cl.Indices) {
				return res, fmt.Errorf("ares: layer %d: %d decoded vs %d original indices", li, len(dec), len(cl.Indices))
			}
			fillCorruption(&st, refs[li], dec, cl.Centroids)
			lts[li] = layerTrial{st: st, idx: dec}
		}
		tr, err := ev.decodedTrial(lts, refs, baseline)
		if err != nil {
			return res, err
		}
		delta := ev.measure(tr)
		es := EpochStats{
			Epoch:           e,
			AgeYears:        age,
			SinceScrubYears: driftAge,
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

		// Scrub rewrite: reprogram every cell from the corrected state.
		// Residual (uncorrected or degraded-to-zero) damage is baked in;
		// the drift clock restarts. The final epoch ends the deployment,
		// so no rewrite follows it.
		if scrub && e < len(ages)-1 {
			for _, ll := range layers {
				for _, prot := range ll.prot {
					prot.Reprotect()
				}
			}
			res.Rewrites++
			met.scrubRewrites.Inc()
		}
		prevAge = age
	}
	return res, nil
}

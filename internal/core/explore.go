package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"repro/internal/ares"
	"repro/internal/envm"
	"repro/internal/sparse"
)

// Candidate is one point of the design space: an encoding with a
// per-structure storage policy on one technology, evaluated against the
// model's iso-training-noise bound.
type Candidate struct {
	Model    string
	Tech     envm.Tech
	Kind     sparse.Kind
	Policies map[string]ares.StreamPolicy

	TotalDataBits   int64
	TotalParityBits int64
	TotalCells      int64
	MaxBPC          int
	DeltaErr        float64
	Accepted        bool
}

// TotalBits returns stored bits including parity.
func (c Candidate) TotalBits() int64 { return c.TotalDataBits + c.TotalParityBits }

// Label renders the candidate like the paper's tables ("BitM+IdxSync",
// "CSR+ECC", ...).
func (c Candidate) Label() string { return label(c.Kind, c.Policies) }

// label renders an encoding with its policies: the kind, suffixed
// "+ECC" when any stream is protected.
func label(kind sparse.Kind, policies map[string]ares.StreamPolicy) string {
	name := kind.String()
	for _, p := range policies {
		if p.ECC {
			return name + "+ECC"
		}
	}
	return name
}

// PolicyString renders the per-stream policies deterministically.
func (c Candidate) PolicyString() string {
	names := c.Kind.StreamNames()
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s:%s", n, c.Policies[n]))
	}
	return strings.Join(parts, ",")
}

// Explorer runs the exhaustive design-space exploration of Section 4.4
// for one prepared model: every encoding, every per-structure
// bits-per-cell and protection combination, on every technology.
type Explorer struct {
	PM       *PreparedModel
	Profiles map[sparse.Kind][]LayerProfile
	Opt      ProfileOptions
}

// NewExplorer profiles the model under every encoding kind. Profiling is
// embarrassingly parallel across (layer, kind) pairs and is spread over
// the available CPUs; results are deterministic regardless of schedule
// because every probe derives its own seed.
func NewExplorer(pm *PreparedModel, opt ProfileOptions) *Explorer {
	e := &Explorer{PM: pm, Profiles: make(map[sparse.Kind][]LayerProfile), Opt: opt}
	type job struct {
		kind sparse.Kind
		li   int
	}
	var jobs []job
	for _, kind := range sparse.Kinds {
		e.Profiles[kind] = make([]LayerProfile, len(pm.Layers))
		for li := range pm.Layers {
			jobs = append(jobs, job{kind, li})
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	jobCh := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				o := opt
				o.Seed = opt.Seed + uint64(j.li)*9973
				e.Profiles[j.kind][j.li] = ProfileLayer(pm.Layers[j.li], j.kind, o)
			}
		}()
	}
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()
	return e
}

// WithRetention returns a shallow copy of the explorer that evaluates
// candidates at the given storage age. Damage probes are
// device-rate-independent, so the (expensive) profiles are shared; only
// the fault intensities change.
func (e *Explorer) WithRetention(years float64) *Explorer {
	opt := e.Opt
	opt.RetentionYears = years
	return &Explorer{PM: e.PM, Profiles: e.Profiles, Opt: opt}
}

// Evaluate scores one candidate: exact storage cost plus the surrogate
// expected error delta, against the model's error bound.
func (e *Explorer) Evaluate(tech envm.Tech, kind sparse.Kind, policies map[string]ares.StreamPolicy) Candidate {
	var lds []ares.LayerDamage
	for _, lp := range e.Profiles[kind] {
		lds = append(lds, e.priceLayer(tech, lp, policies))
	}
	v := e.judge(lds)
	return Candidate{
		Model: e.PM.Model.Name, Tech: tech, Kind: kind, Policies: policies,
		TotalDataBits: v.dataBits, TotalParityBits: v.parityBits, TotalCells: v.cells,
		MaxBPC: v.maxBPC, DeltaErr: v.delta, Accepted: v.accepted,
	}
}

// priceLayer prices one layer profile under per-stream policies on
// tech: each stream's exact storage bill, and its surrogate exposure —
// the expected uncorrectable events at the explorer's storage age times
// the probed per-event damage. It is the one per-stream pricing behind
// both the uniform and the per-layer search.
func (e *Explorer) priceLayer(tech envm.Tech, lp LayerProfile, policies map[string]ares.StreamPolicy) ares.LayerDamage {
	ld := ares.LayerDamage{Weights: int(lp.FullWeights), SignalSS: lp.SubSignalSS * lp.Scale}
	for _, sp := range lp.Streams {
		p, ok := policies[sp.Name]
		if !ok {
			panic(fmt.Sprintf("core: no policy for stream %q", sp.Name))
		}
		probe, ok := sp.Probes[p]
		if !ok {
			panic(fmt.Sprintf("core: stream %q has no probe for policy %s", sp.Name, p))
		}
		ld.Costs = append(ld.Costs, ares.PriceStream(sp.Name, p, sp.FullDataBits, ares.ECCDataBits))

		sc := envm.StoreConfig{Tech: tech, BPC: p.BPC, Gray: p.ECC, RetentionYears: e.Opt.RetentionYears}
		sd := ares.StreamDamage{
			Name:         sp.Name,
			LambdaEff:    ares.LambdaEff(sp.FullDataBits, sc, p.ECC),
			DStruct:      probe.DStruct,
			DNSR:         probe.DNSR,
			DMismatch:    probe.DMismatch,
			Catastrophic: probe.Catastrophic(),
		}
		if !sd.Catastrophic && lp.Scale > 1 {
			// Point damage dilutes at full scale (the event corrupts a
			// fixed number of weights, not a fixed fraction).
			sd.DStruct /= lp.Scale
			sd.DNSR /= lp.Scale
			sd.DMismatch /= lp.Scale
		}
		ld.Streams = append(ld.Streams, sd)
	}
	return ld
}

// verdict is the model-level outcome of one storage selection: its
// storage bill and the surrogate's expected error delta.
type verdict struct {
	dataBits, parityBits, cells int64
	maxBPC                      int
	delta                       float64
	accepted                    bool
}

// judge is the one acceptance scorer: it totals the bill of the priced
// layers and accepts them when the surrogate's expected error delta
// holds the model's iso-training-noise bound.
func (e *Explorer) judge(lds []ares.LayerDamage) verdict {
	var v verdict
	for _, ld := range lds {
		for _, c := range ld.Costs {
			v.dataBits += c.DataBits
			v.parityBits += c.ParityBits
			v.cells += c.Cells
			v.maxBPC = max(v.maxBPC, c.BPC)
		}
	}
	m := e.PM.Model
	v.delta = ares.Aggregate(lds).ExpectedDeltaError(ares.Sensitivity(m.Name), ares.Headroom(m.Classes, m.Meta.BaselineError))
	v.accepted = v.delta <= m.Meta.ErrorBound
	return v
}

// forEachSelection calls fn with every per-stream policy assignment of
// kind in the search space of tech, each as a fresh policy map. It is
// the one enumeration behind both the uniform and the per-layer search.
func forEachSelection(tech envm.Tech, kind sparse.Kind, fn func(map[string]ares.StreamPolicy)) {
	names := kind.StreamNames()
	choices := searchChoices(tech)
	assign := make([]ares.StreamPolicy, len(names))
	var walk func(i int)
	walk = func(i int) {
		if i < len(names) {
			for _, key := range choices {
				assign[i] = key
				walk(i + 1)
			}
			return
		}
		policies := make(map[string]ares.StreamPolicy, len(names))
		for j, n := range names {
			policies[n] = assign[j]
		}
		fn(policies)
	}
	walk(0)
}

// Best finds the minimal-cell accepted candidate for one encoding on one
// technology (a cell of Figure 6). If no combination is accepted, the
// lowest-delta candidate is returned with Accepted=false.
func (e *Explorer) Best(tech envm.Tech, kind sparse.Kind) Candidate {
	var best, fallback Candidate
	bestSet, fbSet := false, false
	forEachSelection(tech, kind, func(policies map[string]ares.StreamPolicy) {
		c := e.Evaluate(tech, kind, policies)
		if c.Accepted && (!bestSet || c.TotalCells < best.TotalCells) {
			best, bestSet = c, true
		}
		if !fbSet || c.DeltaErr < fallback.DeltaErr {
			fallback, fbSet = c, true
		}
	})
	if bestSet {
		return best
	}
	return fallback
}

// BestOverall returns the minimal-cell accepted candidate across all
// encodings (the per-technology winner reported in Table 4).
func (e *Explorer) BestOverall(tech envm.Tech) Candidate {
	var best Candidate
	bestSet := false
	for _, kind := range sparse.Kinds {
		c := e.Best(tech, kind)
		if !c.Accepted {
			continue
		}
		if !bestSet || c.TotalCells < best.TotalCells {
			best, bestSet = c, true
		}
	}
	if !bestSet {
		// Degenerate: nothing accepted; fall back to dense SLC.
		return e.Best(tech, sparse.KindDense)
	}
	return best
}

// EncodedLayerBits returns the per-weight-layer stored bits (data +
// parity) of a candidate, for the NVDLA workload model.
func (e *Explorer) EncodedLayerBits(c Candidate) []int64 {
	lps := e.Profiles[c.Kind]
	out := make([]int64, len(lps))
	for i, lp := range lps {
		for _, sp := range lp.Streams {
			out[i] += ares.PriceStream(sp.Name, c.Policies[sp.Name], sp.FullDataBits, ares.ECCDataBits).TotalBits()
		}
	}
	return out
}

// AreaBenefit returns the cell-count ratio of the naive baseline — a
// single-level-cell store of the uncompressed 16-bit weights, the
// abstract's "naive, single-level-cell eNVM solution" — to the candidate
// (up to 29x in the paper).
func (e *Explorer) AreaBenefit(c Candidate) float64 {
	naiveCells := e.PM.TotalWeights() * 16 // 1 bit per SLC cell
	if c.TotalCells == 0 {
		return math.Inf(1)
	}
	return float64(naiveCells) / float64(c.TotalCells)
}

// OptimizedSLCBenefit returns the cell ratio of the best *optimized*
// (pruned+clustered, sparse-encoded) SLC configuration to the candidate —
// the Section 5.1 metric ("relative to storing the same optimized and
// sparse-encoded weights in SLC-RRAM", avg 9.6x for MLC-CTT).
func (e *Explorer) OptimizedSLCBenefit(c Candidate) float64 {
	slc := e.BestOverall(envm.SLCRRAM)
	if c.TotalCells == 0 {
		return math.Inf(1)
	}
	return float64(slc.TotalCells) / float64(c.TotalCells)
}

package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ares"
	"repro/internal/envm"
	"repro/internal/sparse"
)

// Per-layer optimization (Section 3.2.1: "CSR is applied on a per-layer
// basis where worthwhile"). Instead of forcing one encoding and policy
// set on the whole model, each layer independently picks the (encoding,
// per-structure policy) pair that minimizes its cells, subject to the
// *model-level* iso-training-noise bound.
//
// The search is a Lagrangian sweep: each layer exposes its Pareto
// frontier of (cells, corruption-score) options; a multiplier mu trades
// cells against corruption, and a bisection on mu finds the cheapest
// selection whose exact aggregated error delta passes the bound.

// LayerOption is one storable configuration of a single layer.
type LayerOption struct {
	Kind     sparse.Kind
	Policies map[string]ares.StreamPolicy
	Cells    int64
	Bits     int64
	// damage carries the exact per-stream exposure for the final
	// aggregation.
	damage ares.LayerDamage
	// x is the additive corruption score guiding the greedy search.
	x float64
}

// Label renders the option like "CSR+ECC".
func (o LayerOption) Label() string { return label(o.Kind, o.Policies) }

// PerLayerCandidate is a per-layer selection with its exact evaluation.
type PerLayerCandidate struct {
	Model      string
	Tech       envm.Tech
	Choices    []LayerOption
	TotalCells int64
	TotalBits  int64
	MaxBPC     int
	DeltaErr   float64
	Accepted   bool
}

// Summary renders the encoding mix, e.g. "CSR x3, BitM+IdxSync x1".
func (c PerLayerCandidate) Summary() string {
	counts := map[string]int{}
	for _, o := range c.Choices {
		counts[o.Label()]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s x%d", k, counts[k])
	}
	return out
}

// layerOptions enumerates every (kind, policy combo) for one layer on one
// technology and Pareto-filters to the (cells, x) frontier.
func (e *Explorer) layerOptions(tech envm.Tech, li int, wShare, sShare, sens float64) []LayerOption {
	var opts []LayerOption
	for _, kind := range sparse.Kinds {
		lp := e.Profiles[kind][li]
		forEachSelection(tech, kind, func(policies map[string]ares.StreamPolicy) {
			ld := e.priceLayer(tech, lp, policies)
			opt := LayerOption{
				Kind: kind, Policies: policies,
				Cells: ares.TotalCells(ld.Costs), Bits: ares.TotalBits(ld.Costs),
				damage: ld,
			}
			for _, sd := range ld.Streams {
				// Corruption score: linear exposure plus a saturated term
				// for cascade events.
				if sd.Catastrophic {
					opt.x += sd.LambdaEff * 3
				} else {
					opt.x += sens * sd.LambdaEff * (sd.DNSR*sShare + ares.StructWeight*sd.DStruct*wShare)
				}
			}
			opts = append(opts, opt)
		})
	}
	return paretoOptions(opts)
}

// paretoOptions keeps options not dominated in (cells, x).
func paretoOptions(opts []LayerOption) []LayerOption {
	sort.Slice(opts, func(a, b int) bool {
		if opts[a].Cells != opts[b].Cells {
			return opts[a].Cells < opts[b].Cells
		}
		return opts[a].x < opts[b].x
	})
	var out []LayerOption
	bestX := math.Inf(1)
	for _, o := range opts {
		if o.x < bestX {
			out = append(out, o)
			bestX = o.x
		}
	}
	return out
}

// BestPerLayer finds the cheapest per-layer selection that passes the
// model-level bound.
func (e *Explorer) BestPerLayer(tech envm.Tech) PerLayerCandidate {
	sens := ares.Sensitivity(e.PM.Model.Name)

	// Model-scale shares for the corruption score.
	var totalW int64
	var totalSS float64
	for _, kind := range []sparse.Kind{sparse.KindDense} {
		for _, lp := range e.Profiles[kind] {
			totalW += lp.FullWeights
			totalSS += lp.SubSignalSS * lp.Scale
		}
	}

	options := make([][]LayerOption, len(e.PM.Layers))
	for li := range e.PM.Layers {
		lp := e.Profiles[sparse.KindDense][li]
		wShare := float64(lp.FullWeights) / float64(totalW)
		sShare := 0.0
		if totalSS > 0 {
			sShare = lp.SubSignalSS * lp.Scale / totalSS
		}
		options[li] = e.layerOptions(tech, li, wShare, sShare, sens)
	}

	pick := func(mu float64) []LayerOption {
		out := make([]LayerOption, len(options))
		for li, opts := range options {
			best := opts[0]
			bestScore := float64(best.Cells) + mu*best.x
			for _, o := range opts[1:] {
				if s := float64(o.Cells) + mu*o.x; s < bestScore {
					best, bestScore = o, s
				}
			}
			out[li] = best
		}
		return out
	}
	evaluate := func(choices []LayerOption) PerLayerCandidate {
		lds := make([]ares.LayerDamage, len(choices))
		for i, o := range choices {
			lds[i] = o.damage
		}
		v := e.judge(lds)
		return PerLayerCandidate{
			Model: e.PM.Model.Name, Tech: tech, Choices: choices,
			TotalCells: v.cells, TotalBits: v.dataBits + v.parityBits,
			MaxBPC: v.maxBPC, DeltaErr: v.delta, Accepted: v.accepted,
		}
	}

	// mu = 0 is the unconstrained minimum; if it already passes, done.
	best := evaluate(pick(0))
	if best.Accepted {
		return best
	}
	// Exponential search for a feasible mu, then bisect.
	lo, hi := 0.0, 1.0
	var feasible *PerLayerCandidate
	for iter := 0; iter < 60; iter++ {
		c := evaluate(pick(hi))
		if c.Accepted {
			feasible = &c
			break
		}
		lo, hi = hi, hi*8
	}
	if feasible == nil {
		return best // nothing passes; report the cheapest with Accepted=false
	}
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		c := evaluate(pick(mid))
		if c.Accepted {
			if c.TotalCells <= feasible.TotalCells {
				feasible = &c
			}
			hi = mid
		} else {
			lo = mid
		}
	}
	return *feasible
}

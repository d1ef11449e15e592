// Package mitigate is the lifetime error-mitigation subsystem: it turns
// the repo's measurement machinery (stream damage probes, the surrogate
// fault model, retention drift) into *decisions* — which structures get
// how much protection, and how often the store must be scrubbed — so a
// deployed model holds the iso-training-noise accuracy bound over an
// N-year lifetime instead of only at write time.
//
// Three stages, mirroring the paper's Section 7 argument:
//
//   - Criticality ranking (this file): every stored stream is scored by
//     expected model-level damage per unit fault rate, measured by
//     forcing faults and decoding. Sparse-encoding metadata (CSR column
//     indices, bitmasks) cascades and ranks far above values; within the
//     values stream, cluster-index MSBs dominate (IndexBitSensitivity).
//   - Protection planning (plan.go): a parity-overhead budget is spent
//     greedily down the ranking — SEC-DED block size chosen from the
//     device fault rate, bpc derating reserved for cascade-prone
//     streams — producing a non-uniform ares.Config.
//   - Scrub scheduling (scrub.go): given retention drift and the
//     endurance budget, the scheduler finds the longest rewrite interval
//     whose predicted error delta stays under the ITN bound.
//
// The planner's output is validated end-to-end by ares.LifetimeTrial,
// which simulates the deployment epoch by epoch with real inference.
package mitigate

import (
	"fmt"
	"sort"

	"repro/internal/ares"
	"repro/internal/envm"
	"repro/internal/quant"
	"repro/internal/stats"
)

// StreamRank scores one stream name's criticality across all layers of
// a model. Damage is in surrogate units (valueNSR + StructWeight *
// structFrac, weighted by each layer's share of the model's weights),
// so Score is directly the expected model-level damage per unit
// per-cell fault rate.
type StreamRank struct {
	// Name is the stream ("values", "colidx", "rowcount", "bitmask",
	// "idxsync").
	Name string
	// BPC is the bits-per-cell the stream was ranked at (the baseline
	// policy the planner may upgrade).
	BPC int
	// DataBits and Cells total the stream across layers at BPC.
	DataBits int64
	Cells    int64
	// DamagePerEvent is the mean model-level damage of one fault event.
	DamagePerEvent float64
	// Mismatch is the weighted mean per-event index-mismatch fraction.
	Mismatch float64
	// Catastrophic marks streams where a single event cascades.
	Catastrophic bool
	// BitSensitivity (values stream only) is the per-bit weight
	// perturbation of the cluster index, LSB first: MSBs dominate.
	BitSensitivity []float64
	// Score = Cells x DamagePerEvent: expected model damage per unit
	// fault rate. The planner spends its budget in descending Score.
	Score float64
}

// RankModel probes every stream of every clustered layer under cfg's
// encoding and aggregates per stream name, most critical first. Streams
// stored perfectly (BPC 0) are skipped — there is nothing to protect.
// Each stream takes ares.DefaultDamageTrials probes; seed drives their
// placement, so ranks are a pure function of (layers, cfg, seed).
func RankModel(layers []*quant.Clustered, cfg ares.Config, seed uint64) ([]StreamRank, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("mitigate: no layers to rank")
	}
	var totalW float64
	for _, cl := range layers {
		totalW += float64(len(cl.Indices))
	}
	byName := map[string]*StreamRank{}
	var order []string
	for li, cl := range layers {
		enc, err := ares.EncodeLayer(cl, cfg)
		if err != nil {
			return nil, err
		}
		layerW := float64(len(cl.Indices)) / totalW
		pb := ares.NewProber(enc, cl)
		for si, s := range enc.Streams() {
			p := cfg.PolicyFor(s.Name)
			if p.BPC == 0 {
				continue // perfect storage
			}
			r := byName[s.Name]
			if r == nil {
				r = &StreamRank{Name: s.Name, BPC: p.BPC}
				byName[s.Name] = r
				order = append(order, s.Name)
			}
			dStruct, dNSR, dMismatch := pb.Probe(si, ares.StreamPolicy{BPC: p.BPC},
				ares.DefaultDamageTrials, stats.NewSource(seed+uint64(li)*131+uint64(si)*17+1))
			damage := (dNSR + ares.StructWeight*dStruct) * layerW
			cells := envm.CellsFor(s.SizeBits(), p.BPC)
			r.DataBits += s.SizeBits()
			r.Cells += cells
			r.Score += float64(cells) * damage
			r.Mismatch += dMismatch * layerW
			if ares.Cascades(dMismatch) {
				r.Catastrophic = true
			}
			if s.Name == "values" && r.BitSensitivity == nil {
				r.BitSensitivity = IndexBitSensitivity(cl.Centroids, cl.IndexBits)
			}
		}
	}
	out := make([]StreamRank, 0, len(order))
	for _, name := range order {
		r := byName[name]
		if r.Cells > 0 {
			r.DamagePerEvent = r.Score / float64(r.Cells)
		}
		out = append(out, *r)
	}
	sortRanks(out)
	return out, nil
}

// sortRanks orders by descending Score, breaking ties by name for
// determinism.
func sortRanks(ranks []StreamRank) {
	sort.Slice(ranks, func(i, j int) bool {
		if ranks[i].Score != ranks[j].Score {
			return ranks[i].Score > ranks[j].Score
		}
		return ranks[i].Name < ranks[j].Name
	})
}

// IndexBitSensitivity measures the criticality of each cluster-index
// bit: entry b is the mean squared weight perturbation caused by
// flipping bit b of the stored index, normalized by the mean squared
// centroid magnitude. Centroids are sorted by magnitude during
// clustering, so high bits move a weight across most of the value range
// — the MSB-first protection ordering the paper's bit-level analyses
// rely on. Entry 0 is the LSB.
func IndexBitSensitivity(centroids []float32, indexBits int) []float64 {
	sens := make([]float64, indexBits)
	n := len(centroids)
	if n == 0 || indexBits <= 0 {
		return sens
	}
	var signal float64
	for _, c := range centroids {
		signal += float64(c) * float64(c)
	}
	signal /= float64(n)
	if signal == 0 {
		return sens
	}
	for b := 0; b < indexBits; b++ {
		var sum float64
		var cnt int
		for i := 0; i < n; i++ {
			j := i ^ (1 << uint(b))
			if j >= n {
				continue // flip escapes the centroid table: decoder clamp
			}
			d := float64(centroids[j]) - float64(centroids[i])
			sum += d * d
			cnt++
		}
		if cnt > 0 {
			sens[b] = sum / float64(cnt) / signal
		}
	}
	return sens
}

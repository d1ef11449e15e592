// Package core implements the MaxNVM co-design methodology — the paper's
// primary contribution. It prepares models (prune + cluster per Table 2),
// profiles the fault exposure of every stored structure, exhaustively
// explores the design space of encodings x bits-per-cell x protection per
// technology under the iso-training-noise acceptance criterion, and emits
// the minimal-cell configurations (Figure 6), optimal storage summaries
// (Table 4), write-time estimates (Table 5), and the array
// characterizations feeding the NVDLA system studies (Figures 8-11).
package core

import (
	"repro/internal/dnn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// PreparedLayer is one weight layer after model optimization, possibly
// represented by a row subsample for tractable fault probing.
type PreparedLayer struct {
	Name string
	// FullRows/FullCols are the real layer dimensions.
	FullRows, FullCols int
	// CL is the pruned + clustered representation; CL.Rows may be a
	// subsample of FullRows.
	CL *quant.Clustered
	// Scale is FullRows / CL.Rows (1 when not subsampled).
	Scale float64
}

// FullWeights returns the real layer weight count.
func (pl PreparedLayer) FullWeights() int64 {
	return int64(pl.FullRows) * int64(pl.FullCols)
}

// PreparedModel is a model after the Section 3.1 optimization pipeline.
type PreparedModel struct {
	Model  *dnn.Model
	Layers []PreparedLayer
	Seed   uint64
}

// TotalWeights returns the full-scale weight count.
func (pm *PreparedModel) TotalWeights() int64 {
	var n int64
	for _, pl := range pm.Layers {
		n += pl.FullWeights()
	}
	return n
}

// PrepareOptions tunes Prepare.
type PrepareOptions struct {
	// Seed drives weight synthesis, pruning and clustering.
	Seed uint64
	// MaxLayerWeights caps the per-layer representation; larger layers
	// are row-subsampled after clustering. Zero means no subsampling
	// (full fidelity, used for exact Table 2 sizes).
	MaxLayerWeights int
}

// Prepare materializes, prunes, and clusters every weight layer of the
// model per its Table 2 metadata, streaming layer by layer so that even
// VGG16 (552 MB of float32 weights) never holds more than one layer's
// float weights in memory.
func Prepare(m *dnn.Model, opt PrepareOptions) *PreparedModel {
	pm := &PreparedModel{Model: m, Seed: opt.Seed}
	for i, l := range m.Layers {
		if !l.HasWeights() {
			continue
		}
		m.MaterializeLayer(i, opt.Seed)
		pl := prepareLayer(l.Name, l.Weights, m.Meta.TargetSparsity, m.Meta.ClusterIndexBits,
			opt.Seed+uint64(i), opt.MaxLayerWeights)
		l.Release() // drop the float weights immediately
		pm.Layers = append(pm.Layers, pl)
	}
	return pm
}

// prepareLayer prunes w in place and clusters it. A layer of more than
// maxWeights weights (when maxWeights > 0) is represented by evenly
// strided rows: only those rows are assigned cluster indices, while the
// centroids still come from the whole pruned layer.
func prepareLayer(name string, w *tensor.Matrix, sparsity float64, bits int, seed uint64, maxWeights int) PreparedLayer {
	quant.Prune(w, sparsity, seed)
	rows := quant.StridedRows(w.Rows, w.Cols, maxWeights)
	pl := PreparedLayer{
		Name:     name,
		FullRows: w.Rows, FullCols: w.Cols,
		CL:    quant.ClusterRows(w, bits, quant.ClusterOptions{Seed: seed}, rows),
		Scale: 1,
	}
	if rows != nil {
		pl.Scale = float64(pl.FullRows) / float64(pl.CL.Rows)
	}
	return pl
}

package tensor

import "repro/internal/telemetry"

// Kernel telemetry: groups walked and dense multiply-accumulates skipped
// by the compute-direct 2:4 kernels. Both are computed analytically from
// the call shape and published with one atomic Add per kernel call —
// never per element.
//
// Metric names:
//
//	sparse.gemm24.groups        4-column groups walked by 2:4 kernels
//	sparse.gemm24.skipped_macs  MACs a dense kernel would have issued on
//	                            positions the 2:4 format does not store
var met24 = struct {
	groups, skippedMACs *telemetry.Counter
}{
	groups:      telemetry.Default().Counter("sparse.gemm24.groups"),
	skippedMACs: telemetry.Default().Counter("sparse.gemm24.skipped_macs"),
}

// Sparse24 is a weight matrix in compute-direct 2:4 structured-sparse
// form: 2 stored (value, in-group position) entries per group of 4
// columns, row-major. It is the float-space twin of sparse.E24 — the
// evaluator compacts decoded cluster indices through the centroid table
// into Val without ever materializing a dense weight matrix.
//
// Contract: entries must be in canonical compact form — within each
// group, nonzero values first in ascending position (each position in
// [0, 4) and, in a partial trailing group, within the matrix), then
// (0, 0) pads. The kernels trust this: it guarantees in-bounds gathers
// and the exact ascending-column accumulation order of the dense
// kernels, which is what makes them bit-identical (see mulABtBand).
// sparse.Compact24Row emits exactly this form, from any decoded 2:4
// row.
type Sparse24 struct {
	Rows, Cols int
	// GroupsPerRow is ceil(Cols/4).
	GroupsPerRow int
	// Val and Pos hold 2*GroupsPerRow entries per row.
	Val []float32
	Pos []uint8
}

// NewSparse24 allocates an all-zero (all-pad) rows x cols 2:4 matrix.
func NewSparse24(rows, cols int) *Sparse24 {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	gpr := (cols + 3) / 4
	n := rows * gpr * 2
	return &Sparse24{
		Rows: rows, Cols: cols, GroupsPerRow: gpr,
		Val: make([]float32, n), Pos: make([]uint8, n),
	}
}

func (w *Sparse24) dims() (rows, cols int) { return w.Rows, w.Cols }

// mulBand computes rows [lo, hi) of dst = w*b where w is 2:4 compact:
// axpyRows over each row's stored non-zero entries, gathered in
// ascending column order (see fcGather.gather). The dense kernel skips
// the other, zero weights of the decoded row, so dst is bit-identical to
// it on the decoded matrix, with at most half the MACs.
func (w *Sparse24) mulBand(dst []float32, b gemmSrc, lo, hi int) {
	var g fcGather
	for i := lo; i < hi; i++ {
		dr := dst[i*b.n : (i+1)*b.n]
		clear(dr)
		for c0 := 0; c0 < w.Cols; c0 += fcChunk {
			ne := g.gather(w, i, c0, min(c0+fcChunk, w.Cols))
			for e, c := range g.c[:ne] {
				g.c[e] = b.off[c0+c] // a column's source row offset
			}
			axpyRows(dr, g.w[:ne], b.data, g.c[:ne])
		}
	}
	count24(hi-lo, b.keep, w.Cols, w.GroupsPerRow)
}

// count24 publishes the group/skipped-MAC telemetry for a kernel call
// covering rows output rows of n kept dots against a k-column 2:4
// matrix.
func count24(rows, n, k, gpr int) {
	met24.groups.Add(int64(rows) * int64(n) * int64(gpr))
	if skipped := k - 2*gpr; skipped > 0 {
		met24.skippedMACs.Add(int64(rows) * int64(n) * int64(skipped))
	}
}

// mulABtBand computes rows [lo, hi) of dst = a * wᵀ serially with the FC
// kernel (see mulABtGathered) over w's stored entries: the dense kernel
// on the decoded matrix skips the same zero weights, so dst is
// bit-identical to it, with at most half the MACs.
func (w *Sparse24) mulABtBand(dst, a *Matrix, lo, hi int) {
	mulABtGathered(dst, a, w, nil, lo, hi)
	count24(hi-lo, w.Rows, a.Cols, w.GroupsPerRow)
}

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
// the twin of the dense mulBand with the entry loop over stored entries
// instead of all k columns. Canonical entry order means the surviving
// b-rows are walked in the same ascending-p order as the dense kernel
// walking the decoded matrix (unstored and zero-valued positions
// contribute nothing there because it skips zero weights), so dst is
// bit-identical to the dense kernel on the decoded matrix — with at most
// half the MACs.
func (w *Sparse24) mulBand(dst []float32, b gemmSrc, lo, hi int) {
	n := b.n
	gpr := w.GroupsPerRow
	ne := 2 * gpr
	for i := lo; i < hi; i++ {
		dr := dst[i*n : (i+1)*n]
		for j := range dr {
			dr[j] = 0
		}
		wr := w.Val[i*ne : (i+1)*ne : (i+1)*ne]
		pr := w.Pos[i*ne : (i+1)*ne : (i+1)*ne]
		col := 0
		for e := 0; e < len(wr); e++ {
			wv := wr[e]
			if wv != 0 { // pads (and zero centroids) contribute nothing
				axpy(dr, b.data[b.off[col+int(pr[e])]:], wv)
			}
			col += 4 * (e & 1)
		}
	}
	count24(hi-lo, b.keep, w.Cols, gpr)
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

// mulABtBand computes rows [lo, hi) of dst = a * wᵀ serially, where w
// is a 2:4 compact weight matrix: the twin of the dense mulABtBand for
// the fully-connected forward pass. Each dot walks w's stored entries in
// ascending column order, gathering the 2 live a-columns per group —
// half the MACs of the dense kernel. A dense dot's extra terms all have
// a zero weight factor, so by the ±0 rule (see Operand) the result is
// bit-identical to the dense kernel against the decoded matrix. Every
// gathered activation is multiplied, zeros included, by the same rule.
//
// Four batch rows are processed per pass: the stored entries are decoded
// once and feed four independent accumulator chains, which hides the FMA
// latency a single serial chain exposes (and quarters the entry-decode
// overhead). Each accumulator still sums its own row's terms in the same
// ascending-column order, so the parity argument is per-row unchanged.
func (w *Sparse24) mulABtBand(dst, a *Matrix, lo, hi int) {
	k, n := a.Cols, w.Rows
	gpr := w.GroupsPerRow
	ne := 2 * gpr
	i := lo
	for ; i+4 <= hi; i += 4 {
		ar0 := a.Data[(i+0)*k : (i+1)*k]
		ar1 := a.Data[(i+1)*k : (i+2)*k]
		ar2 := a.Data[(i+2)*k : (i+3)*k]
		ar3 := a.Data[(i+3)*k : (i+4)*k]
		dr0 := dst.Data[(i+0)*n : (i+1)*n]
		dr1 := dst.Data[(i+1)*n : (i+2)*n]
		dr2 := dst.Data[(i+2)*n : (i+3)*n]
		dr3 := dst.Data[(i+3)*n : (i+4)*n]
		for j := 0; j < n; j++ {
			wr := w.Val[j*ne : (j+1)*ne : (j+1)*ne]
			pr := w.Pos[j*ne : (j+1)*ne : (j+1)*ne]
			var acc0, acc1, acc2, acc3 float32
			col := 0
			for e := 0; e < len(wr); e += 2 {
				if wv := wr[e]; wv != 0 {
					c := col + int(pr[e])
					acc0 += ar0[c] * wv
					acc1 += ar1[c] * wv
					acc2 += ar2[c] * wv
					acc3 += ar3[c] * wv
				}
				if wv := wr[e+1]; wv != 0 {
					c := col + int(pr[e+1])
					acc0 += ar0[c] * wv
					acc1 += ar1[c] * wv
					acc2 += ar2[c] * wv
					acc3 += ar3[c] * wv
				}
				col += 4
			}
			dr0[j], dr1[j], dr2[j], dr3[j] = acc0, acc1, acc2, acc3
		}
	}
	for ; i < hi; i++ {
		ar := a.Data[i*k : (i+1)*k]
		dr := dst.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			wr := w.Val[j*ne : (j+1)*ne : (j+1)*ne]
			pr := w.Pos[j*ne : (j+1)*ne : (j+1)*ne]
			var acc float32
			col := 0
			for e := 0; e < len(wr); e += 2 {
				if wv := wr[e]; wv != 0 {
					acc += ar[col+int(pr[e])] * wv
				}
				if wv := wr[e+1]; wv != 0 {
					acc += ar[col+int(pr[e+1])] * wv
				}
				col += 4
			}
			dr[j] = acc
		}
	}
	count24(hi-lo, n, k, gpr)
}

// Package quant implements the DNN model optimizations from Section 3.1
// of the paper: magnitude-based weight pruning and per-layer k-means
// weight clustering (4-7 bit cluster indices), plus a fixed-point
// quantization baseline the paper compares against.
//
// The output of this package — per-layer cluster index streams with small
// lookup tables — is the input to the sparse encoders (internal/sparse)
// and fault-injection pipeline (internal/ares).
package quant

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// Prune zeroes the smallest-magnitude weights of w in place until the
// target fraction of zeros is reached (counting pre-existing zeros). For
// layers above exactLimit values the threshold is estimated from a
// deterministic sample, so achieved sparsity may deviate by a fraction of
// a percent; below the limit it is exact.
func Prune(w *tensor.Matrix, sparsity float64, seed uint64) {
	if sparsity <= 0 {
		return
	}
	if sparsity >= 1 {
		w.Fill(0)
		return
	}
	n := len(w.Data)
	if n == 0 {
		return
	}
	const exactLimit = 1 << 21 // 2M values
	if n <= exactLimit {
		k := int(sparsity * float64(n))
		if k <= 0 {
			return
		}
		if k >= n {
			k = n - 1
		}
		mags := make([]float32, n)
		for i, v := range w.Data {
			mags[i] = abs32(v)
		}
		zeroBelow(w.Data, float64(kthSmallest(mags, k)), k)
		return
	}
	// Sampled threshold for very large layers.
	src := stats.NewSource(seed)
	const sample = 1 << 18
	mags := make([]float32, sample)
	for i := range mags {
		mags[i] = abs32(w.Data[src.Intn(n)])
	}
	thr := float64(kthSmallest(mags, int(sparsity*float64(sample))))
	for i, v := range w.Data {
		if math.Abs(float64(v)) < thr {
			w.Data[i] = 0
		}
	}
}

// abs32 is |v|. Widening it to float64 gives math.Abs(float64(v))
// exactly, so thresholds selected in float32 compare the same.
func abs32(v float32) float32 { return float32(math.Abs(float64(v))) }

// kthSmallest returns the k-th smallest (0-based) value of xs: the value
// a sort would leave at xs[k]. It reorders xs. It is quickselect with a
// median-of-three pivot, and it sorts what is left of the range once it
// has partitioned 2*log2(n) times.
func kthSmallest(xs []float32, k int) float32 {
	lo, hi := 0, len(xs)-1
	for depth := 2 * bits.Len(uint(len(xs))); lo < hi; depth-- {
		if depth == 0 {
			slices.Sort(xs[lo : hi+1])
			break
		}
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi]
		p := max(min(a, b), min(max(a, b), c)) // median of the three
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for p < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo..j] <= p <= xs[i..hi], and anything between is p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// zeroBelow zeroes values with |v| < thr, and then, to hit the exact
// count k, zeroes values equal in magnitude to thr until k zeros exist.
func zeroBelow(data []float32, thr float64, k int) {
	zeros := 0
	for i, v := range data {
		if math.Abs(float64(v)) < thr {
			data[i] = 0
			zeros++
		}
	}
	if zeros >= k {
		return
	}
	for i, v := range data {
		if zeros >= k {
			break
		}
		if v != 0 && math.Abs(float64(v)) == thr {
			data[i] = 0
			zeros++
		}
	}
}

// Clustered is a layer's weights in pruned + clustered (P+C) form: every
// weight is an IndexBits-wide cluster index into the Centroids lookup
// table. Index 0 is reserved for the exact value 0 so that pruning-induced
// sparsity survives clustering (the property the sparse encoders exploit).
type Clustered struct {
	Rows, Cols int
	IndexBits  int
	// Centroids has 1<<IndexBits entries; Centroids[0] == 0.
	Centroids []float32
	// Indices holds one cluster index per weight, row-major.
	Indices []uint8
}

// ClusterOptions tunes Cluster.
type ClusterOptions struct {
	// SampleLimit bounds the number of non-zero weights fed to k-means;
	// above it, a deterministic subsample is clustered and the weights are
	// assigned to the resulting centroids. Zero means 1<<17.
	SampleLimit int
	// MaxIter bounds Lloyd iterations (default 40).
	MaxIter int
	// Seed drives subsampling.
	Seed uint64
}

// Cluster quantizes a weight matrix to 1<<bits shared values: centroid 0
// is pinned to zero, the remaining (1<<bits)-1 centroids come from k-means
// over the non-zero weights. bits is at most 8, the width of an index.
func Cluster(w *tensor.Matrix, bits int, opt ClusterOptions) *Clustered {
	return ClusterRows(w, bits, opt, nil)
}

// ClusterRows is Cluster for the listed rows of w: the centroids come
// from the non-zero weights of the whole matrix, as in Cluster, but only
// the listed rows are assigned indices, in the order given. nil lists
// every row.
func ClusterRows(w *tensor.Matrix, bits int, opt ClusterOptions, rows []int) *Clustered {
	if bits < 1 || bits > 8 {
		panic(fmt.Sprintf("quant: Cluster bits %d out of range [1,8]", bits))
	}
	if opt.SampleLimit == 0 {
		opt.SampleLimit = 1 << 17
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 40
	}
	k := (1 << bits) - 1 // non-zero clusters
	nRows := w.Rows
	if rows != nil {
		nRows = len(rows)
	}
	c := &Clustered{
		Rows: nRows, Cols: w.Cols, IndexBits: bits,
		Centroids: make([]float32, 1<<bits),
		Indices:   make([]uint8, nRows*w.Cols),
	}

	// Collect non-zero weights (sampled if huge).
	var nz []float64
	nnzTotal := 0
	for _, v := range w.Data {
		if v != 0 {
			nnzTotal++
		}
	}
	if nnzTotal == 0 {
		return c
	}
	if nnzTotal <= opt.SampleLimit {
		nz = make([]float64, 0, nnzTotal)
		for _, v := range w.Data {
			if v != 0 {
				nz = append(nz, float64(v))
			}
		}
	} else {
		src := stats.NewSource(opt.Seed)
		nz = make([]float64, 0, opt.SampleLimit)
		for len(nz) < opt.SampleLimit {
			v := w.Data[src.Intn(len(w.Data))]
			if v != 0 {
				nz = append(nz, float64(v))
			}
		}
	}

	km := stats.KMeans1D(nz, k, opt.MaxIter)
	for i := 0; i < k; i++ {
		c.Centroids[i+1] = float32(km.Centroids[i])
	}
	// Assign every kept weight: zeros to index 0, others to the nearest
	// centroid.
	for r := 0; r < nRows; r++ {
		from := r
		if rows != nil {
			from = rows[r]
		}
		dst := c.Indices[r*w.Cols : (r+1)*w.Cols]
		for i, v := range w.Data[from*w.Cols : (from+1)*w.Cols] {
			if v != 0 {
				dst[i] = uint8(stats.NearestIndex(km.Centroids, float64(v))) + 1
			}
		}
	}
	return c
}

// StridedRows returns the evenly strided rows that stand for a rows x
// cols layer within maxWeights weights, or nil when the layer fits (or
// maxWeights is 0). The subsample keeps whole rows, so it preserves the
// per-row sparsity structure the CSR and bitmask cascades depend on.
func StridedRows(rows, cols, maxWeights int) []int {
	if maxWeights <= 0 || rows*cols <= maxWeights {
		return nil
	}
	rowsWanted := max(maxWeights/cols, 1)
	if rowsWanted >= rows {
		return nil
	}
	stride := float64(rows) / float64(rowsWanted)
	out := make([]int, rowsWanted)
	for r := range out {
		out[r] = min(int(float64(r)*stride), rows-1)
	}
	return out
}

// NNZ returns the number of non-zero (index != 0) weights.
func (c *Clustered) NNZ() int {
	n := 0
	for _, idx := range c.Indices {
		if idx != 0 {
			n++
		}
	}
	return n
}

// Sparsity returns the fraction of zero-index weights.
func (c *Clustered) Sparsity() float64 {
	if len(c.Indices) == 0 {
		return 0
	}
	return 1 - float64(c.NNZ())/float64(len(c.Indices))
}

// Apply writes the reconstructed weights into dst (same shape).
func (c *Clustered) Apply(dst *tensor.Matrix) {
	if dst.Rows != c.Rows || dst.Cols != c.Cols {
		panic("quant: Apply shape mismatch")
	}
	for i, idx := range c.Indices {
		dst.Data[i] = c.Centroids[idx]
	}
}

// RawBits returns the storage cost of the P+C representation in bits:
// one index per weight plus the lookup table (float16 per centroid, as
// the paper's 16-bit baseline datatype).
func (c *Clustered) RawBits() int64 {
	return int64(len(c.Indices))*int64(c.IndexBits) + int64(len(c.Centroids))*16
}

// QuantError returns the root-mean-square reconstruction error versus the
// original weights.
func (c *Clustered) QuantError(orig *tensor.Matrix) float64 {
	if len(orig.Data) != len(c.Indices) {
		panic("quant: QuantError shape mismatch")
	}
	var ss float64
	for i, idx := range c.Indices {
		d := float64(orig.Data[i] - c.Centroids[idx])
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(c.Indices)))
}

// FixedPoint quantizes w in place to a signed fixed-point format with the
// given total bits (1 sign bit, intBits integer bits, remaining fraction
// bits). It is the baseline bit-reduction technique the paper compares
// clustering against (Section 3.1.2); clustering strictly wins on bits
// per weight for the evaluated models.
func FixedPoint(w *tensor.Matrix, totalBits, intBits int) {
	if totalBits < 2 || intBits < 0 || intBits > totalBits-1 {
		panic("quant: invalid fixed-point format")
	}
	fracBits := totalBits - 1 - intBits
	scale := math.Pow(2, float64(fracBits))
	maxQ := math.Pow(2, float64(totalBits-1)) - 1
	for i, v := range w.Data {
		q := math.Round(float64(v) * scale)
		if q > maxQ {
			q = maxQ
		}
		if q < -maxQ-1 {
			q = -maxQ - 1
		}
		w.Data[i] = float32(q / scale)
	}
}

// FixedPointBitsRequired returns the minimum total bit width (including
// sign) such that fixed-point quantization keeps RMS error under
// rmsTarget, scanning widths 2..16. Returns 17 if none suffice.
func FixedPointBitsRequired(w *tensor.Matrix, rmsTarget float64) int {
	// Choose integer bits from the dynamic range.
	var maxAbs float64
	for _, v := range w.Data {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	intBits := 0
	for math.Pow(2, float64(intBits)) < maxAbs {
		intBits++
	}
	for bits := 2; bits <= 16; bits++ {
		if bits-1 < intBits {
			continue
		}
		q := w.Clone()
		FixedPoint(q, bits, intBits)
		var ss float64
		for i := range q.Data {
			d := float64(q.Data[i] - w.Data[i])
			ss += d * d
		}
		rms := math.Sqrt(ss / float64(len(w.Data)))
		if rms <= rmsTarget {
			return bits
		}
	}
	return 17
}

package quant

// Sort-based references, kept verbatim from before the selected prune
// threshold and the row-restricted assignment: refPrune sorts every
// magnitude to read the threshold, refCluster assigns an index to every
// weight, and refSubsampleRows (formerly in internal/core) copies the
// strided rows out of the full result. The differential tests hold
// Prune, ClusterRows and StridedRows to them bit for bit.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// refPrune zeroes the smallest-magnitude weights of w in place until the
// target fraction of zeros is reached (counting pre-existing zeros). For
// layers above exactLimit values the threshold is estimated from a
// deterministic sample, so achieved sparsity may deviate by a fraction of
// a percent; below the limit it is exact.
func refPrune(w *tensor.Matrix, sparsity float64, seed uint64) {
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
	const exactLimit = 1 << 21 // 2M values: full sort is still fast
	if n <= exactLimit {
		mags := make([]float64, n)
		for i, v := range w.Data {
			mags[i] = math.Abs(float64(v))
		}
		sort.Float64s(mags)
		k := int(sparsity * float64(n))
		if k <= 0 {
			return
		}
		if k >= n {
			k = n - 1
		}
		thr := mags[k]
		zeroBelow(w.Data, thr, k)
		return
	}
	// Sampled threshold for very large layers.
	src := stats.NewSource(seed)
	const sample = 1 << 18
	mags := make([]float64, sample)
	for i := range mags {
		mags[i] = math.Abs(float64(w.Data[src.Intn(n)]))
	}
	sort.Float64s(mags)
	thr := mags[int(sparsity*float64(sample))]
	for i, v := range w.Data {
		if math.Abs(float64(v)) < thr {
			w.Data[i] = 0
		}
	}
}

// refCluster quantizes a weight matrix to 1<<bits shared values: centroid 0
// is pinned to zero, the remaining (1<<bits)-1 centroids come from k-means
// over the non-zero weights.
func refCluster(w *tensor.Matrix, bits int, opt ClusterOptions) *Clustered {
	if bits < 1 || bits > 16 {
		panic(fmt.Sprintf("quant: Cluster bits %d out of range [1,16]", bits))
	}
	if opt.SampleLimit == 0 {
		opt.SampleLimit = 1 << 17
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 40
	}
	k := (1 << bits) - 1 // non-zero clusters
	c := &Clustered{
		Rows: w.Rows, Cols: w.Cols, IndexBits: bits,
		Centroids: make([]float32, 1<<bits),
		Indices:   make([]uint8, len(w.Data)),
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
	// Assign every weight: zeros to index 0, others to nearest centroid.
	for i, v := range w.Data {
		if v == 0 {
			c.Indices[i] = 0
			continue
		}
		c.Indices[i] = uint8(stats.NearestIndex(km.Centroids, float64(v))) + 1
	}
	return c
}

// refSubsampleRows keeps an evenly strided subset of rows so the subsample
// preserves per-row sparsity structure (what the CSR and bitmask cascade
// behaviour depends on).
func refSubsampleRows(cl *Clustered, maxWeights int) *Clustered {
	rowsWanted := maxWeights / cl.Cols
	if rowsWanted < 1 {
		rowsWanted = 1
	}
	if rowsWanted >= cl.Rows {
		return cl
	}
	stride := float64(cl.Rows) / float64(rowsWanted)
	out := &Clustered{
		Rows: rowsWanted, Cols: cl.Cols, IndexBits: cl.IndexBits,
		Centroids: cl.Centroids,
		Indices:   make([]uint8, rowsWanted*cl.Cols),
	}
	for r := 0; r < rowsWanted; r++ {
		srcRow := int(float64(r) * stride)
		if srcRow >= cl.Rows {
			srcRow = cl.Rows - 1
		}
		copy(out.Indices[r*cl.Cols:(r+1)*cl.Cols],
			cl.Indices[srcRow*cl.Cols:(srcRow+1)*cl.Cols])
	}
	return out
}

// matrixOf returns a rows x cols matrix filled by gen.
func matrixOf(rows, cols int, gen func(i int) float32) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = gen(i)
	}
	return m
}

// sameBits reports the first index at which a and b differ in bits, or -1.
func sameBits(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

func TestPruneMatchesReference(t *testing.T) {
	src := stats.NewSource(51)
	gauss := func(int) float32 { return float32(src.Gaussian(0, 0.1)) }
	// Few distinct magnitudes, both signs: the threshold lands on a tie
	// that zeroBelow must break by position.
	levels := []float32{-2, -1, -0.5, 0.5, 1, 2}
	tied := func(int) float32 { return levels[src.Intn(len(levels))] }
	halfZero := func(i int) float32 {
		if i%2 == 0 {
			return 0
		}
		return float32(src.Gaussian(0, 1))
	}
	ascending := func(i int) float32 { return float32(i) }
	organPipe := func(i int) float32 { return float32(min(i, 4000-i)) }
	const big = 1<<21 + 4096 // above the exact limit: sampled threshold
	cases := []struct {
		name       string
		rows, cols int
		gen        func(int) float32
		sparsity   []float64
	}{
		{"gaussian", 100, 100, gauss, []float64{0.3, 0.5, 0.9, 0.99}},
		{"ties at threshold", 64, 50, tied, []float64{0.2, 0.5, 0.7, 0.9}},
		{"pre-existing zeros", 40, 40, halfZero, []float64{0.3, 0.5, 0.75}},
		{"ascending", 1, 4000, ascending, []float64{0.1, 0.9}},
		{"organ pipe", 1, 4000, organPipe, []float64{0.25, 0.6}},
		{"constant", 10, 10, func(int) float32 { return 0.5 }, []float64{0.5}},
		{"one value", 1, 1, func(int) float32 { return -3 }, []float64{0.5, 0.999}},
		{"k rounds to zero", 3, 3, gauss, []float64{0.1}},
		{"near one", 50, 40, gauss, []float64{0.9999, 1 - 1e-9}},
		{"sampled gaussian", 1, big, gauss, []float64{0.5, 0.9}},
		{"sampled ties", 1, big, tied, []float64{0.5}},
	}
	for _, c := range cases {
		orig := matrixOf(c.rows, c.cols, c.gen)
		for _, sp := range c.sparsity {
			got, want := orig.Clone(), orig.Clone()
			Prune(got, sp, 9)
			refPrune(want, sp, 9)
			if i := sameBits(got.Data, want.Data); i >= 0 {
				t.Errorf("%s at sparsity %v: weight %d differs from the reference", c.name, sp, i)
			}
		}
	}
}

func TestKthSmallestMatchesSort(t *testing.T) {
	src := stats.NewSource(52)
	for trial := 0; trial < 300; trial++ {
		n := 1 + src.Intn(200)
		span := 1 + src.Intn(n+1) // small spans give many duplicates
		xs := make([]float32, n)
		for i := range xs {
			xs[i] = float32(src.Intn(span))
		}
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		for k := 0; k < n; k++ {
			if got := kthSmallest(slices.Clone(xs), k); got != sorted[k] {
				t.Fatalf("n=%d span=%d k=%d: got %v, want %v", n, span, k, got, sorted[k])
			}
		}
	}
}

// refClusterCapped is the former Prepare step: cluster every weight,
// then copy out the strided rows when the layer exceeds maxWeights.
func refClusterCapped(w *tensor.Matrix, bits int, opt ClusterOptions, maxWeights int) *Clustered {
	cl := refCluster(w, bits, opt)
	if maxWeights > 0 && len(cl.Indices) > maxWeights {
		cl = refSubsampleRows(cl, maxWeights)
	}
	return cl
}

func TestClusterRowsMatchesReference(t *testing.T) {
	cases := []struct {
		rows, cols, bits int
		sparsity         float64
		opt              ClusterOptions
		maxWeights       []int
	}{
		{120, 90, 4, 0.9, ClusterOptions{Seed: 3}, []int{0, 5000, 90 * 120, 90*120 - 1}},
		{300, 64, 6, 0.7, ClusterOptions{Seed: 4, SampleLimit: 2000}, []int{0, 1 << 12, 1000}},
		{1000, 7, 3, 0.5, ClusterOptions{Seed: 5, MaxIter: 5}, []int{0, 2000, 7}},
		{1, 500, 8, 0.6, ClusterOptions{Seed: 6}, []int{0, 100}},
		{50, 300, 1, 0.8, ClusterOptions{Seed: 7}, []int{0, 299, 1}},
		{40, 40, 2, 1, ClusterOptions{Seed: 8}, []int{0, 500}}, // all zeros
	}
	for _, c := range cases {
		w := gaussianMatrix(c.rows, c.cols, uint64(c.rows))
		Prune(w, c.sparsity, 1)
		for _, mw := range c.maxWeights {
			name := fmt.Sprintf("%dx%d bits=%d cap=%d", c.rows, c.cols, c.bits, mw)
			got := ClusterRows(w, c.bits, c.opt, StridedRows(w.Rows, w.Cols, mw))
			want := refClusterCapped(w, c.bits, c.opt, mw)
			if got.Rows != want.Rows || got.Cols != want.Cols || got.IndexBits != want.IndexBits {
				t.Errorf("%s: shape %dx%d/%d bits, reference %dx%d/%d", name,
					got.Rows, got.Cols, got.IndexBits, want.Rows, want.Cols, want.IndexBits)
				continue
			}
			if i := sameBits(got.Centroids, want.Centroids); i >= 0 {
				t.Errorf("%s: centroid %d differs from the reference", name, i)
			}
			for i := range want.Indices {
				if got.Indices[i] != want.Indices[i] {
					t.Errorf("%s: index %d = %d, reference %d", name, i, got.Indices[i], want.Indices[i])
					break
				}
			}
		}
	}
}

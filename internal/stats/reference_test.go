package stats

// Binary-search k-means reference: the Lloyd loop as it was before the
// sorted-sweep assignment, kept verbatim. Each datum finds its centroid
// with sort.SearchFloat64s in data order. The differential tests hold
// KMeans1D to it bit for bit: centroids, inertia, assignments and
// iteration count.

import (
	"math"
	"sort"
	"testing"
)

// refKMeans1D clusters scalar data into k clusters using Lloyd's algorithm
// with deterministic quantile-based initialization. It is the weight
// clustering primitive from Section 3.1.2 of the paper: each DNN layer's
// weights are mapped to 16..128 unique values so every weight can be
// stored as a 4-7 bit cluster index.
//
// The data slice is not modified. k must be >= 1. If the data has fewer
// than k distinct values, duplicate centroids may result; assignment is
// still well-defined (lowest matching centroid index wins).
func refKMeans1D(data []float64, k int, maxIter int) KMeans1DResult {
	if k < 1 {
		panic("stats: KMeans1D requires k >= 1")
	}
	n := len(data)
	res := KMeans1DResult{
		Centroids: make([]float64, k),
		Assign:    make([]int, n),
	}
	if n == 0 {
		return res
	}
	// Quantile initialization over the sorted data: deterministic and far
	// more robust for weight distributions (heavy mass near zero) than
	// uniform range splitting.
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	for j := 0; j < k; j++ {
		q := (float64(j) + 0.5) / float64(k)
		idx := int(q * float64(n))
		if idx >= n {
			idx = n - 1
		}
		res.Centroids[j] = sorted[idx]
	}
	if maxIter <= 0 {
		maxIter = 50
	}

	counts := make([]int, k)
	sums := make([]float64, k)
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		sort.Float64s(res.Centroids)
		changed := refAssignNearestSorted(data, res.Centroids, res.Assign)
		for j := range counts {
			counts[j] = 0
			sums[j] = 0
		}
		for i, a := range res.Assign {
			counts[a]++
			sums[a] += data[i]
		}
		for j := range res.Centroids {
			if counts[j] > 0 {
				res.Centroids[j] = sums[j] / float64(counts[j])
			}
		}
		if !changed && iter > 0 {
			break
		}
	}
	sort.Float64s(res.Centroids)
	refAssignNearestSorted(data, res.Centroids, res.Assign)
	for i, a := range res.Assign {
		d := data[i] - res.Centroids[a]
		res.Inertia += d * d
	}
	return res
}

// refAssignNearestSorted assigns each datum to its nearest centroid (centroids
// must be sorted ascending) and reports whether any assignment changed.
func refAssignNearestSorted(data, centroids []float64, assign []int) bool {
	changed := false
	k := len(centroids)
	for i, x := range data {
		// Binary search for the insertion point, then compare neighbors.
		j := sort.SearchFloat64s(centroids, x)
		best := j
		if best >= k {
			best = k - 1
		}
		if j > 0 {
			if best >= k || math.Abs(x-centroids[j-1]) <= math.Abs(x-centroids[best]) {
				best = j - 1
			}
		}
		if assign[i] != best {
			assign[i] = best
			changed = true
		}
	}
	return changed
}

// checkKMeansMatches fails t unless KMeans1D and the reference agree bit
// for bit on data.
func checkKMeansMatches(t *testing.T, name string, data []float64, k, maxIter int) {
	t.Helper()
	got := KMeans1D(data, k, maxIter)
	want := refKMeans1D(data, k, maxIter)
	if got.Iterations != want.Iterations {
		t.Errorf("%s: iterations %d, reference %d", name, got.Iterations, want.Iterations)
	}
	if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
		t.Errorf("%s: inertia %v, reference %v", name, got.Inertia, want.Inertia)
	}
	for j := range want.Centroids {
		if math.Float64bits(got.Centroids[j]) != math.Float64bits(want.Centroids[j]) {
			t.Errorf("%s: centroid %d = %v (%#x), reference %v (%#x)", name, j,
				got.Centroids[j], math.Float64bits(got.Centroids[j]),
				want.Centroids[j], math.Float64bits(want.Centroids[j]))
			break
		}
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Errorf("%s: assign[%d] = %d, reference %d", name, i, got.Assign[i], want.Assign[i])
			break
		}
	}
}

func TestKMeans1DMatchesReference(t *testing.T) {
	src := NewSource(41)
	gauss := func(n int, sigma float64) []float64 {
		d := make([]float64, n)
		for i := range d {
			d[i] = src.Gaussian(0, sigma)
		}
		return d
	}
	// Small integers: many duplicates and many data exactly halfway
	// between two centroids.
	ints := func(n, span int) []float64 {
		d := make([]float64, n)
		for i := range d {
			d[i] = float64(src.Intn(span) - span/2)
		}
		return d
	}
	negZero := math.Copysign(0, -1)
	signedZeros := []float64{0, negZero, 0, negZero, negZero, 0, 1, -1, 0.5}
	cases := []struct {
		name       string
		data       []float64
		k, maxIter int
	}{
		{"gaussian", gauss(4000, 0.1), 15, 40},
		{"gaussian k=127", gauss(3000, 0.05), 127, 40},
		{"gaussian default iters", gauss(1500, 1), 31, 0},
		{"one iteration", gauss(500, 1), 7, 1},
		{"k=1", gauss(200, 1), 1, 10},
		{"n<k", []float64{3, -1, 2}, 8, 10},
		{"single value", []float64{0.25}, 4, 10},
		{"constant", []float64{0.5, 0.5, 0.5, 0.5, 0.5}, 3, 10},
		{"fewer distinct than k", ints(300, 4), 16, 40},
		{"duplicates", ints(1000, 21), 7, 40},
		{"midpoint tie", []float64{0, 0, 1, 1, 2, 2}, 2, 10},
		{"signed zeros", signedZeros, 3, 10},
		{"signed zeros only", []float64{negZero, 0, negZero, 0}, 2, 10},
		{"empty", nil, 4, 10},
	}
	for _, c := range cases {
		checkKMeansMatches(t, c.name, c.data, c.k, c.maxIter)
	}
}

// FuzzKMeans1D holds KMeans1D to the reference on byte-derived data:
// each byte is a multiple of 1/8 in [-16, 16), 0x80 reads as -0, so
// duplicates, midpoint ties and signed zeros are common.
func FuzzKMeans1D(f *testing.F) {
	f.Add([]byte{0, 0, 8, 8, 16, 16}, uint8(1), uint8(10))
	f.Add([]byte{0x80, 0, 0x80, 1, 0xff}, uint8(2), uint8(0))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(14), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, k, maxIter uint8) {
		if len(raw) > 1024 {
			raw = raw[:1024]
		}
		data := make([]float64, len(raw))
		for i, b := range raw {
			data[i] = float64(int8(b)) / 8
			if b == 0x80 {
				data[i] = math.Copysign(0, -1)
			}
		}
		checkKMeansMatches(t, "fuzz", data, 1+int(k)%64, int(maxIter)%12)
	})
}

package stats

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// KMeans1DResult holds the outcome of one-dimensional k-means clustering.
type KMeans1DResult struct {
	// Centroids are the final cluster centers, sorted ascending.
	Centroids []float64
	// Assign maps each input index to the index of its centroid.
	Assign []int
	// Iterations is the number of Lloyd iterations executed.
	Iterations int
	// Inertia is the final sum of squared distances to assigned centroids.
	Inertia float64
}

// KMeans1D clusters scalar data into k clusters using Lloyd's algorithm
// with deterministic quantile-based initialization. It is the weight
// clustering primitive from Section 3.1.2 of the paper: each DNN layer's
// weights are mapped to 16..128 unique values so every weight can be
// stored as a 4-7 bit cluster index.
//
// The data slice is not modified and must be finite. k must be >= 1. If
// the data has fewer than k distinct values, duplicate centroids may
// result; assignment is still well-defined (lowest matching centroid
// index wins).
func KMeans1D(data []float64, k int, maxIter int) KMeans1DResult {
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
	// The data is sorted once, each value with its index: quantile
	// initialization reads the sorted values and every assignment pass
	// searches them. slices.SortFunc with cmp.Compare runs the same
	// pdqsort steps as sort.Float64s, so equal values (±0) land where they
	// would in a plain sort of the values.
	sorted := make([]ranked, n)
	for i, x := range data {
		sorted[i] = ranked{x, i}
	}
	slices.SortFunc(sorted, func(a, b ranked) int { return cmp.Compare(a.x, b.x) })
	// Quantile initialization: deterministic and far more robust for
	// weight distributions (heavy mass near zero) than uniform range
	// splitting.
	for j := 0; j < k; j++ {
		q := (float64(j) + 0.5) / float64(k)
		idx := int(q * float64(n))
		if idx >= n {
			idx = n - 1
		}
		res.Centroids[j] = sorted[idx].x
	}
	if maxIter <= 0 {
		maxIter = 50
	}

	// steps describes res.Assign over the sorted data (see assignSteps);
	// every datum starts at centroid 0.
	steps, next := make([]int, k+1), make([]int, k+1)
	for j := 1; j <= k; j++ {
		steps[j] = n
	}
	sums := make([]float64, k)
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		sort.Float64s(res.Centroids)
		changed := assignSteps(sorted, res.Centroids, steps, next, res.Assign)
		steps, next = next, steps
		for j := range sums {
			sums[j] = 0
		}
		// Summed in data order, not sorted order, so the centroids
		// round the same however the data was arranged for the search.
		for i, a := range res.Assign {
			sums[a] += data[i]
		}
		for j := range res.Centroids {
			if count := steps[j+1] - steps[j]; count > 0 {
				res.Centroids[j] = sums[j] / float64(count)
			}
		}
		if !changed && iter > 0 {
			break
		}
	}
	sort.Float64s(res.Centroids)
	assignSteps(sorted, res.Centroids, steps, next, res.Assign)
	for i, a := range res.Assign {
		d := data[i] - res.Centroids[a]
		res.Inertia += d * d
	}
	return res
}

// ranked is one datum and its index in the caller's data.
type ranked struct {
	x float64
	i int
}

// assignSteps assigns every datum to its nearest centroid (centroids
// must be sorted ascending) and reports whether any assignment changed.
// NearestIndex is non-decreasing in x, so over the sorted data the
// assignment is a step function: steps[a] is the first sorted position
// assigned to centroid a or above, with steps[0] = 0 and steps[k] = n.
// assignSteps finds each new step by binary search into next and
// rewrites assign, through each datum's index, only for the data that
// lie between a step's old and new positions.
func assignSteps(sorted []ranked, centroids []float64, steps, next, assign []int) bool {
	n, k := len(sorted), len(centroids)
	next[0], next[k] = 0, n
	for a := 1; a < k; a++ {
		lo := next[a-1]
		next[a] = lo + sort.Search(n-lo, func(r int) bool {
			return NearestIndex(centroids, sorted[lo+r].x) >= a
		})
	}
	changed := false
	for a := 0; a < k; a++ {
		// Data in [next[a], next[a+1]) go to a; those of them outside
		// [steps[a], steps[a+1]) went elsewhere before.
		lo, hi := next[a], next[a+1]
		for r := lo; r < min(hi, steps[a]); r++ {
			assign[sorted[r].i] = a
		}
		for r := max(lo, steps[a+1]); r < hi; r++ {
			assign[sorted[r].i] = a
		}
		changed = changed || next[a] != steps[a]
	}
	return changed
}

// NearestIndex returns the index of the centroid (sorted ascending)
// nearest to x.
func NearestIndex(centroids []float64, x float64) int {
	k := len(centroids)
	if k == 0 {
		panic("stats: NearestIndex on empty centroids")
	}
	j := sort.SearchFloat64s(centroids, x)
	if j >= k {
		return k - 1
	}
	if j > 0 && math.Abs(x-centroids[j-1]) <= math.Abs(x-centroids[j]) {
		return j - 1
	}
	return j
}

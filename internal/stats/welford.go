package stats

import "math"

// Welford is a streaming mean/variance accumulator (Welford's online
// algorithm). It lets a fault-injection campaign maintain running
// statistics over thousands of trials without retaining the samples, and
// — because updates are purely sequential — folding the same samples in
// the same order always reproduces bit-identical results, which the
// campaign checkpoint/resume contract relies on.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations folded so far.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Min returns the smallest observation (0 for an empty accumulator).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 for an empty accumulator).
func (w *Welford) Max() float64 { return w.max }

// Variance returns the sample variance (n-1 denominator; 0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n < 1 {
		return 0
	}
	return w.Std() / math.Sqrt(float64(w.n))
}

// CIHalfWidth returns the half-width of the two-sided normal confidence
// interval for the mean at the given confidence level (e.g. 0.95). It is
// 0 for fewer than two observations (no variance estimate yet) and panics
// for confidence outside [0.5, 1).
func (w *Welford) CIHalfWidth(confidence float64) float64 {
	if w.n < 2 {
		return 0
	}
	return ZScore(confidence) * w.StdErr()
}

// ZScore returns the two-sided normal critical value for the given
// confidence level: ZScore(0.95) ~= 1.96. Confidence must be in [0.5, 1).
func ZScore(confidence float64) float64 {
	if confidence < 0.5 || confidence >= 1 {
		panic("stats: ZScore confidence must be in [0.5, 1)")
	}
	return InvQ((1 - confidence) / 2)
}

package stats

import "math"

// Gaussian describes a normal distribution N(Mean, Sigma²). It is the
// primitive of the eNVM fault model: every programmed MLC level is a
// Gaussian read-current distribution, and the overlap between adjacent
// level distributions determines the inter-level misread probability.
type Gaussian struct {
	Mean  float64
	Sigma float64
}

// TailAbove returns P(X > x).
func (g Gaussian) TailAbove(x float64) float64 {
	if g.Sigma <= 0 {
		if x >= g.Mean {
			return 0
		}
		return 1
	}
	// Use erfc for numerical stability deep into the tail: the fault
	// model routinely evaluates probabilities down to ~1e-12.
	return 0.5 * math.Erfc((x-g.Mean)/(g.Sigma*math.Sqrt2))
}

// TailBelow returns P(X < x).
func (g Gaussian) TailBelow(x float64) float64 {
	if g.Sigma <= 0 {
		if x <= g.Mean {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc((g.Mean-x)/(g.Sigma*math.Sqrt2))
}

// MidpointThreshold returns the sensing threshold between two adjacent
// level distributions: the crossing point of the two (equal-prior)
// densities. For equal sigmas this is the midpoint of the means; for
// unequal sigmas it solves the quadratic density-equality condition and
// returns the root between the two means, which minimizes total misread
// probability (maximum-likelihood threshold).
func MidpointThreshold(lo, hi Gaussian) float64 {
	if hi.Mean < lo.Mean {
		lo, hi = hi, lo
	}
	if lo.Sigma == hi.Sigma || lo.Sigma <= 0 || hi.Sigma <= 0 {
		return (lo.Mean + hi.Mean) / 2
	}
	// Solve: log N(x; lo) = log N(x; hi)
	// => x²(1/slo² - 1/shi²) - 2x(mlo/slo² - mhi/shi²) + (mlo²/slo² - mhi²/shi²) + 2 ln(slo/shi) = 0
	slo2 := lo.Sigma * lo.Sigma
	shi2 := hi.Sigma * hi.Sigma
	a := 1/slo2 - 1/shi2
	b := -2 * (lo.Mean/slo2 - hi.Mean/shi2)
	c := lo.Mean*lo.Mean/slo2 - hi.Mean*hi.Mean/shi2 + 2*math.Log(lo.Sigma/hi.Sigma)
	disc := b*b - 4*a*c
	if disc < 0 {
		return (lo.Mean + hi.Mean) / 2
	}
	sq := math.Sqrt(disc)
	x1 := (-b + sq) / (2 * a)
	x2 := (-b - sq) / (2 * a)
	// Pick the root lying between the two means.
	if x1 >= lo.Mean && x1 <= hi.Mean {
		return x1
	}
	if x2 >= lo.Mean && x2 <= hi.Mean {
		return x2
	}
	return (lo.Mean + hi.Mean) / 2
}

// OverlapFaultProb returns, for a level with distribution g sensed against
// lower threshold tLo and upper threshold tHi, the probabilities of
// misreading the value as the level below (pDown) and the level above
// (pUp). Either threshold may be +-Inf for boundary levels.
func OverlapFaultProb(g Gaussian, tLo, tHi float64) (pDown, pUp float64) {
	if !math.IsInf(tLo, -1) {
		pDown = g.TailBelow(tLo)
	}
	if !math.IsInf(tHi, 1) {
		pUp = g.TailAbove(tHi)
	}
	return pDown, pUp
}

// QFunc is the Gaussian tail function Q(x) = P(Z > x) for standard normal Z.
func QFunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// InvQ returns the x such that QFunc(x) ~= p, via bisection. It is used to
// size guard bands: given a target fault rate, how many sigmas of margin
// are needed. p must be in (0, 0.5].
func InvQ(p float64) float64 {
	if p <= 0 || p > 0.5 {
		panic("stats: InvQ requires p in (0, 0.5]")
	}
	lo, hi := 0.0, 40.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if QFunc(mid) > p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

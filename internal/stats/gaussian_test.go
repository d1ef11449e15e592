package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// pdf returns the probability density of g at x.
func pdf(g Gaussian, x float64) float64 {
	if g.Sigma <= 0 {
		if x == g.Mean {
			return math.Inf(1)
		}
		return 0
	}
	z := (x - g.Mean) / g.Sigma
	return math.Exp(-0.5*z*z) / (g.Sigma * math.Sqrt(2*math.Pi))
}

// cdf returns P(X <= x) for X ~ g.
func cdf(g Gaussian, x float64) float64 {
	if g.Sigma <= 0 {
		if x < g.Mean {
			return 0
		}
		return 1
	}
	return 0.5 * (1 + math.Erf((x-g.Mean)/(g.Sigma*math.Sqrt2)))
}

func TestPDFIntegratesToOne(t *testing.T) {
	g := Gaussian{Mean: 2, Sigma: 0.5}
	// Trapezoidal integration over +-8 sigma.
	const n = 100000
	lo, hi := g.Mean-8*g.Sigma, g.Mean+8*g.Sigma
	h := (hi - lo) / n
	var sum float64
	for i := 0; i <= n; i++ {
		w := 1.0
		if i == 0 || i == n {
			w = 0.5
		}
		sum += w * pdf(g, lo+float64(i)*h)
	}
	sum *= h
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("integral = %v, want 1", sum)
	}
}

func TestCDFProperties(t *testing.T) {
	g := Gaussian{Mean: 0, Sigma: 1}
	if got := cdf(g, 0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CDF(mean) = %v, want 0.5", got)
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return cdf(g, a) <= cdf(g, b)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTailComplementarity(t *testing.T) {
	g := Gaussian{Mean: 1.5, Sigma: 2}
	for _, x := range []float64{-5, 0, 1.5, 3, 10} {
		sum := cdf(g, x) + g.TailAbove(x)
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("CDF(%v)+TailAbove(%v) = %v, want 1", x, x, sum)
		}
	}
}

func TestTailDeepAccuracy(t *testing.T) {
	// The fault model evaluates tails around 5-7 sigma (fault rates
	// 1e-7..1e-12); verify erfc-based tails stay accurate there.
	g := Gaussian{Mean: 0, Sigma: 1}
	got := g.TailAbove(6)
	want := 9.865876e-10 // Q(6)
	if math.Abs(got-want)/want > 1e-4 {
		t.Errorf("Q(6) = %v, want %v", got, want)
	}
}

func TestMidpointThresholdEqualSigma(t *testing.T) {
	lo := Gaussian{Mean: 0, Sigma: 1}
	hi := Gaussian{Mean: 10, Sigma: 1}
	if got := MidpointThreshold(lo, hi); math.Abs(got-5) > 1e-12 {
		t.Errorf("threshold = %v, want 5", got)
	}
}

func TestMidpointThresholdUnequalSigma(t *testing.T) {
	// Wider lower distribution (like the unprogrammed CTT level) pushes
	// the ML threshold toward the narrow distribution... actually toward
	// the wider one's mean side is wrong: it moves toward the narrow
	// level's mean because the wide tail dominates farther out.
	lo := Gaussian{Mean: 0, Sigma: 3}
	hi := Gaussian{Mean: 10, Sigma: 1}
	thr := MidpointThreshold(lo, hi)
	if thr <= 0 || thr >= 10 {
		t.Fatalf("threshold %v outside (0,10)", thr)
	}
	// At the ML threshold the densities are equal.
	if d := math.Abs(pdf(lo, thr) - pdf(hi, thr)); d > 1e-9 {
		t.Errorf("densities differ by %v at threshold", d)
	}
}

func TestOverlapFaultProb(t *testing.T) {
	g := Gaussian{Mean: 5, Sigma: 1}
	pDown, pUp := OverlapFaultProb(g, 3, 7)
	wantDown := g.TailBelow(3)
	wantUp := g.TailAbove(7)
	if pDown != wantDown || pUp != wantUp {
		t.Errorf("got (%v,%v), want (%v,%v)", pDown, pUp, wantDown, wantUp)
	}
	// Boundary levels: no fault off the end.
	pDown, pUp = OverlapFaultProb(g, math.Inf(-1), 7)
	if pDown != 0 {
		t.Errorf("pDown = %v, want 0 for boundary level", pDown)
	}
	if pUp == 0 {
		t.Error("pUp should be nonzero")
	}
}

func TestQFuncInvQRoundTrip(t *testing.T) {
	for _, p := range []float64{0.5, 0.1, 1e-3, 1e-5, 1e-9} {
		x := InvQ(p)
		back := QFunc(x)
		if math.Abs(back-p)/p > 1e-6 {
			t.Errorf("QFunc(InvQ(%v)) = %v", p, back)
		}
	}
}

func TestInvQPanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{0, -1, 0.6, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("InvQ(%v) did not panic", p)
				}
			}()
			InvQ(p)
		}()
	}
}

func TestSampleMatchesDistribution(t *testing.T) {
	g := Gaussian{Mean: -3, Sigma: 0.25}
	src := NewSource(11)
	const n = 50000
	var sum float64
	inOneSigma := 0
	for i := 0; i < n; i++ {
		x := src.Gaussian(g.Mean, g.Sigma)
		sum += x
		if math.Abs(x-g.Mean) < g.Sigma {
			inOneSigma++
		}
	}
	if mean := sum / n; math.Abs(mean-g.Mean) > 0.01 {
		t.Errorf("sample mean = %v", mean)
	}
	frac := float64(inOneSigma) / n
	if math.Abs(frac-0.6827) > 0.01 {
		t.Errorf("1-sigma mass = %v, want ~0.6827", frac)
	}
}

func TestDegenerateSigma(t *testing.T) {
	g := Gaussian{Mean: 1, Sigma: 0}
	if cdf(g, 0.5) != 0 || cdf(g, 1.5) != 1 {
		t.Error("degenerate CDF wrong")
	}
	if g.TailAbove(1.5) != 0 || g.TailBelow(0.5) != 0 {
		t.Error("degenerate tails wrong")
	}
}

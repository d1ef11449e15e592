package stats

import (
	"math"
	"testing"
)

func TestWelfordMatchesSummarize(t *testing.T) {
	src := NewSource(7)
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = src.Gaussian(3, 2)
		w.Add(xs[i])
	}
	s := Summarize(xs)
	if w.N() != int64(s.N) {
		t.Fatalf("n mismatch: %d vs %d", w.N(), s.N)
	}
	if math.Abs(w.Mean()-s.Mean) > 1e-12 {
		t.Errorf("mean %v vs %v", w.Mean(), s.Mean)
	}
	if math.Abs(w.Std()-s.Std) > 1e-10 {
		t.Errorf("std %v vs %v", w.Std(), s.Std)
	}
	if w.Min() != s.Min || w.Max() != s.Max {
		t.Errorf("min/max %v/%v vs %v/%v", w.Min(), w.Max(), s.Min, s.Max)
	}
}

func TestWelfordSequentialIsDeterministic(t *testing.T) {
	// Folding the same values in the same order must be bit-identical —
	// the property the campaign resume contract rests on.
	src := NewSource(11)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = src.Float64()
	}
	var a, b Welford
	for _, x := range xs {
		a.Add(x)
	}
	for _, x := range xs {
		b.Add(x)
	}
	if a != b {
		t.Fatal("identical fold order produced different accumulator state")
	}
}

func TestWelfordCI(t *testing.T) {
	var w Welford
	if w.CIHalfWidth(0.95) != 0 {
		t.Error("empty accumulator should have zero CI")
	}
	w.Add(1)
	if w.CIHalfWidth(0.95) != 0 {
		t.Error("single sample should have zero CI")
	}
	for i := 0; i < 99; i++ {
		w.Add(float64(i % 2))
	}
	ci95 := w.CIHalfWidth(0.95)
	ci99 := w.CIHalfWidth(0.99)
	if ci95 <= 0 || ci99 <= ci95 {
		t.Errorf("expected 0 < ci95 (%v) < ci99 (%v)", ci95, ci99)
	}
	want := w.Std() / math.Sqrt(float64(w.N())) * ZScore(0.95)
	if math.Abs(ci95-want) > 1e-12 {
		t.Errorf("ci95 %v want %v", ci95, want)
	}
}

func TestZScore(t *testing.T) {
	if z := ZScore(0.95); math.Abs(z-1.96) > 0.01 {
		t.Errorf("z(0.95) = %v, want ~1.96", z)
	}
	if z := ZScore(0.99); math.Abs(z-2.576) > 0.01 {
		t.Errorf("z(0.99) = %v, want ~2.576", z)
	}
	defer func() {
		if recover() == nil {
			t.Error("ZScore(1.0) should panic")
		}
	}()
	ZScore(1.0)
}

func TestWelfordMerge(t *testing.T) {
	src := NewSource(13)
	var all, a, b Welford
	for i := 0; i < 300; i++ {
		x := src.Gaussian(0, 1)
		all.Add(x)
		if i < 120 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	merge(&a, b)
	if a.N() != all.N() {
		t.Fatalf("merged n %d want %d", a.N(), all.N())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-12 || math.Abs(a.Variance()-all.Variance()) > 1e-10 {
		t.Errorf("merge mean/var %v/%v want %v/%v", a.Mean(), a.Variance(), all.Mean(), all.Variance())
	}
	var empty Welford
	merge(&empty, a)
	if empty != a {
		t.Error("merging into empty should copy")
	}
}

// merge folds o into w (Chan et al. parallel combination): equal to
// sequential folding in exact arithmetic, not bit for bit.
func merge(w *Welford, o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

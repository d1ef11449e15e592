package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c := Mul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Errorf("c[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMulIdentity(t *testing.T) {
	n := 17
	id := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		id.Set(i, i, 1)
	}
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = float32(i%7) - 3
	}
	c := Mul(a, id)
	for i := range a.Data {
		if c.Data[i] != a.Data[i] {
			t.Fatalf("identity mul differs at %d", i)
		}
	}
}

func TestMulParallelMatchesSerial(t *testing.T) {
	// Large enough to trigger the parallel path.
	m, k, n := 64, 80, 96
	a := NewMatrix(m, k)
	b := NewMatrix(k, n)
	for i := range a.Data {
		a.Data[i] = float32((i*31)%11) - 5
	}
	for i := range b.Data {
		b.Data[i] = float32((i*17)%13) - 6
	}
	got := Mul(a, b)
	// Naive reference.
	want := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			want.Set(i, j, s)
		}
	}
	for i := range want.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-3 {
			t.Fatalf("mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mul(NewMatrix(2, 3), NewMatrix(4, 2))
}

func TestFromSliceLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestTranspose(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("shape %dx%d", at.Rows, at.Cols)
	}
	if at.At(0, 1) != 4 || at.At(2, 0) != 3 {
		t.Error("transpose values wrong")
	}
	// Double transpose is identity.
	att := at.Transpose()
	for i := range a.Data {
		if att.Data[i] != a.Data[i] {
			t.Fatal("double transpose differs")
		}
	}
}

func TestReLU(t *testing.T) {
	a := FromSlice(1, 4, []float32{-1, 0, 2, -3})
	a.ReLU()
	want := []float32{0, 0, 2, 0}
	for i, v := range want {
		if a.Data[i] != v {
			t.Errorf("relu[%d] = %v", i, a.Data[i])
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, -10, 0, 10})
	a.Softmax()
	for r := 0; r < 2; r++ {
		var s float64
		for _, v := range a.Row(r) {
			if v < 0 {
				t.Error("negative probability")
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Errorf("row %d sums to %v", r, s)
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	a := FromSlice(1, 2, []float32{1000, 1001})
	a.Softmax()
	for _, v := range a.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax not stable for large logits")
		}
	}
}

func TestArgmaxRow(t *testing.T) {
	a := FromSlice(2, 4, []float32{1, 9, 3, 4, -5, -2, -9, -3})
	if a.ArgmaxRow(0) != 1 {
		t.Error("argmax row 0")
	}
	if a.ArgmaxRow(1) != 1 {
		t.Error("argmax row 1")
	}
}

func TestAddBiasRows(t *testing.T) {
	a := NewMatrix(2, 3)
	a.AddBiasRows([]float32{1, 2, 3})
	if a.At(0, 0) != 1 || a.At(1, 2) != 3 {
		t.Error("bias add wrong")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice(1, 2, []float32{1, 2})
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Error("clone aliases original")
	}
}

func TestMulDistributive(t *testing.T) {
	// Property: A*(B+C) == A*B + A*C for small integer matrices (exact in
	// float32 for small values).
	f := func(seed uint8) bool {
		n := 5
		mk := func(off int) *Matrix {
			m := NewMatrix(n, n)
			for i := range m.Data {
				m.Data[i] = float32((i*int(seed+1)+off)%5 - 2)
			}
			return m
		}
		a, b, c := mk(0), mk(3), mk(7)
		bc := NewMatrix(n, n)
		for i := range bc.Data {
			bc.Data[i] = b.Data[i] + c.Data[i]
		}
		left := Mul(a, bc)
		ab, ac := Mul(a, b), Mul(a, c)
		for i := range left.Data {
			if left.Data[i] != ab.Data[i]+ac.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

package quant

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/tensor"
)

func gaussianMatrix(rows, cols int, seed uint64) *tensor.Matrix {
	src := stats.NewSource(seed)
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(src.Gaussian(0, 0.1))
	}
	return m
}

func TestPruneExactSparsity(t *testing.T) {
	m := gaussianMatrix(100, 100, 1)
	Prune(m, 0.9, 1)
	zeros := 0
	for _, v := range m.Data {
		if v == 0 {
			zeros++
		}
	}
	got := float64(zeros) / float64(len(m.Data))
	if math.Abs(got-0.9) > 0.001 {
		t.Errorf("sparsity = %v, want 0.9", got)
	}
}

func TestPruneKeepsLargest(t *testing.T) {
	m := tensor.FromSlice(1, 6, []float32{0.01, -5, 0.02, 3, -0.03, 0.5})
	Prune(m, 0.5, 1)
	// The three largest-magnitude values survive.
	if m.Data[1] != -5 || m.Data[3] != 3 || m.Data[5] != 0.5 {
		t.Errorf("large values pruned: %v", m.Data)
	}
	if m.Data[0] != 0 || m.Data[2] != 0 || m.Data[4] != 0 {
		t.Errorf("small values kept: %v", m.Data)
	}
}

func TestPruneEdgeCases(t *testing.T) {
	m := gaussianMatrix(4, 4, 2)
	orig := append([]float32(nil), m.Data...)
	Prune(m, 0, 1)
	for i := range orig {
		if m.Data[i] != orig[i] {
			t.Fatal("sparsity 0 modified weights")
		}
	}
	Prune(m, 1, 1)
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("sparsity 1 left non-zeros")
		}
	}
}

func TestPruneSampledLargeLayer(t *testing.T) {
	// Above the exact limit the sampled path runs; sparsity within 1%.
	m := gaussianMatrix(1500, 1500, 3) // 2.25M > 2M limit
	Prune(m, 0.8, 7)
	zeros := 0
	for _, v := range m.Data {
		if v == 0 {
			zeros++
		}
	}
	got := float64(zeros) / float64(len(m.Data))
	if math.Abs(got-0.8) > 0.01 {
		t.Errorf("sampled sparsity = %v, want ~0.8", got)
	}
}

func TestClusterReservesZeroIndex(t *testing.T) {
	m := gaussianMatrix(50, 50, 4)
	Prune(m, 0.6, 1)
	c := Cluster(m, 4, ClusterOptions{Seed: 1})
	if c.Centroids[0] != 0 {
		t.Fatal("centroid 0 must be zero")
	}
	for i, v := range m.Data {
		if v == 0 && c.Indices[i] != 0 {
			t.Fatal("zero weight mapped to non-zero cluster")
		}
		if v != 0 && c.Indices[i] == 0 {
			t.Fatal("non-zero weight mapped to zero cluster")
		}
	}
}

func TestClusterSparsityPreserved(t *testing.T) {
	m := gaussianMatrix(64, 64, 5)
	Prune(m, 0.75, 1)
	c := Cluster(m, 4, ClusterOptions{Seed: 1})
	if math.Abs(c.Sparsity()-0.75) > 0.001 {
		t.Errorf("clustered sparsity %v, want 0.75", c.Sparsity())
	}
	if c.NNZ() != len(m.Data)-int(0.75*float64(len(m.Data))) {
		t.Errorf("nnz = %d", c.NNZ())
	}
}

func TestClusterIndexRange(t *testing.T) {
	m := gaussianMatrix(32, 32, 6)
	for _, bits := range []int{1, 2, 4, 7} {
		c := Cluster(m, bits, ClusterOptions{Seed: 1})
		limit := uint32(1) << bits
		for _, idx := range c.Indices {
			if uint32(idx) >= limit {
				t.Fatalf("bits=%d index %d out of range", bits, idx)
			}
		}
		if len(c.Centroids) != 1<<bits {
			t.Fatalf("bits=%d centroids %d", bits, len(c.Centroids))
		}
	}
}

func TestClusterDecodeRoundTripError(t *testing.T) {
	// More bits -> lower reconstruction error, and 7-bit error is small
	// relative to weight scale (sigma 0.1).
	m := gaussianMatrix(80, 80, 7)
	Prune(m, 0.5, 1)
	prev := math.Inf(1)
	for _, bits := range []int{2, 4, 6, 7} {
		c := Cluster(m, bits, ClusterOptions{Seed: 1})
		e := c.QuantError(m)
		if e > prev*1.05 {
			t.Errorf("bits=%d error %v did not decrease (prev %v)", bits, e, prev)
		}
		prev = e
	}
	if prev > 0.01 {
		t.Errorf("7-bit cluster RMS error %v too large", prev)
	}
}

func TestClusterApplyMatchesDecode(t *testing.T) {
	m := gaussianMatrix(10, 10, 8)
	c := Cluster(m, 3, ClusterOptions{Seed: 1})
	d := c.Decode()
	dst := tensor.NewMatrix(10, 10)
	c.Apply(dst)
	for i := range d.Data {
		if d.Data[i] != dst.Data[i] {
			t.Fatal("Apply != Decode")
		}
	}
}

func TestClusterAllZeros(t *testing.T) {
	m := tensor.NewMatrix(5, 5)
	c := Cluster(m, 4, ClusterOptions{})
	if c.NNZ() != 0 || c.Sparsity() != 1 {
		t.Error("all-zero layer mishandled")
	}
}

func TestClusterDeterministicWithSampling(t *testing.T) {
	m := gaussianMatrix(600, 600, 9)
	a := Cluster(m, 4, ClusterOptions{SampleLimit: 1000, Seed: 3})
	b := Cluster(m, 4, ClusterOptions{SampleLimit: 1000, Seed: 3})
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			t.Fatal("sampled clustering not deterministic")
		}
	}
}

func TestRawBits(t *testing.T) {
	m := gaussianMatrix(10, 10, 10)
	c := Cluster(m, 4, ClusterOptions{})
	want := int64(100*4 + 16*16)
	if c.RawBits() != want {
		t.Errorf("RawBits = %d, want %d", c.RawBits(), want)
	}
}

func TestFixedPointQuantization(t *testing.T) {
	m := tensor.FromSlice(1, 4, []float32{0.5, -0.25, 0.126, 10})
	FixedPoint(m, 8, 4) // 1 sign, 4 int, 3 frac -> step 0.125
	if m.Data[0] != 0.5 || m.Data[1] != -0.25 {
		t.Errorf("exact values changed: %v", m.Data)
	}
	if m.Data[2] != 0.125 {
		t.Errorf("0.126 -> %v, want 0.125", m.Data[2])
	}
	// 10 clamps to max representable (2^7-1)/8 = 15.875 -> no clamp needed
	if m.Data[3] != 10 {
		t.Errorf("10 -> %v", m.Data[3])
	}
}

func TestFixedPointClamps(t *testing.T) {
	m := tensor.FromSlice(1, 2, []float32{100, -100})
	FixedPoint(m, 4, 1) // 1 sign, 1 int, 2 frac: max (2^3-1)/4 = 1.75
	if m.Data[0] != 1.75 || m.Data[1] != -2 {
		t.Errorf("clamping wrong: %v", m.Data)
	}
}

func TestClusteringBeatsFixedPoint(t *testing.T) {
	// The paper's claim: clustering uses strictly fewer bits per weight
	// than fixed-point at equal error. Verify on a Gaussian layer.
	m := gaussianMatrix(100, 100, 11)
	c := Cluster(m, 4, ClusterOptions{Seed: 1})
	clusterErr := c.QuantError(m)
	fpBits := FixedPointBitsRequired(m, clusterErr)
	if fpBits <= 4 {
		t.Errorf("fixed point needs %d bits to match 4-bit clustering; expected more", fpBits)
	}
}

func TestPrunePropertySparsityMonotone(t *testing.T) {
	f := func(seed uint16) bool {
		m := gaussianMatrix(20, 20, uint64(seed))
		m2 := m.Clone()
		Prune(m, 0.3, 1)
		Prune(m2, 0.7, 1)
		z1, z2 := 0, 0
		for i := range m.Data {
			if m.Data[i] == 0 {
				z1++
			}
			if m2.Data[i] == 0 {
				z2++
			}
		}
		return z2 >= z1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestClusterRejectsWideIndices(t *testing.T) {
	m := gaussianMatrix(8, 8, 1)
	for _, bits := range []int{0, 9, 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Cluster with bits %d did not panic", bits)
				}
			}()
			Cluster(m, bits, ClusterOptions{})
		}()
	}
}

package tensor

// Compute-direct 2:4 kernel tests: bit parity against the dense kernels
// on the densified twin of the same compact form, across the serial
// band and the parallel driver (the conv rows are
// TestConv2D24MatchesDense in conv_test.go).

import "testing"

// random24 builds a canonical 2:4 compact matrix and its densified twin
// from a deterministic pattern: each group gets 0-2 nonzero entries at
// pattern-chosen positions.
func random24(rows, cols int, seed uint64) (*Sparse24, *Matrix) {
	w := NewSparse24(rows, cols)
	dense := NewMatrix(rows, cols)
	x := seed*2862933555777941757 + 3037000493
	next := func(n int) int {
		x = x*2862933555777941757 + 3037000493
		return int((x >> 33) % uint64(n))
	}
	for r := 0; r < rows; r++ {
		for g := 0; g < w.GroupsPerRow; g++ {
			e := (r*w.GroupsPerRow + g) * 2
			lim := cols - g*4
			if lim > 4 {
				lim = 4
			}
			count := next(3) // 0, 1, or 2 entries
			if count > lim {
				count = lim
			}
			p0 := next(lim)
			p1 := (p0 + 1 + next(lim)) % lim
			if count == 2 && p1 == p0 {
				count = 1
			}
			if count == 2 && p1 < p0 {
				p0, p1 = p1, p0
			}
			mk := func(k, p int) {
				v := float32(next(15)+1) / 4
				if next(2) == 1 {
					v = -v
				}
				w.Val[e+k], w.Pos[e+k] = v, uint8(p)
				dense.Data[r*cols+g*4+p] = v
			}
			if count >= 1 {
				mk(0, p0)
			}
			if count == 2 {
				mk(1, p1)
			}
		}
	}
	return w, dense
}

func TestMulABt24MatchesDense(t *testing.T) {
	// Serial band and parallel driver, small (band fallback) and large
	// (parallel path) shapes, cols both divisible by 4 and ragged.
	for _, sz := range [][3]int{{2, 6, 3}, {3, 17, 5}, {48, 96, 64}} {
		m, k, n := sz[0], sz[1], sz[2]
		a := NewMatrix(m, k)
		fillPattern(a.Data, 7, 9, 1)
		w24, dense := random24(n, k, uint64(m*k*n))
		want := NewMatrix(m, n)
		dense.mulABtBand(want, a, 0, m)

		got := NewMatrix(m, n)
		got.Fill(-1)
		w24.mulABtBand(got, a, 0, m)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%dx%dx%d: band differs at %d: %v vs %v", m, k, n, i, got.Data[i], want.Data[i])
			}
		}

		got.Fill(-1)
		MulABtInto(got, a, w24, 0)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%dx%dx%d: parallel differs at %d", m, k, n, i)
			}
		}
	}
}

func TestSparse24ShapePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	a := NewMatrix(2, 8)
	w := NewSparse24(3, 9) // cols mismatch vs a
	expectPanic("MulABtInto inner dim", func() {
		MulABtInto(NewMatrix(2, 3), a, w, 0)
	})
	w8 := NewSparse24(3, 8)
	expectPanic("MulABtInto dst shape", func() {
		MulABtInto(NewMatrix(2, 4), a, w8, 0)
	})
	cs := ConvShape{InC: 2, OutC: 4, KH: 3, KW: 3, Pad: 1, Stride: 1, InH: 8, InW: 8}
	expectPanic("Conv2DInto 2:4 weight shape", func() {
		Conv2DInto(NewTensor4(1, 4, 8, 8), NewTensor4(1, 2, 8, 8),
			NewSparse24(4, 7), nil, cs, &ConvWorkspace{Workers: 1})
	})
	expectPanic("NewSparse24 negative", func() { NewSparse24(-1, 4) })
}

func TestGemm24Telemetry(t *testing.T) {
	// One serial FC call publishes exactly rows*n groups and the skipped
	// dense MACs, as one atomic add each.
	m, k, n := 3, 16, 5
	a := NewMatrix(m, k)
	fillPattern(a.Data, 7, 9, 1)
	w24, _ := random24(n, k, 9)
	g0, s0 := met24.groups.Value(), met24.skippedMACs.Value()
	w24.mulABtBand(NewMatrix(m, n), a, 0, m)
	gpr := (k + 3) / 4
	if got, want := met24.groups.Value()-g0, int64(m*n*gpr); got != want {
		t.Errorf("groups += %d, want %d", got, want)
	}
	if got, want := met24.skippedMACs.Value()-s0, int64(m*n*(k-2*gpr)); got != want {
		t.Errorf("skipped MACs += %d, want %d", got, want)
	}
}

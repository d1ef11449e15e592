package tensor

import "testing"

// fillPattern writes a deterministic mixed-sign pattern with some exact
// zeros (to exercise the pruned-weight skip in the kernels).
func fillPattern(data []float32, mul, mod, off int) {
	for i := range data {
		v := (i*mul+off)%mod - mod/2
		data[i] = float32(v)
	}
}

func TestMulIntoOverwritesDirtyDst(t *testing.T) {
	// mulBand clears its own rows; a dst full of garbage must not leak
	// into the product.
	for _, sz := range [][3]int{{3, 4, 5}, {64, 80, 96}} { // serial and parallel paths
		m, k, n := sz[0], sz[1], sz[2]
		a, b := NewMatrix(m, k), NewMatrix(k, n)
		fillPattern(a.Data, 31, 11, 0)
		fillPattern(b.Data, 17, 13, 5)
		want := Mul(a, b)
		dst := NewMatrix(m, n)
		dst.Fill(999)
		MulInto(dst, a, b)
		for i := range want.Data {
			if dst.Data[i] != want.Data[i] {
				t.Fatalf("%dx%dx%d: dirty dst leaked at %d: %v vs %v",
					m, k, n, i, dst.Data[i], want.Data[i])
			}
		}
	}
}

func TestMulABtMatchesMulTranspose(t *testing.T) {
	// MulABtInto must be bit-identical to Mul(a, bᵀ) — the replica
	// parity proof leans on this — on both the serial and parallel paths.
	for _, sz := range [][3]int{{2, 3, 4}, {48, 96, 64}} {
		m, k, n := sz[0], sz[1], sz[2]
		a := NewMatrix(m, k) // M x K
		b := NewMatrix(n, k) // N x K
		fillPattern(a.Data, 7, 9, 1)
		fillPattern(b.Data, 23, 15, 2)
		want := Mul(a, b.Transpose())
		got := NewMatrix(m, n)
		got.Fill(-1)
		MulABtInto(got, a, b, 0)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%dx%dx%d: MulABt differs at %d: %v vs %v",
					m, k, n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMulABtBandMatchesInto(t *testing.T) {
	// The serial band (replica path, Workers=1) and the parallel driver
	// must agree bit for bit.
	m, k, n := 50, 70, 60
	a, b := NewMatrix(m, k), NewMatrix(n, k)
	fillPattern(a.Data, 13, 17, 3)
	fillPattern(b.Data, 29, 19, 4)
	par := NewMatrix(m, n)
	MulABtInto(par, a, b, 0)
	ser := NewMatrix(m, n)
	ser.Fill(42)
	b.mulABtBand(ser, a, 0, m)
	for i := range par.Data {
		if ser.Data[i] != par.Data[i] {
			t.Fatalf("band/parallel mismatch at %d: %v vs %v", i, ser.Data[i], par.Data[i])
		}
	}
}

func TestMulABtShapePanics(t *testing.T) {
	cases := []func(){
		func() { MulABtInto(NewMatrix(2, 4), NewMatrix(2, 3), NewMatrix(4, 5), 0) }, // inner dims
		func() { MulABtInto(NewMatrix(3, 4), NewMatrix(2, 3), NewMatrix(4, 3), 0) }, // dst shape
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestReshapeReusesBacking(t *testing.T) {
	var m Matrix
	m.Reshape(4, 8)
	if m.Rows != 4 || m.Cols != 8 || len(m.Data) != 32 {
		t.Fatalf("reshape shape wrong: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	grown := &m.Data[0]
	m.Reshape(2, 3) // shrink: must reuse the backing array
	if len(m.Data) != 6 || &m.Data[0] != grown {
		t.Error("shrinking reshape reallocated")
	}
	m.Reshape(4, 8) // regrow within capacity: still no alloc
	if &m.Data[0] != grown {
		t.Error("regrow within capacity reallocated")
	}
}

func TestConv2DIntoSingleImage(t *testing.T) {
	// N=1 exercises the row-band fallback inside the GEMM.
	cs := ConvShape{InC: 2, OutC: 4, KH: 3, KW: 3, Pad: 1, Stride: 1, InH: 8, InW: 8}
	in := NewTensor4(1, 2, 8, 8)
	fillPattern(in.Data, 5, 11, 2)
	weights := NewMatrix(cs.OutC, cs.InC*cs.KH*cs.KW)
	fillPattern(weights.Data, 3, 5, 0)
	want := convRef(in, weights, nil, cs)
	out := NewTensor4(1, cs.OutC, cs.OutH(), cs.OutW())
	ws := ConvWorkspace{Workers: 4}
	Conv2DInto(out, in, weights, nil, cs, &ws)
	for i := range want.Data {
		if out.Data[i] != want.Data[i] {
			t.Fatalf("single-image conv differs at %d", i)
		}
	}
}

func TestConv2DIntoOutputShapePanics(t *testing.T) {
	cs := ConvShape{InC: 1, OutC: 2, KH: 3, KW: 3, Pad: 1, Stride: 1, InH: 6, InW: 6}
	in := NewTensor4(1, 1, 6, 6)
	weights := NewMatrix(2, 9)
	bad := NewTensor4(1, 2, 5, 5) // wrong OutH/OutW
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on output shape mismatch")
		}
	}()
	var ws ConvWorkspace
	Conv2DInto(bad, in, weights, nil, cs, &ws)
}

func TestIm2colIntoScratchReuse(t *testing.T) {
	// A scratch that previously held a larger, fully-populated patch
	// matrix must come back with clean padding zeros for a padded layer.
	big := ConvShape{InC: 4, OutC: 1, KH: 3, KW: 3, Pad: 0, Stride: 1, InH: 10, InW: 10}
	small := ConvShape{InC: 1, OutC: 1, KH: 3, KW: 3, Pad: 1, Stride: 1, InH: 5, InW: 5}
	inBig := NewTensor4(1, 4, 10, 10)
	for i := range inBig.Data {
		inBig.Data[i] = 9 // poison every scratch cell
	}
	inSmall := NewTensor4(1, 1, 5, 5)
	fillPattern(inSmall.Data, 7, 5, 1)

	var scratch Matrix
	Im2colInto(&scratch, inBig, 0, big)
	Im2colInto(&scratch, inSmall, 0, small)
	want := Im2col(inSmall, 0, small)
	if scratch.Rows != want.Rows || scratch.Cols != want.Cols {
		t.Fatalf("reused scratch shape %dx%d, want %dx%d",
			scratch.Rows, scratch.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if scratch.Data[i] != want.Data[i] {
			t.Fatalf("stale scratch value at %d: %v vs %v", i, scratch.Data[i], want.Data[i])
		}
	}
}

func TestMaxPool2DIntoParity(t *testing.T) {
	in := NewTensor4(2, 3, 8, 8)
	fillPattern(in.Data, 13, 23, 0)
	// Naive reference, independent of the plane-slice implementation.
	k := 2
	want := NewTensor4(2, 3, 4, 4)
	for n := 0; n < in.N; n++ {
		for c := 0; c < in.C; c++ {
			for oy := 0; oy < 4; oy++ {
				for ox := 0; ox < 4; ox++ {
					best := in.At(n, c, oy*k, ox*k)
					for dy := 0; dy < k; dy++ {
						for dx := 0; dx < k; dx++ {
							if v := in.At(n, c, oy*k+dy, ox*k+dx); v > best {
								best = v
							}
						}
					}
					want.Set(n, c, oy, ox, best)
				}
			}
		}
	}
	out := NewTensor4(2, 3, 4, 4)
	for i := range out.Data {
		out.Data[i] = -99
	}
	MaxPool2DInto(out, in, 2)
	for i := range want.Data {
		if out.Data[i] != want.Data[i] {
			t.Fatalf("maxpool into differs at %d", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on pool shape mismatch")
		}
	}()
	MaxPool2DInto(NewTensor4(2, 3, 3, 3), in, 2)
}

func TestGlobalAvgPool2DIntoParity(t *testing.T) {
	in := NewTensor4(3, 4, 5, 5)
	fillPattern(in.Data, 17, 13, 2)
	// Naive reference: each plane's sum over its H*W entries, scaled by
	// 1/(H*W) as the kernel does.
	inv := 1 / float32(in.H*in.W)
	want := NewMatrix(in.N, in.C)
	for n := 0; n < in.N; n++ {
		for c := 0; c < in.C; c++ {
			var s float32
			for y := 0; y < in.H; y++ {
				for x := 0; x < in.W; x++ {
					s += in.At(n, c, y, x)
				}
			}
			want.Set(n, c, s*inv)
		}
	}
	var out Matrix
	out.Reshape(1, 1)
	out.Data[0] = 123 // dirty, smaller than needed: must reshape and overwrite
	GlobalAvgPool2DInto(&out, in)
	if out.Rows != 3 || out.Cols != 4 {
		t.Fatalf("gap into shape %dx%d", out.Rows, out.Cols)
	}
	for i := range want.Data {
		if out.Data[i] != want.Data[i] {
			t.Fatalf("gap into differs at %d", i)
		}
	}
}

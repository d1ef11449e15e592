package tensor

import (
	"math"
	"sync/atomic"
	"testing"
)

// xbarFor wraps w in an Xbar with the given tile height and per-column
// full scales (fs broadcast to every (row-tile, column) slot).
func xbarFor(w *Matrix, tileRows, bits int, fs float32) *Xbar {
	nrt := (w.Cols + tileRows - 1) / tileRows
	x := &Xbar{W: w, TileRows: tileRows, ADCBits: bits, FS: make([]float32, nrt*w.Rows)}
	for i := range x.FS {
		x.FS[i] = fs
	}
	return x
}

func denseRand(rows, cols int, seed uint64) *Matrix {
	m := NewMatrix(rows, cols)
	s := seed
	for i := range m.Data {
		s = s*6364136223846793005 + 1442695040888963407
		m.Data[i] = float32(int32(s>>33))/float32(1<<31) - 0.5
		if i%5 == 0 {
			m.Data[i] = 0 // exercise the zero-skip paths
		}
	}
	return m
}

// TestQuantize pins the symmetric mid-tread quantizer: rounding, the
// asymmetric clamp range [-2^(b-1), 2^(b-1)-1], clip counting, and the
// fs<=0 passthrough.
func TestQuantize(t *testing.T) {
	var clips int64
	cases := []struct {
		p, fs float32
		bits  int
		want  float32
	}{
		{0.5, 1, 2, 0.5},    // round(0.5/0.5)=1 -> 0.5
		{0.20, 1, 2, 0},     // round(0.4)=0
		{0.9, 1, 2, 0.5},    // round(1.8)=2 clamps to half-1=1 -> 0.5 (clip)
		{-1.2, 1, 1, -1},    // round(-1.2)=-1 = -half, in range
		{-2.6, 1, 1, -1},    // clamps to -half (clip)
		{0.33, 0, 4, 0.33},  // fs<=0 passes through
		{0.33, -1, 4, 0.33}, // negative fs passes through too
	}
	for _, c := range cases {
		if got := quantize(c.p, c.fs, c.bits, &clips); got != c.want {
			t.Errorf("quantize(%v, fs=%v, b=%d) = %v, want %v", c.p, c.fs, c.bits, got, c.want)
		}
	}
	if clips != 2 {
		t.Errorf("clip count = %d, want 2", clips)
	}
}

// TestMulABtXbarBandPassthroughParity: with a single row tile and
// quantization disabled per column (FS=0), the crossbar FC kernel
// accumulates term-for-term like the dense one, so the output must be
// bit-identical.
func TestMulABtXbarBandPassthroughParity(t *testing.T) {
	a := denseRand(7, 33, 1)
	w := denseRand(9, 33, 2)
	want := NewMatrix(7, 9)
	w.mulABtBand(want, a, 0, 7)
	got := NewMatrix(7, 9)
	MulABtInto(got, a, xbarFor(w, 33, 8, 0), 1)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("passthrough parity broken at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestMulABtXbarBandQuantizes: with a real full scale the ADC must
// actually change the result, and a coarser ADC must be at least as
// lossy as a finer one on aggregate.
func TestMulABtXbarBandQuantizes(t *testing.T) {
	a := denseRand(5, 24, 3)
	w := denseRand(6, 24, 4)
	exact := NewMatrix(5, 6)
	w.mulABtBand(exact, a, 0, 5)
	rms := func(bits int) float64 {
		got := NewMatrix(5, 6)
		MulABtInto(got, a, xbarFor(w, 8, bits, 4), 1)
		var ss float64
		for i := range got.Data {
			d := float64(got.Data[i] - exact.Data[i])
			ss += d * d
		}
		return math.Sqrt(ss)
	}
	coarse, fine := rms(3), rms(10)
	if coarse == 0 {
		t.Fatal("3-bit ADC changed nothing; quantization is not wired")
	}
	if fine > coarse {
		t.Fatalf("10-bit ADC lossier than 3-bit: %v > %v", fine, coarse)
	}
}

// TestXbarClipCounting: saturating columns must count clips on both the
// handle atomic and the pluggable counter, and on FC and conv inputs
// alike the parallel bands (Workers 0 and 2) must report the serial
// totals: each band sums its clips and publishes them once.
func TestXbarClipCounting(t *testing.T) {
	a := NewMatrix(1, 4)
	w := NewMatrix(2, 4)
	for i := range a.Data {
		a.Data[i] = 1
	}
	for i := range w.Data {
		w.Data[i] = 1
	}
	var ext atomic.Int64
	x := xbarFor(w, 4, 2, 0.5) // partial sum 4 vs full scale 0.5: clips
	x.ClipCounter = counterFunc{&ext}
	dst := NewMatrix(1, 2)
	MulABtInto(dst, a, x, 1)
	if x.Clips.Load() != 2 {
		t.Fatalf("Clips = %d, want 2 (one per saturated column)", x.Clips.Load())
	}
	if ext.Load() != 2 {
		t.Fatalf("ClipCounter = %d, want 2", ext.Load())
	}

	// clipsOf runs one kernel call on a fresh handle over the same
	// weights and returns what the atomic and the counter saw.
	clipsOf := func(w *Matrix, call func(x *Xbar)) (int64, int64) {
		var ext atomic.Int64
		x := xbarFor(w, 16, 3, 0.75)
		x.ClipCounter = counterFunc{&ext}
		call(x)
		return x.Clips.Load(), ext.Load()
	}
	// FC: 64x64 activations against 32 outputs, above the serial
	// threshold, so Workers 0 and 2 split the batch rows.
	fa, fw := denseRand(64, 64, 21), denseRand(32, 64, 22)
	fc := func(workers int) func(*Xbar) {
		return func(x *Xbar) { MulABtInto(NewMatrix(64, 32), fa, x, workers) }
	}
	// Conv: an 8-image batch (image bands) and a single image whose GEMM
	// is large enough for row bands.
	cs := ConvShape{InC: 4, InH: 16, InW: 16, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	cw := denseRand(cs.OutC, cs.InC*cs.KH*cs.KW, 23)
	conv := func(n, workers int) func(*Xbar) {
		in := NewTensor4(n, cs.InC, cs.InH, cs.InW)
		copy(in.Data, denseRand(1, len(in.Data), 24).Data)
		return func(x *Xbar) {
			Conv2DInto(NewTensor4(n, cs.OutC, cs.OutH(), cs.OutW()), in, x, nil, cs, &ConvWorkspace{Workers: workers})
		}
	}
	for _, c := range []struct {
		name string
		w    *Matrix
		run  func(workers int) func(*Xbar)
	}{
		{"fc", fw, fc},
		{"conv-batch", cw, func(workers int) func(*Xbar) { return conv(8, workers) }},
		{"conv-single", cw, func(workers int) func(*Xbar) { return conv(1, workers) }},
	} {
		want, _ := clipsOf(c.w, c.run(1))
		if want == 0 {
			t.Fatalf("%s: serial run clipped nothing; the input does not saturate", c.name)
		}
		for _, workers := range []int{0, 2} {
			clips, ext := clipsOf(c.w, c.run(workers))
			if clips != want || ext != want {
				t.Errorf("%s workers=%d: Clips=%d ClipCounter=%d, want serial total %d",
					c.name, workers, clips, ext, want)
			}
		}
	}
}

type counterFunc struct{ v *atomic.Int64 }

func (c counterFunc) Add(n int64) { c.v.Add(n) }

// TestConv2DXbarQuantizes: a coarse ADC on the conv route must perturb
// the output.
func TestConv2DXbarQuantizes(t *testing.T) {
	cs := ConvShape{InC: 2, InH: 6, InW: 6, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 0}
	k := cs.InC * cs.KH * cs.KW
	w := denseRand(cs.OutC, k, 13)
	in := NewTensor4(1, cs.InC, cs.InH, cs.InW)
	s := uint64(17)
	for i := range in.Data {
		s = s*6364136223846793005 + 1442695040888963407
		in.Data[i] = float32(int32(s>>33)) / float32(1<<31)
	}
	var ws ConvWorkspace
	want := NewTensor4(1, cs.OutC, cs.OutH(), cs.OutW())
	Conv2DInto(want, in, w, nil, cs, &ws)
	got := NewTensor4(1, cs.OutC, cs.OutH(), cs.OutW())
	Conv2DInto(got, in, xbarFor(w, 6, 3, 2), nil, cs, &ws)
	same := true
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("3-bit conv ADC changed nothing; quantization is not wired")
	}
}

// TestXbarCheckPanics: a mis-built handle must fail loudly.
func TestXbarCheckPanics(t *testing.T) {
	w := NewMatrix(2, 4)
	bad := []*Xbar{
		{W: nil, TileRows: 4, ADCBits: 4},
		{W: w, TileRows: 0, ADCBits: 4},
		{W: w, TileRows: 4, ADCBits: 0},
		{W: w, TileRows: 4, ADCBits: 4, FS: make([]float32, 1)}, // wrong FS length
	}
	for i, x := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid Xbar did not panic", i)
				}
			}()
			x.check()
		}()
	}
}

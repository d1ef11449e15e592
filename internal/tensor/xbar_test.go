package tensor

import (
	"fmt"
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

// countClips points x's ClipCounter at a fresh counter and returns it.
func countClips(x *Xbar) *atomic.Int64 {
	n := new(atomic.Int64)
	x.ClipCounter = counterFunc{n}
	return n
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
		var got [1]float32
		xbarFor(NewMatrix(1, 1), 1, c.bits, c.fs).adc(0, 0).addConv(got[:], []float32{c.p}, &clips)
		if got[0] != c.want {
			t.Errorf("addConv(%v, fs=%v, b=%d) = %v, want %v", c.p, c.fs, c.bits, got[0], c.want)
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

// TestXbarClipCounting: saturating columns must count clips on the
// ClipCounter, and on FC and conv inputs alike the parallel bands
// (Workers 0 and 2) must report the serial totals: each band sums its
// clips and publishes them once.
func TestXbarClipCounting(t *testing.T) {
	a := NewMatrix(1, 4)
	w := NewMatrix(2, 4)
	for i := range a.Data {
		a.Data[i] = 1
	}
	for i := range w.Data {
		w.Data[i] = 1
	}
	x := xbarFor(w, 4, 2, 0.5) // partial sum 4 vs full scale 0.5: clips
	clips := countClips(x)
	dst := NewMatrix(1, 2)
	MulABtInto(dst, a, x, 1)
	if clips.Load() != 2 {
		t.Fatalf("ClipCounter = %d, want 2 (one per saturated column)", clips.Load())
	}

	// clipsOf runs one kernel call on a fresh handle over the same
	// weights and returns what its counter saw.
	clipsOf := func(w *Matrix, call func(x *Xbar)) int64 {
		x := xbarFor(w, 16, 3, 0.75)
		clips := countClips(x)
		call(x)
		return clips.Load()
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
		want := clipsOf(c.w, c.run(1))
		if want == 0 {
			t.Fatalf("%s: serial run clipped nothing; the input does not saturate", c.name)
		}
		for _, workers := range []int{0, 2} {
			if clips := clipsOf(c.w, c.run(workers)); clips != want {
				t.Errorf("%s workers=%d: ClipCounter=%d, want serial total %d",
					c.name, workers, clips, want)
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
		{W: w, TileRows: 4, ADCBits: 17, FS: make([]float32, 2)}, // beyond the 16-bit ADC range
		{W: w, TileRows: 4, ADCBits: 64, FS: make([]float32, 2)}, // the code-range shift would wrap
		{W: w, TileRows: 4, ADCBits: 4, FS: make([]float32, 1)},  // wrong FS length
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

// refQuantize is the mid-tread column ADC written out plainly: round to
// the nearest step of fs/2^(b-1), clamp to [-2^(b-1), 2^(b-1)-1] codes,
// pass through when fs <= 0. It reports whether the code saturated.
func refQuantize(p, fs float32, bits int) (float32, bool) {
	if fs <= 0 {
		return p, false
	}
	half := math.Ldexp(1, bits-1)
	step := float64(fs) / half
	q := math.Round(float64(p) / step)
	switch {
	case q > half-1:
		return float32((half - 1) * step), true
	case q < -half:
		return float32(-half * step), true
	}
	return float32(q * step), false
}

// refXbarDot is one crossbar output element computed naively: per row
// tile, the terms w[p]*v[p] summed in ascending p with nothing skipped,
// then that partial through column j's ADC, the converted partials
// summed across tiles in order.
func refXbarDot(x *Xbar, j int, v func(p int) float32, clips *int64) float32 {
	k, out := x.W.Cols, x.W.Rows
	var acc float32
	for rt := 0; rt*x.TileRows < k; rt++ {
		var partial float32
		for p := rt * x.TileRows; p < min((rt+1)*x.TileRows, k); p++ {
			partial += x.W.At(j, p) * v(p)
		}
		q, clipped := refQuantize(partial, x.FS[rt*out+j], x.ADCBits)
		if clipped {
			*clips++
		}
		acc += q
	}
	return acc
}

// TestXbarKernelsMatchReference pins both crossbar kernels (FC and
// conv) bit for bit, clip counts included, to refXbarDot across tile
// heights, ADC resolutions, full scales that are off, negative or small
// enough to clip, zero-laden operands and worker counts. The trial
// parity tests compare two routes that share these kernels, so only an
// independent reference catches a kernel that moves bits.
func TestXbarKernelsMatchReference(t *testing.T) {
	// sparsify zeroes runs of seven entries in every third window (whole
	// pruned spans, some a full row tile) plus the negative entries when
	// relu is set (post-ReLU activations).
	sparsify := func(m *Matrix, relu bool) *Matrix {
		for i, v := range m.Data {
			if (i/7)%3 == 0 || (relu && v < 0) {
				m.Data[i] = 0
			}
		}
		return m
	}
	// xbarOf maps w with full scales cycling through off (0), negative,
	// small enough to clip, and two in-range values.
	xbarOf := func(w *Matrix, tileRows, bits int) *Xbar {
		x := xbarFor(w, tileRows, bits, 0)
		for i := range x.FS {
			x.FS[i] = []float32{0, -1, 0.02, 1.5, 4}[i%5]
		}
		return x
	}
	check := func(name string, got []float32, clips int64, want []float32, wantClips int64) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)", name, i,
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
		if clips != wantClips {
			t.Fatalf("%s: %d clips, reference %d", name, clips, wantClips)
		}
	}

	// FC: 64x131 activations against 11 outputs (not a multiple of any
	// block width), above the serial threshold so workers split rows.
	fa := sparsify(denseRand(64, 131, 31), true)
	fw := sparsify(denseRand(11, 131, 32), false)
	// Conv: 3 images of 16x20x20 (400 output columns, more than one
	// stack chunk), 3x3 kernels, pad 1: K = 144.
	cs := ConvShape{InC: 16, InH: 20, InW: 20, OutC: 7, KH: 3, KW: 3, Stride: 1, Pad: 1}
	cw := sparsify(denseRand(cs.OutC, cs.InC*cs.KH*cs.KW, 33), false)
	in := NewTensor4(3, cs.InC, cs.InH, cs.InW)
	copy(in.Data, sparsify(denseRand(1, len(in.Data), 34), true).Data)
	oh, ow := cs.OutH(), cs.OutW()
	patch := func(n, oy, ox int) func(p int) float32 {
		return func(p int) float32 {
			c, kh, kw := p/(cs.KH*cs.KW), p/cs.KW%cs.KH, p%cs.KW
			iy, ix := oy*cs.Stride+kh-cs.Pad, ox*cs.Stride+kw-cs.Pad
			if iy < 0 || iy >= cs.InH || ix < 0 || ix >= cs.InW {
				return 0
			}
			return in.Image(n)[(c*cs.InH+iy)*cs.InW+ix]
		}
	}

	for _, tileRows := range []int{1, 3, 8, 64, 200} {
		for _, bits := range []int{1, 2, 4, 8} {
			var fcClips, convClips, firstClips int64
			fcWant := NewMatrix(fa.Rows, fw.Rows)
			fx := xbarOf(fw, tileRows, bits)
			for i := 0; i < fa.Rows; i++ {
				for j := 0; j < fw.Rows; j++ {
					fcWant.Set(i, j, refXbarDot(fx, j, func(p int) float32 { return fa.At(i, p) }, &fcClips))
				}
			}
			convWant := NewTensor4(in.N, cs.OutC, oh, ow)
			cx := xbarOf(cw, tileRows, bits)
			for n := 0; n < in.N; n++ {
				if n == 1 {
					firstClips = convClips
				}
				for j := 0; j < cs.OutC; j++ {
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							convWant.Image(n)[(j*oh+oy)*ow+ox] = refXbarDot(cx, j, patch(n, oy, ox), &convClips)
						}
					}
				}
			}
			if fcClips == 0 || convClips == 0 {
				t.Fatalf("tile %d bits %d: the reference clipped nothing", tileRows, bits)
			}
			for _, workers := range []int{1, 2, 0} {
				name := func(route string) string {
					return fmt.Sprintf("%s tile=%d bits=%d workers=%d", route, tileRows, bits, workers)
				}
				x := xbarOf(fw, tileRows, bits)
				clips := countClips(x)
				got := NewMatrix(fa.Rows, fw.Rows)
				MulABtInto(got, fa, x, workers)
				check(name("fc"), got.Data, clips.Load(), fcWant.Data, fcClips)

				x = xbarOf(cw, tileRows, bits)
				clips = countClips(x)
				out := NewTensor4(in.N, cs.OutC, oh, ow)
				Conv2DInto(out, in, x, nil, cs, &ConvWorkspace{Workers: workers})
				check(name("conv"), out.Data, clips.Load(), convWant.Data, convClips)
				// A single image takes the GEMM row bands instead.
				x = xbarOf(cw, tileRows, bits)
				clips = countClips(x)
				one := NewTensor4(1, cs.OutC, oh, ow)
				Conv2DInto(one, &Tensor4{N: 1, C: in.C, H: in.H, W: in.W, Data: in.Image(0)}, x, nil, cs,
					&ConvWorkspace{Workers: workers})
				check(name("conv-single"), one.Data, clips.Load(), convWant.Image(0), firstClips)
			}
		}
	}
}

package tensor

import (
	"fmt"
	"math"
	"testing"
)

func TestConvShapeOutputDims(t *testing.T) {
	cs := ConvShape{InC: 1, OutC: 1, KH: 3, KW: 3, Pad: 1, Stride: 1, InH: 8, InW: 8}
	if cs.OutH() != 8 || cs.OutW() != 8 {
		t.Errorf("same-padding conv output %dx%d, want 8x8", cs.OutH(), cs.OutW())
	}
	cs.Stride = 2
	if cs.OutH() != 4 || cs.OutW() != 4 {
		t.Errorf("stride-2 output %dx%d, want 4x4", cs.OutH(), cs.OutW())
	}
}

func TestConvShapeValidate(t *testing.T) {
	good := ConvShape{InC: 1, OutC: 1, KH: 3, KW: 3, Pad: 1, Stride: 1, InH: 8, InW: 8}
	if err := good.Validate(); err != nil {
		t.Errorf("valid shape rejected: %v", err)
	}
	bad := good
	bad.Stride = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero stride accepted")
	}
	tiny := good
	tiny.InH, tiny.InW, tiny.Pad = 1, 1, 0
	if err := tiny.Validate(); err == nil {
		t.Error("negative output accepted")
	}
}

// Reference direct convolution for validation.
func convRef(in *Tensor4, w *Matrix, bias []float32, cs ConvShape) *Tensor4 {
	oh, ow := cs.OutH(), cs.OutW()
	out := NewTensor4(in.N, cs.OutC, oh, ow)
	for n := 0; n < in.N; n++ {
		for oc := 0; oc < cs.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float32
					for ic := 0; ic < cs.InC; ic++ {
						for kh := 0; kh < cs.KH; kh++ {
							for kw := 0; kw < cs.KW; kw++ {
								iy := oy*cs.Stride + kh - cs.Pad
								ix := ox*cs.Stride + kw - cs.Pad
								if iy < 0 || iy >= cs.InH || ix < 0 || ix >= cs.InW {
									continue
								}
								wv := elem(w, oc, (ic*cs.KH+kh)*cs.KW+kw)
								s += wv * in.At(n, ic, iy, ix)
							}
						}
					}
					if bias != nil {
						s += bias[oc]
					}
					out.Set(n, oc, oy, ox, s)
				}
			}
		}
	}
	return out
}

// conv2D runs Conv2DInto into a fresh output tensor with a fresh
// workspace (Workers 0, GOMAXPROCS).
func conv2D(in *Tensor4, w Operand, bias []float32, cs ConvShape) *Tensor4 {
	out := NewTensor4(in.N, cs.OutC, cs.OutH(), cs.OutW())
	Conv2DInto(out, in, w, bias, cs, &ConvWorkspace{})
	return out
}

func TestConv2DMatchesReference(t *testing.T) {
	cs := ConvShape{InC: 3, OutC: 4, KH: 3, KW: 3, Pad: 1, Stride: 1, InH: 7, InW: 5}
	in := NewTensor4(2, cs.InC, cs.InH, cs.InW)
	for i := range in.Data {
		in.Data[i] = float32((i*13)%9) - 4
	}
	w := NewMatrix(cs.OutC, cs.InC*cs.KH*cs.KW)
	for i := range w.Data {
		w.Data[i] = float32((i*7)%5) - 2
	}
	bias := []float32{0.5, -0.5, 1, 0}
	got := conv2D(in, w, bias, cs)
	want := convRef(in, w, bias, cs)
	for i := range want.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-3 {
			t.Fatalf("conv mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// convParityGrid pins the one convolution driver for one weight
// encoding: dense weights, the 2:4 compact form (against its densified
// twin) or the crossbar route in passthrough (one row tile, FS=0, so the
// ADC changes nothing). Every shape is crossed with Workers {0, 1, 2, 5,
// 16} and two batch sizes: the one the shape came with and 70 images,
// which spans at least two patch blocks on every shape (a block of the
// 3x3x3, 9x9 shape is 7 images). Outputs start dirty and each worker
// count reuses one workspace across every row and pass, so stale scratch
// would show. The reference is convRef on the dense twin, which does not
// go through the driver; results must match bit for bit.
func convParityGrid(t *testing.T, encoding string) {
	lcg := func(seed uint64) func([]float32) {
		return func(data []float32) {
			s := seed
			for i := range data {
				s = s*6364136223846793005 + 1442695040888963407
				data[i] = float32(int32(s>>33)) / float32(1<<31)
			}
		}
	}
	pattern := func(data []float32) { fillPattern(data, 11, 9, 0) }
	bias5 := []float32{0.5, -1, 0, 2, -0.25}
	// Stride 1 exercises the contiguous-run im2col copy (with pad
	// clipping), stride 2 the element-wise fallback; pad 0 and 2 cover
	// both window edge cases.
	shapes := []struct {
		cs   ConvShape
		n    int
		fill func([]float32)
		bias []float32
	}{
		{ConvShape{InC: 3, OutC: 5, KH: 3, KW: 3, Pad: 1, Stride: 1, InH: 9, InW: 9}, 6, pattern, bias5},
		{ConvShape{InC: 2, OutC: 5, KH: 5, KW: 5, Pad: 0, Stride: 1, InH: 11, InW: 11}, 6, pattern, bias5},
		{ConvShape{InC: 3, OutC: 5, KH: 3, KW: 3, Pad: 2, Stride: 2, InH: 9, InW: 9}, 6, pattern, bias5},
		{ConvShape{InC: 3, OutC: 5, KH: 3, KW: 3, Pad: 1, Stride: 1, InH: 8, InW: 8}, 2, lcg(11), []float32{0.1, -0.2, 0.3, 0, 0.5}},
	}
	// Each encoding returns the operand and its dense twin for a shape.
	encodings := []struct {
		name    string
		operand func(out, k int) (Operand, *Matrix)
	}{
		{"dense", func(out, k int) (Operand, *Matrix) {
			w := NewMatrix(out, k)
			fillPattern(w.Data, 19, 7, 1)
			return w, w
		}},
		{"2:4", func(out, k int) (Operand, *Matrix) { return random24(out, k, 5) }},
		{"xbar", func(out, k int) (Operand, *Matrix) {
			w := denseRand(out, k, 7)
			return xbarFor(w, k, 8, 0), w
		}},
	}
	type row struct {
		name string
		cs   ConvShape
		in   *Tensor4
		w    Operand
		bias []float32
		want *Tensor4
	}
	var rows []row
	for _, e := range encodings {
		if e.name != encoding {
			continue
		}
		for si, sh := range shapes {
			w, dense := e.operand(sh.cs.OutC, sh.cs.InC*sh.cs.KH*sh.cs.KW)
			for _, n := range []int{sh.n, 70} {
				in := NewTensor4(n, sh.cs.InC, sh.cs.InH, sh.cs.InW)
				sh.fill(in.Data)
				rows = append(rows, row{
					name: fmt.Sprintf("%s/shape%d/n=%d", e.name, si, n),
					cs:   sh.cs, in: in, w: w, bias: sh.bias,
					want: convRef(in, dense, sh.bias, sh.cs),
				})
			}
		}
	}
	if len(rows) == 0 {
		t.Fatalf("unknown encoding %q", encoding)
	}
	for _, workers := range []int{0, 1, 2, 5, 16} {
		ws := ConvWorkspace{Workers: workers}
		for _, r := range rows {
			out := NewTensor4(r.in.N, r.cs.OutC, r.cs.OutH(), r.cs.OutW())
			for pass := 0; pass < 2; pass++ {
				for i := range out.Data {
					out.Data[i] = 77 // dirty: the driver must fully overwrite
				}
				Conv2DInto(out, r.in, r.w, r.bias, r.cs, &ws)
				for i := range r.want.Data {
					if out.Data[i] != r.want.Data[i] {
						t.Fatalf("%s workers=%d pass %d: differs at %d: %v vs %v",
							r.name, workers, pass, i, out.Data[i], r.want.Data[i])
					}
				}
			}
		}
	}
}

// TestConv2DDenseParity: the dense rows of the conv parity grid.
func TestConv2DDenseParity(t *testing.T) { convParityGrid(t, "dense") }

// TestConv2D24MatchesDense: the 2:4 rows of the conv parity grid.
func TestConv2D24MatchesDense(t *testing.T) { convParityGrid(t, "2:4") }

// TestConv2DXbarPassthroughParity: the crossbar passthrough rows of the
// conv parity grid.
func TestConv2DXbarPassthroughParity(t *testing.T) { convParityGrid(t, "xbar") }

func TestConv2DStride2(t *testing.T) {
	cs := ConvShape{InC: 2, OutC: 3, KH: 3, KW: 3, Pad: 1, Stride: 2, InH: 8, InW: 8}
	in := NewTensor4(1, cs.InC, cs.InH, cs.InW)
	for i := range in.Data {
		in.Data[i] = float32(i % 3)
	}
	w := NewMatrix(cs.OutC, cs.InC*9)
	for i := range w.Data {
		w.Data[i] = float32(i%4) - 1
	}
	got := conv2D(in, w, nil, cs)
	want := convRef(in, w, nil, cs)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("stride-2 mismatch at %d", i)
		}
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	// 1x1 conv with identity weights passes channels through.
	cs := ConvShape{InC: 2, OutC: 2, KH: 1, KW: 1, Pad: 0, Stride: 1, InH: 4, InW: 4}
	in := NewTensor4(1, 2, 4, 4)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	w := NewMatrix(2, 2)
	w.Set(0, 0, 1)
	w.Set(1, 1, 1)
	out := conv2D(in, w, nil, cs)
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatalf("identity conv differs at %d", i)
		}
	}
}

func TestMaxPool2D(t *testing.T) {
	in := NewTensor4(1, 1, 4, 4)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	out := NewTensor4(1, 1, 2, 2)
	MaxPool2DInto(out, in, 2)
	want := []float32{5, 7, 13, 15}
	for i, v := range want {
		if out.Data[i] != v {
			t.Errorf("pool[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
}

func TestGlobalAvgPool2D(t *testing.T) {
	in := NewTensor4(1, 2, 2, 2)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	var out Matrix
	GlobalAvgPool2DInto(&out, in)
	if elem(&out, 0, 0) != 1.5 || elem(&out, 0, 1) != 5.5 {
		t.Errorf("gap = %v", out.Data)
	}
}

func TestFlattenView(t *testing.T) {
	in := NewTensor4(2, 3, 2, 2)
	m := Flatten(in)
	if m.Rows != 2 || m.Cols != 12 {
		t.Fatalf("flatten shape %dx%d", m.Rows, m.Cols)
	}
	m.Data[0] = 42
	if in.Data[0] != 42 {
		t.Error("Flatten should be a view, not a copy")
	}
}

func TestIm2colZeroPaddingRegions(t *testing.T) {
	cs := ConvShape{InC: 1, OutC: 1, KH: 3, KW: 3, Pad: 1, Stride: 1, InH: 3, InW: 3}
	in := NewTensor4(1, 1, 3, 3)
	for i := range in.Data {
		in.Data[i] = 1
	}
	patches := Im2col(in, 0, cs)
	// Top-left output position, kernel position (0,0) reads padding -> 0.
	if elem(patches, 0, 0) != 0 {
		t.Error("padding not zero")
	}
	// Center kernel position always reads real data.
	if elem(patches, 4, 4) != 1 {
		t.Error("center patch wrong")
	}
}

func TestTensorAtSetRoundTrip(t *testing.T) {
	tt := NewTensor4(2, 3, 4, 5)
	tt.Set(1, 2, 3, 4, 7.5)
	if tt.At(1, 2, 3, 4) != 7.5 {
		t.Error("At/Set round trip failed")
	}
	// Linear index check.
	if tt.Data[((1*3+2)*4+3)*5+4] != 7.5 {
		t.Error("layout not NCHW")
	}
}

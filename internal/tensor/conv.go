package tensor

import (
	"fmt"
	"slices"
)

// Tensor4 is a dense NCHW float32 tensor (batch, channels, height, width).
type Tensor4 struct {
	N, C, H, W int
	Data       []float32
}

// NewTensor4 allocates a zeroed NCHW tensor.
func NewTensor4(n, c, h, w int) *Tensor4 {
	if n < 0 || c < 0 || h < 0 || w < 0 {
		panic("tensor: negative tensor dimension")
	}
	return &Tensor4{N: n, C: c, H: h, W: w, Data: make([]float32, n*c*h*w)}
}

// At returns element (n, c, h, w).
func (t *Tensor4) At(n, c, h, w int) float32 {
	return t.Data[((n*t.C+c)*t.H+h)*t.W+w]
}

// Set assigns element (n, c, h, w).
func (t *Tensor4) Set(n, c, h, w int, v float32) {
	t.Data[((n*t.C+c)*t.H+h)*t.W+w] = v
}

// Image returns a view of sample n (all channels), length C*H*W.
func (t *Tensor4) Image(n int) []float32 {
	sz := t.C * t.H * t.W
	return t.Data[n*sz : (n+1)*sz]
}

// Clone returns a deep copy.
func (t *Tensor4) Clone() *Tensor4 {
	out := NewTensor4(t.N, t.C, t.H, t.W)
	copy(out.Data, t.Data)
	return out
}

// ConvShape describes a 2-D convolution: C input channels, K output
// channels, R x S kernel, with symmetric padding and stride.
type ConvShape struct {
	InC, OutC   int
	KH, KW      int
	Pad, Stride int
	InH, InW    int
}

// OutH returns the output height.
func (c ConvShape) OutH() int { return (c.InH+2*c.Pad-c.KH)/c.Stride + 1 }

// OutW returns the output width.
func (c ConvShape) OutW() int { return (c.InW+2*c.Pad-c.KW)/c.Stride + 1 }

// Validate checks internal consistency.
func (c ConvShape) Validate() error {
	if c.InC <= 0 || c.OutC <= 0 || c.KH <= 0 || c.KW <= 0 || c.Stride <= 0 {
		return fmt.Errorf("tensor: invalid conv shape %+v", c)
	}
	if c.OutH() <= 0 || c.OutW() <= 0 {
		return fmt.Errorf("tensor: conv shape %+v yields non-positive output", c)
	}
	return nil
}

// Im2col lowers the input tensor (single sample n) into a patch matrix of
// shape (InC*KH*KW) x (OutH*OutW), so that convolution becomes a single
// matrix multiplication with the (OutC) x (InC*KH*KW) weight matrix. This
// mirrors how NVDLA's convolution core consumes weights as a 2-D mapping,
// which is also the layout CSR encoding operates on (Section 3.2.1).
func Im2col(in *Tensor4, n int, cs ConvShape) *Matrix {
	out := &Matrix{}
	Im2colInto(out, in, n, cs)
	return out
}

// Im2colInto is Im2col into a reusable destination: dst is reshaped to
// (InC*KH*KW) x (OutH*OutW), zeroed (padding positions must not leak
// values from a previous image), and filled. With a recycled dst the
// call allocates nothing once the buffer has grown to the layer's size.
func Im2colInto(dst *Matrix, in *Tensor4, n int, cs ConvShape) {
	im2colBatch(dst, in, cs, n, n+1)
}

// im2colBatch lowers images [lo, hi) into one k x (hi-lo)*ohw patch
// matrix: image i occupies the ohw-wide column block (i-lo)*ohw, laid
// out as Im2col lays out one image. dst is reshaped and zeroed first
// (padding positions stay zero); stride-1 kernel rows are copied as
// contiguous runs instead of element-by-element.
func im2colBatch(dst *Matrix, in *Tensor4, cs ConvShape, lo, hi int) {
	oh, ow := cs.OutH(), cs.OutW()
	ohw := oh * ow
	dst.Reshape(cs.InC*cs.KH*cs.KW, (hi-lo)*ohw)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := lo; i < hi; i++ {
		img := in.Image(i)
		colOff := (i - lo) * ohw
		for c := 0; c < cs.InC; c++ {
			chanBase := c * cs.InH * cs.InW
			for kh := 0; kh < cs.KH; kh++ {
				for kw := 0; kw < cs.KW; kw++ {
					row := dst.Row((c*cs.KH+kh)*cs.KW + kw)[colOff : colOff+ohw]
					for oy := 0; oy < oh; oy++ {
						iy := oy*cs.Stride + kh - cs.Pad
						if iy < 0 || iy >= cs.InH {
							continue // leave zeros (padding)
						}
						srcRow := chanBase + iy*cs.InW
						dstRow := oy * ow
						if cs.Stride == 1 {
							off := kw - cs.Pad
							xlo, xhi := 0, ow
							if xlo < -off {
								xlo = -off
							}
							if xhi > cs.InW-off {
								xhi = cs.InW - off
							}
							if xlo < xhi {
								copy(row[dstRow+xlo:dstRow+xhi], img[srcRow+xlo+off:srcRow+xhi+off])
							}
							continue
						}
						for ox := 0; ox < ow; ox++ {
							ix := ox*cs.Stride + kw - cs.Pad
							if ix < 0 || ix >= cs.InW {
								continue
							}
							row[dstRow+ox] = img[srcRow+ix]
						}
					}
				}
			}
		}
	}
}

// ConvScratch holds the scratch buffers of one convolution worker: the
// batched im2col patch matrix or the padded input frame, the GEMM's row
// offset table into it, and the channel-major GEMM output that is
// copied out to NCHW. All grow to the largest layer seen and are reused
// across calls; a scratch must never be shared between concurrent
// workers.
type ConvScratch struct {
	patches Matrix
	frame   []float32
	off     []int
	gemm    Matrix
}

// ConvWorkspace provides the per-worker scratch buffers Conv2DInto and
// Conv2DFrameInto need to run batch images in parallel without
// allocating. The zero value is ready to use. Workers bounds
// parallelism (image bands, or GEMM row bands for a single image): 0
// means GOMAXPROCS, 1 keeps the convolution strictly serial (and the
// steady state allocation-free) for callers that already parallelize
// at a higher level, e.g. one inference replica per campaign worker. A
// workspace must not be used by two convolutions concurrently.
type ConvWorkspace struct {
	Workers int
	scratch []*ConvScratch
}

// Conv2DInto performs a batched convolution into a caller-owned
// (N, OutC, OutH, OutW) output tensor, with the (OutC) x (InC*KH*KW)
// weights in any encoding and bias of OutC entries (may be nil). The batch is split into
// image bands, one per worker, each with a private ConvScratch, so no
// scratch state is shared between goroutines and a reused workspace
// allocates nothing in steady state. A single band (one image, or
// Workers=1) instead passes the Workers bound to the GEMM's row bands.
//
// Within a band, images are lowered in cache-sized blocks: per block,
// one batched im2col, one GEMM of the operand, then a fused
// bias-add/copy-out from the channel-major GEMM layout to NCHW. The
// block bound balances two costs: per-image GEMMs on the zoo's tiny
// output planes spend more time on per-row setup (and, for 2:4, on
// decoding stored entries) than on MACs, while one whole-batch patch
// matrix spills L2 and turns every AXPY into a memory stream. Each
// output element accumulates the same terms in the same order whatever
// the block width or worker count, so the result is bit-identical to a
// per-image GEMM. Full forward passes run here; the row-patched pass
// runs its few changed channels on Conv2DFrameInto, which lowers
// nothing.
func Conv2DInto(out *Tensor4, in *Tensor4, w Operand, bias []float32, cs ConvShape, ws *ConvWorkspace) {
	conv(out, in, w, bias, cs, ws, false)
}

// Conv2DFrameInto is Conv2DInto computed over a zero-padded input frame
// instead of an im2col lowering, for operands of a few rows: the
// row-patched forward pass (dnn.Forwarder.ForwardRows) computes only a
// layer's changed output channels, and lowering the whole input for
// them costs more than their GEMM. Per block of images it copies the
// input once into a channel-major frame whose images share their pad
// rows and pad columns (see frameJob), and the operand's own conv
// kernel reads each of its K source rows as one contiguous run of the
// frame. Every output element takes the same terms in the same order
// as in Conv2DInto, padding included (a pad cell is +0 in both), so
// the result is bit-identical. A crossbar operand is lowered as in
// Conv2DInto: its ADC clip count would otherwise include frame
// positions that are not outputs.
func Conv2DFrameInto(out *Tensor4, in *Tensor4, w Operand, bias []float32, cs ConvShape, ws *ConvWorkspace) {
	_, xbar := w.(*Xbar)
	conv(out, in, w, bias, cs, ws, !xbar)
}

// conv checks the shapes and runs a convolution over image bands, on a
// padded frame or lowered.
func conv(out *Tensor4, in *Tensor4, w Operand, bias []float32, cs ConvShape, ws *ConvWorkspace, frame bool) {
	if err := cs.Validate(); err != nil {
		panic(err)
	}
	if rows, cols := w.dims(); rows != cs.OutC || cols != cs.InC*cs.KH*cs.KW {
		panic(fmt.Sprintf("tensor: conv weight shape %dx%d incompatible with %+v", rows, cols, cs))
	}
	if in.C != cs.InC || in.H != cs.InH || in.W != cs.InW {
		panic("tensor: conv input shape mismatch")
	}
	if out.N != in.N || out.C != cs.OutC || out.H != cs.OutH() || out.W != cs.OutW() {
		panic("tensor: conv output shape mismatch")
	}
	workers := workersFor(ws.Workers, in.N)
	for len(ws.scratch) < workers {
		ws.scratch = append(ws.scratch, &ConvScratch{})
	}
	gemmWorkers := ws.Workers
	if workers > 1 {
		gemmWorkers = 1
	}
	j := convJob{out, in, w, bias, cs, ws.scratch, gemmWorkers}
	if frame {
		fanOut(frameJob(j), in.N, workers)
		return
	}
	fanOut(j, in.N, workers)
}

// convJob is one Conv2DInto call, banded over batch images.
type convJob struct {
	out, in     *Tensor4
	w           Operand
	bias        []float32
	cs          ConvShape
	scratch     []*ConvScratch
	gemmWorkers int
}

// patchBudget bounds the bytes of one image block's patch matrix (or
// padded frame and GEMM output). It keeps the block's patches and GEMM
// output inside L2, and it bounds the scratch every Forwarder keeps
// live: at 256 KB, the per-replica buffers raised a campaign process's
// peak RSS by about a sixth.
const patchBudget = 64 << 10

// run convolves images [lo, hi) with worker w's scratch.
func (j convJob) run(w, lo, hi int) {
	cs, sc := j.cs, j.scratch[w]
	ohw := cs.OutH() * cs.OutW()
	block := max(1, patchBudget/(4*cs.InC*cs.KH*cs.KW*ohw))
	for b0 := lo; b0 < hi; b0 += block {
		b1 := min(b0+block, hi)
		im2colBatch(&sc.patches, j.in, cs, b0, b1)
		src := lowered(&sc.patches, sc.off)
		sc.off = src.off
		sc.gemm.Reshape(cs.OutC, src.n)
		mul(sc.gemm.Data, j.w, src, j.gemmWorkers)
		for c := 0; c < cs.OutC; c++ {
			row := sc.gemm.Row(c)
			for i := b0; i < b1; i++ {
				plane := j.out.Image(i)[c*ohw : (c+1)*ohw]
				seg := row[(i-b0)*ohw : (i-b0+1)*ohw : (i-b0+1)*ohw]
				if j.bias == nil {
					copy(plane, seg)
					continue
				}
				b := j.bias[c]
				for k := range seg {
					plane[k] = seg[k] + b
				}
			}
		}
	}
}

// frameJob is one Conv2DFrameInto call, banded over batch images.
//
// The frame holds a block of images per input channel, each channel a
// stack of rows Ws = InW+Pad wide: a row is Pad zeros then one input
// row, and an image is Pad zero rows then its InH rows, Hs = InH+Pad
// rows in all. The images of a block follow each other, then come Pad
// more zero rows and Pad zeros. Read as a padded image, a row's right
// pad is the next row's left pad and an image's bottom pad is the next
// image's top pad, so the padded input (c, b, i, j) sits at
// c·blk + b·Hs·Ws + i·Ws + j, where blk is a channel's length. Weight
// column (c, kh, kw) then reads frame row c·blk + kh·Ws + kw, and GEMM
// position b·Hs·Ws + s·oy·Ws + s·ox, for stride s, is output
// (b, oy, ox): the other positions are discarded.
type frameJob convJob

// run convolves images [lo, hi) with worker w's scratch.
func (j frameJob) run(w, lo, hi int) {
	cs, sc := j.cs, j.scratch[w]
	oh, ow, s := cs.OutH(), cs.OutW(), cs.Stride
	ws, hs := cs.InW+cs.Pad, cs.InH+cs.Pad
	plane := hs * ws
	block := max(1, min(hi-lo, patchBudget/(4*(cs.InC+cs.OutC)*plane)))
	blk := (block*hs+cs.Pad)*ws + cs.Pad
	sc.frame = slices.Grow(sc.frame[:0], cs.InC*blk)[:cs.InC*blk]
	clear(sc.frame)
	sc.off = sc.off[:0]
	for c := 0; c < cs.InC; c++ {
		for kh := 0; kh < cs.KH; kh++ {
			for kw := 0; kw < cs.KW; kw++ {
				sc.off = append(sc.off, c*blk+kh*ws+kw)
			}
		}
	}
	inPlane := cs.InH * cs.InW
	for b0 := lo; b0 < hi; b0 += block {
		b1 := min(b0+block, hi)
		for c := 0; c < cs.InC; c++ {
			for i := b0; i < b1; i++ {
				img := j.in.Data[(i*cs.InC+c)*inPlane:][:inPlane]
				dst := sc.frame[c*blk+((i-b0)*hs+cs.Pad)*ws+cs.Pad:]
				for iy := 0; iy < cs.InH; iy++ {
					d := dst[iy*ws:][:cs.InW] // a loop, as in store
					for x, v := range img[iy*cs.InW:][:cs.InW] {
						d[x] = v
					}
				}
			}
		}
		n := (b1-b0-1)*plane + s*(oh-1)*ws + s*(ow-1) + 1
		sc.gemm.Reshape(cs.OutC, n)
		mul(sc.gemm.Data, j.w, gemmSrc{data: sc.frame, off: sc.off, n: n, keep: (b1 - b0) * oh * ow}, j.gemmWorkers)
		for c := 0; c < cs.OutC; c++ {
			row := sc.gemm.Row(c)
			for i := b0; i < b1; i++ {
				j.store(j.out.Image(i)[c*oh*ow:(c+1)*oh*ow], row[(i-b0)*plane:], c)
			}
		}
	}
}

// store copies output channel c of one image, with its bias, into
// plane from seg, the image's stretch of the GEMM output row, where
// output (oy, ox) is at position s·oy·Ws + s·ox. Without a bias it adds
// +0, which changes no GEMM output: none is -0 (the ±0 rule, see
// Operand). Rows are copied by loops, not copy: a row is a few
// elements, and a memmove call per row costs more than the row.
func (j *frameJob) store(plane, seg []float32, c int) {
	ow, s, ws := j.cs.OutW(), j.cs.Stride, j.cs.InW+j.cs.Pad
	var b float32
	if j.bias != nil {
		b = j.bias[c]
	}
	for oy := range j.cs.OutH() {
		dst, src := plane[oy*ow:(oy+1)*ow], seg[s*oy*ws:]
		if s == 1 {
			for ox, v := range src[:ow] {
				dst[ox] = v + b
			}
			continue
		}
		for ox := range dst {
			dst[ox] = src[s*ox] + b
		}
	}
}

// MaxPool2DInto applies non-overlapping k x k max pooling with stride k
// into a caller-owned (N, C, H/k, W/k) output tensor; it allocates
// nothing. The window walk runs on raw
// channel-plane slices instead of At/Set index arithmetic — max is
// order-independent, so the result is identical to the naive loop.
func MaxPool2DInto(out *Tensor4, in *Tensor4, k int) {
	oh, ow := in.H/k, in.W/k
	if out.N != in.N || out.C != in.C || out.H != oh || out.W != ow {
		panic("tensor: max-pool output shape mismatch")
	}
	planes := in.N * in.C
	if k == 2 {
		// The zoo's only window size gets a branch-free body: builtin max
		// compiles to a conditional move, where the general path's
		// `if v > best` mispredicts constantly on activation data (~4x
		// slower). Builtin max differs from `>` only on NaN and -0/+0
		// ties, neither of which forward activations contain.
		for p := 0; p < planes; p++ {
			src := in.Data[p*in.H*in.W : (p+1)*in.H*in.W]
			dst := out.Data[p*oh*ow : (p+1)*oh*ow]
			for oy := 0; oy < oh; oy++ {
				dr := dst[oy*ow : (oy+1)*ow : (oy+1)*ow]
				s0 := src[(oy*2)*in.W : (oy*2)*in.W+2*ow]
				s1 := src[(oy*2+1)*in.W : (oy*2+1)*in.W+2*ow]
				for ox := 0; ox < ow; ox++ {
					dr[ox] = max(max(s0[2*ox], s0[2*ox+1]), max(s1[2*ox], s1[2*ox+1]))
				}
			}
		}
		return
	}
	for p := 0; p < planes; p++ {
		src := in.Data[p*in.H*in.W : (p+1)*in.H*in.W]
		dst := out.Data[p*oh*ow : (p+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			dr := dst[oy*ow : (oy+1)*ow]
			for dy := 0; dy < k; dy++ {
				sr := src[(oy*k+dy)*in.W : (oy*k+dy+1)*in.W]
				if dy == 0 {
					for ox := 0; ox < ow; ox++ {
						best := sr[ox*k]
						for dx := 1; dx < k; dx++ {
							if v := sr[ox*k+dx]; v > best {
								best = v
							}
						}
						dr[ox] = best
					}
					continue
				}
				for ox := 0; ox < ow; ox++ {
					best := dr[ox]
					for dx := 0; dx < k; dx++ {
						if v := sr[ox*k+dx]; v > best {
							best = v
						}
					}
					dr[ox] = best
				}
			}
		}
	}
}

// GlobalAvgPool2DInto reduces each channel plane to its mean, into a
// reusable matrix (it is reshaped to N x C, reusing its backing array
// when large enough). Used by ResNet-style heads.
func GlobalAvgPool2DInto(out *Matrix, in *Tensor4) {
	out.Reshape(in.N, in.C)
	plane := in.H * in.W
	if plane == 0 {
		for i := range out.Data {
			out.Data[i] = 0
		}
		return
	}
	inv := 1 / float32(plane)
	for n := 0; n < in.N; n++ {
		img := in.Image(n)
		for c := 0; c < in.C; c++ {
			var s float32
			for _, v := range img[c*plane : (c+1)*plane] {
				s += v
			}
			out.Set(n, c, s*inv)
		}
	}
}

// Flatten reshapes the tensor into an (N x C*H*W) matrix view (no copy).
func Flatten(in *Tensor4) *Matrix {
	return FromSlice(in.N, in.C*in.H*in.W, in.Data)
}

// ReLU applies max(0, x) elementwise in place.
func (t *Tensor4) ReLU() {
	reluInPlace(t.Data)
}

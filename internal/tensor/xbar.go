package tensor

import (
	"fmt"
	"math"
)

// Xbar routes a layer through the crossbar compute-in-memory kernels:
// a dense effective-weight matrix (conductance variation and stuck-at
// faults already folded in by internal/crossbar) annotated with the
// tile geometry and the per-column ADC calibration. The kernels
// reproduce the analog dataflow: each row-tile of the crossbar
// accumulates its partial sum in the analog domain (float32 here), a
// per-column ADC quantizes that partial, and the quantized partials
// add digitally across row-tiles.
//
// Like Sparse24, the struct lives in this package so the dnn Forwarder
// can route layers through it without new dependencies; the mapping
// and fault model that *build* an Xbar live in internal/crossbar.
type Xbar struct {
	// W is the effective weight matrix, Out x In (same shape and
	// layout as the dense layer weights it replaces).
	W *Matrix
	// TileRows is the number of crossbar wordlines per tile: the
	// k-dimension is cut into ceil(In/TileRows) analog accumulation
	// windows with an ADC conversion between them.
	TileRows int
	// ADCBits is the per-column ADC resolution, 1 to 16 bits (the range
	// crossbar.Config.Validate accepts). The quantizer is a symmetric
	// mid-tread with 2^ADCBits codes clamped to [-2^(b-1), 2^(b-1)-1]
	// steps; values over full scale saturate.
	ADCBits int
	// FS holds the ADC full-scale range per (row-tile, output) column:
	// FS[rt*Out + j]. A non-positive entry disables quantization for
	// that column (an all-zero pristine column segment has no
	// meaningful range; its partial passes through unquantized).
	FS []float32
	// ClipCounter, when non-nil, receives the count of quantizer
	// saturation events, once per kernel band (internal/crossbar points
	// it at the crossbar.adc.clips telemetry counter).
	ClipCounter interface{ Add(n int64) }
}

// check panics on an internally inconsistent Xbar; dims calls it, so
// every kernel entry validates the handle once and a mis-built one fails
// loudly instead of reading out of bounds mid-GEMM.
func (x *Xbar) check() {
	if x.W == nil || x.TileRows < 1 || x.ADCBits < 1 || x.ADCBits > 16 {
		panic(fmt.Sprintf("tensor: invalid Xbar (W=%v tileRows=%d adcBits=%d)", x.W != nil, x.TileRows, x.ADCBits))
	}
	nrt := (x.W.Cols + x.TileRows - 1) / x.TileRows
	if len(x.FS) != nrt*x.W.Rows {
		panic(fmt.Sprintf("tensor: Xbar FS length %d != %d row-tiles x %d outputs", len(x.FS), nrt, x.W.Rows))
	}
}

// addClips publishes a kernel band's locally accumulated clip count.
func (x *Xbar) addClips(n int64) {
	if n != 0 && x.ClipCounter != nil {
		x.ClipCounter.Add(n)
	}
}

// colADC is the ADC of one (row tile, output column): the column's full
// scale resolved once to its quantizer step and code range, so a
// conversion costs one division, one round and the clamp. A
// non-positive full scale leaves step at 0, and the column passes its
// partials through unquantized (see FS).
type colADC struct {
	step, lo, hi float64
}

// adc returns the converter of output column j in row tile rt.
func (x *Xbar) adc(rt, j int) colADC {
	fs := x.FS[rt*x.W.Rows+j]
	if fs <= 0 {
		return colADC{}
	}
	half := float64(int64(1) << uint(x.ADCBits-1))
	return colADC{step: float64(fs) / half, lo: -half, hi: half - 1}
}

// addConv converts every analog partial of p through the column ADC and
// adds it to dst: round to the nearest step, clamp to the code range,
// count a clip on saturation. A column without an ADC takes a plain add
// loop. The arithmetic is pure float64 -> float32 with a single
// math.Round per element, so it is deterministic and independent of
// call order.
func (c colADC) addConv(dst, p []float32, clips *int64) {
	dst = dst[:len(p)]
	if c.step == 0 {
		for i, v := range p {
			dst[i] += v
		}
		return
	}
	var n int64
	for i, v := range p {
		q := math.Round(float64(v) / c.step)
		if q > c.hi {
			q = c.hi
			n++
		} else if q < c.lo {
			q = c.lo
			n++
		}
		dst[i] += float32(q * c.step)
	}
	*clips += n
}

func (x *Xbar) dims() (rows, cols int) {
	x.check()
	return x.W.Rows, x.W.Cols
}

// mulABtBand computes rows [lo, hi) of dst = a * Weffᵀ through the
// crossbar dataflow: dst[i][j] sums the ADC-quantized per-tile partial
// dot products of a's row i and Weff's row j, gathered per tile (see
// mulABtGathered). Clips are summed per band and published once.
func (x *Xbar) mulABtBand(dst, a *Matrix, lo, hi int) {
	x.addClips(mulABtGathered(dst, a, x.W, x, lo, hi))
}

// xbarChunk is the column width of the analog partial sums mulBand keeps
// on the stack.
const xbarChunk = 256

// mulBand computes rows [lo, hi) of dst = Weff * b (b is K x N) with the
// per-row-tile ADC between accumulation windows: the GEMM behind the
// crossbar convolution path. It walks b in xbarChunk-column slices, so a
// slice stays cache-resident across every output row, and keeps the
// running analog partial of the current row tile in a stack array, so
// bands need no shared scratch. Per element the terms and conversions
// happen in the same order at any chunk, band or GEMM width. Clips are
// summed per band and published once.
func (x *Xbar) mulBand(dst []float32, b gemmSrc, lo, hi int) {
	k, n := len(b.off), b.n
	var part [xbarChunk]float32
	var clips int64
	for c0 := 0; c0 < n; c0 += xbarChunk {
		c1 := min(c0+xbarChunk, n)
		p := part[:c1-c0]
		for j := lo; j < hi; j++ {
			wr := x.W.Data[j*k : (j+1)*k]
			dr := dst[j*n+c0 : j*n+c1]
			clear(dr)
			for tlo, rt := 0, 0; tlo < k; tlo, rt = tlo+x.TileRows, rt+1 {
				thi := min(tlo+x.TileRows, k)
				clear(p)
				axpyRows(p, wr[tlo:thi], b.data[c0:], b.off[tlo:thi])
				x.adc(rt, j).addConv(dr, p, &clips)
			}
		}
	}
	x.addClips(clips)
}

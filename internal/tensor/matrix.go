// Package tensor implements the minimal dense linear-algebra substrate
// needed to run real DNN inference and training in pure Go: float32
// matrices and 4-D tensors, parallel matrix multiplication and
// im2col-based convolution over weight operands in three encodings
// (dense, 2:4 compute-direct, crossbar; see Operand), pooling, and the
// activation functions used by the model zoo.
//
// The package exists because MaxNVM's fault-tolerance studies require
// *measured* classification error under injected memory faults, which in
// turn requires an executable DNN — not just a size model.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (row-major) in a Matrix without copying. The slice
// length must equal rows*cols.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice length %d != %d x %d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r (no copy).
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Reshape resizes the matrix to rows x cols, reusing the backing array
// whenever it has the capacity (the contents are unspecified afterwards).
// Scratch buffers reshaped per layer shape this way reach a steady state
// with zero allocations.
func (m *Matrix) Reshape(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	m.Rows, m.Cols = rows, cols
	if need := rows * cols; cap(m.Data) < need {
		m.Data = make([]float32, need)
	} else {
		m.Data = m.Data[:need]
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// MulInto computes dst = a * b. Shapes must agree: a is (M x K), b is
// (K x N), dst is (M x N). dst must not alias a or b; its prior contents
// are ignored (each row band clears its own rows, so no serial memset
// precedes the parallel section). The multiplication is parallelized
// across row bands of a.
func MulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MulInto inner dims %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: MulInto dst shape mismatch")
	}
	mul(dst.Data, a, lowered(b, nil), 0)
}

func (m *Matrix) dims() (rows, cols int) { return m.Rows, m.Cols }

// mulBand computes rows [lo, hi) of dst = m*b using an ikj loop order so
// the inner loop streams through contiguous rows of b and dst. Each band
// clears its own rows before accumulating, so large GEMMs never pay a
// single-threaded zero fill ahead of the parallel section. Each dst
// element accumulates its terms one at a time in ascending-p order.
func (m *Matrix) mulBand(dst []float32, b gemmSrc, lo, hi int) {
	k, n := m.Cols, b.n
	for i := lo; i < hi; i++ {
		ar := m.Data[i*k : (i+1)*k]
		dr := dst[i*n : (i+1)*n]
		clear(dr)
		axpyRows(dr, ar, b.data, b.off)
	}
}

// axpyRows computes dst[i] += w[r]*src[off[r]+i] for every row r of the
// span in ascending order, skipping zero weights (pruned weights are
// common). It gathers the nonzero weights four at a time and adds their
// four rows with one load and one store of dst per element; the adds
// stay in ascending-r order, left to right, so each element takes
// exactly the terms and roundings of one axpy per nonzero weight.
func axpyRows(dst, w, src []float32, off []int) {
	var ws [4]float32
	var at [4]int
	off = off[:len(w)]
	g := 0
	for r, wv := range w {
		if wv == 0 {
			continue
		}
		ws[g], at[g] = wv, off[r]
		if g++; g < 4 {
			continue
		}
		g = 0
		s0 := src[at[0]:][:len(dst)]
		s1 := src[at[1]:][:len(dst)]
		s2 := src[at[2]:][:len(dst)]
		s3 := src[at[3]:][:len(dst)]
		for i, d := range dst {
			dst[i] = d + ws[0]*s0[i] + ws[1]*s1[i] + ws[2]*s2[i] + ws[3]*s3[i]
		}
	}
	for r := range g {
		axpy(dst, src[at[r]:], ws[r])
	}
}

// axpy computes dst[i] += a*src[i] for every i < len(dst), 4-way
// unrolled. Each element still takes one multiply and one add, so the
// result is bit-identical to the scalar loop; every conv GEMM kernel
// accumulates through it.
func axpy(dst, src []float32, a float32) {
	src = src[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d := dst[i : i+4 : i+4]
		s := src[i : i+4 : i+4]
		d[0] += a * s[0]
		d[1] += a * s[1]
		d[2] += a * s[2]
		d[3] += a * s[3]
	}
	for ; i < len(dst); i++ {
		dst[i] += a * src[i]
	}
}

// mulABtBand computes rows [lo, hi) of dst = a * mᵀ serially (see
// mulABtGathered): the terms and order of mulBand, which skips the same
// zero weights, so dst is bit-identical to MulInto(dst, a, Transpose(m)).
func (m *Matrix) mulABtBand(dst, a *Matrix, lo, hi int) {
	mulABtGathered(dst, a, m, nil, lo, hi)
}

// The FC kernel gathers the non-zero weights of fcChunk input columns at
// a time onto the stack, and keeps there the partials of a block of
// fcRows (a multiple of 4) batch rows while a tile spans such windows.
const (
	fcChunk = 256
	fcRows  = 256
)

// fcGather is one window of an output column's non-zero weights, in
// ascending order: w[e] multiplies column c[e] of the window.
type fcGather struct {
	w [fcChunk]float32
	c [fcChunk]int
}

// put stores weight v of window column c as entry ne and returns ne+1,
// or ne for a zero v; it does not branch, as pruned zeros fall at random.
func (g *fcGather) put(ne int, v float32, c int) int {
	g.w[ne], g.c[ne] = v, c
	b := math.Float32bits(v) << 1
	return ne + int((b|-b)>>31)
}

// gather fills g with output column j's non-zero weights in the window
// [c0, c1) of w and returns how many: a dense row's, or a 2:4 row's
// stored ones at column 4·group + pos (c0 is a multiple of 4, as a 2:4
// operand is one tile). An Operand method would make g escape.
func (g *fcGather) gather(w Operand, j, c0, c1 int) (ne int) {
	switch w := w.(type) {
	case *Matrix:
		for c, v := range w.Row(j)[c0:c1] {
			ne = g.put(ne, v, c)
		}
	case *Sparse24:
		e0 := j*2*w.GroupsPerRow + c0/2
		for e, v := range w.Val[e0 : e0+(c1-c0+3)/4*2] {
			ne = g.put(ne, v, e/2*4+int(w.Pos[e0+e]))
		}
	}
	return ne
}

// mulABtGathered computes rows [lo, hi) of dst = a * wᵀ, the FC kernel
// of every operand. With x nil, k is one tile and each element is its
// dot product; with x set, k is cut into x's row tiles and each tile's
// partial is converted by its column ADC and added (clips returned).
// Per output column and window it gathers the non-zero weights once and
// runs the batch rows four at a time against them, each row with its own
// accumulator (a short last group repeats its last row). Each element
// adds its non-zero-weight terms, then its tile partials, in ascending
// order from +0, so only zero-weight terms drop out (the ±0 rule, see
// Operand). Every activation is multiplied: a branch on zero ones is
// mispredicted on post-ReLU data.
func mulABtGathered(dst, a *Matrix, w Operand, x *Xbar, lo, hi int) (clips int64) {
	k, n := a.Cols, dst.Cols
	tileRows := max(k, 1)
	if x != nil {
		tileRows = x.TileRows
	}
	clear(dst.Data[lo*n : hi*n]) // every tile's result adds to +0
	var g fcGather
	var part [fcRows]float32
	for b0 := lo; b0 < hi; b0 += fcRows {
		b1 := min(b0+fcRows, hi)
		for j := 0; j < n; j++ {
			for tlo, rt := 0, 0; tlo < k; tlo, rt = tlo+tileRows, rt+1 {
				thi := min(tlo+tileRows, k)
				var adc colADC
				if x != nil {
					adc = x.adc(rt, j)
				}
				for c0 := tlo; c0 < thi; c0 += fcChunk {
					c1 := min(c0+fcChunk, thi)
					ne := g.gather(w, j, c0, c1)
					for i := b0; i < b1; i += 4 {
						last := min(3, b1-1-i)
						p := (*[4]float32)(part[i-b0:])
						if c0 == tlo {
							*p = [4]float32{}
						}
						r := [4]int{i*k + c0, (i+min(1, last))*k + c0, (i+min(2, last))*k + c0, (i+last)*k + c0}
						if ne == c1-c0 { // no zero weight: the columns run from c0
							dense4(p, a.Data, r, g.w[:ne])
						} else {
							dots4(p, a.Data, r, g.w[:ne], g.c[:ne])
						}
						if c1 < thi {
							continue
						}
						sum := p[:last+1] // no copy of *p: it stalls on dots4's stores
						if x != nil {
							var q [4]float32
							adc.addConv(q[:last+1], sum, &clips)
							sum = q[:last+1]
						}
						for d, v := range sum { // +0 + v == v: v is never -0
							dst.Data[(i+d)*n+j] += v
						}
					}
				}
			}
		}
	}
	return clips
}

// dots4 adds to p[q], in order, the terms of weights ws (window columns
// cs) and activation row q, whose window starts at a[r[q]].
func dots4(p *[4]float32, a []float32, r [4]int, ws []float32, cs []int) {
	n := len(a) - r[3] // r[3] is the largest start
	a0, a1, a2, a3 := a[r[0]:][:n], a[r[1]:][:n], a[r[2]:][:n], a[r[3]:][:n]
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	for e, wv := range ws[:len(cs)] {
		c := cs[e]
		p0 += a0[c] * wv
		p1 += a1[c] * wv
		p2 += a2[c] * wv
		p3 += a3[c] * wv
	}
	p[0], p[1], p[2], p[3] = p0, p1, p2, p3
}

// dense4 is dots4 on a window with no zero weight (cs[e] == e), without
// the column loads and bounds checks, so dense weights lose no speed.
func dense4(p *[4]float32, a []float32, r [4]int, ws []float32) {
	a0, a1, a2, a3 := a[r[0]:][:len(ws)], a[r[1]:][:len(ws)], a[r[2]:][:len(ws)], a[r[3]:][:len(ws)]
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	for e, wv := range ws {
		p0 += a0[e] * wv
		p1 += a1[e] * wv
		p2 += a2[e] * wv
		p3 += a3[e] * wv
	}
	p[0], p[1], p[2], p[3] = p0, p1, p2, p3
}

// Mul returns a * b as a new matrix.
func Mul(a, b *Matrix) *Matrix {
	dst := NewMatrix(a.Rows, b.Cols)
	MulInto(dst, a, b)
	return dst
}

// AddBiasRows adds bias[j] to every element of column j.
func (m *Matrix) AddBiasRows(bias []float32) {
	if len(bias) != m.Cols {
		panic("tensor: bias length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for j := range row {
			row[j] += bias[j]
		}
	}
}

// Transpose returns the transposed matrix.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Data[c*out.Cols+r] = m.Data[r*m.Cols+c]
		}
	}
	return out
}

// reluInPlace zeroes sign-bit-set entries branch-free: the sign bit
// selects an all-zero or identity mask, so throughput does not depend on
// the sign mix. The branchy form (`if v < 0`) mispredicts on roughly
// half the elements of a fresh activation tensor, which costs ~7x on
// this loop. Entries with the sign bit set — including -0 and negative
// NaNs, which conv/FC outputs cannot produce (an IEEE accumulation
// seeded at +0 never yields -0, and the zoo models are NaN-free) — map
// to +0.
func reluInPlace(data []float32) {
	for i, v := range data {
		b := math.Float32bits(v)
		data[i] = math.Float32frombits(b & ((b >> 31) - 1))
	}
}

// Softmax converts each row into a probability distribution in place,
// using the max-subtraction trick for numerical stability.
func (m *Matrix) Softmax() {
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float32
		for j, v := range row {
			e := float32(math.Exp(float64(v - maxV)))
			row[j] = e
			sum += e
		}
		if sum > 0 {
			inv := 1 / sum
			for j := range row {
				row[j] *= inv
			}
		}
	}
}

// ArgmaxRow returns the index of the maximum element of row r.
func (m *Matrix) ArgmaxRow(r int) int {
	row := m.Row(r)
	best, bv := 0, row[0]
	for j, v := range row[1:] {
		if v > bv {
			best, bv = j+1, v
		}
	}
	return best
}

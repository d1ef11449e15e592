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

// mulABtBand computes rows [lo, hi) of dst = a * mᵀ serially: dst[i][j]
// is the dot product of row i of a and row j of m. Accumulation order
// matches mulBand term for term, and the terms mulBand skips are zero
// products (the ±0 rule, see Operand), so dst is bit-identical to
// MulInto(dst, a, Transpose(m)).
func (m *Matrix) mulABtBand(dst, a *Matrix, lo, hi int) {
	mulABtTiled(dst, a, m, nil, lo, hi)
}

// mulABtTiled computes rows [lo, hi) of dst = a * wᵀ: the FC kernel of
// the dense and the crossbar operands. With x nil the k dimension is one
// tile and no column has an ADC, which is the plain dense product; with
// x set it is cut into x's row tiles, each tile's partial converted by
// its column ADC, and it returns the clips counted. Output columns go
// four at a time: the four share each activation load, and each keeps
// its own tile partial, so four independent add chains run where a
// scalar dot has one (a short last block repeats its last column and
// drops the copies). Per element the terms add in ascending order from
// +0, and the converted partials across tiles in ascending order from
// +0. Zero activations are multiplied too (the ±0 rule, see Operand): a
// branch on them is mispredicted on post-ReLU data.
func mulABtTiled(dst, a, w *Matrix, x *Xbar, lo, hi int) (clips int64) {
	k, n := a.Cols, w.Rows
	tileRows := max(k, 1)
	if x != nil {
		tileRows = x.TileRows
	}
	for i := lo; i < hi; i++ {
		clear(dst.Data[i*n : (i+1)*n])
	}
	for j := 0; j < n; j += 4 {
		width := min(4, n-j)
		for tlo, rt := 0, 0; tlo < k; tlo, rt = tlo+tileRows, rt+1 {
			thi := min(tlo+tileRows, k)
			var wr [4][]float32
			var adc [4]colADC
			for c := range wr {
				jc := j + min(c, width-1)
				wr[c] = w.Data[jc*k+tlo : jc*k+thi]
				if x != nil {
					adc[c] = x.adc(rt, jc)
				}
			}
			w0, w1, w2, w3 := wr[0], wr[1][:len(wr[0])], wr[2][:len(wr[0])], wr[3][:len(wr[0])]
			for i := lo; i < hi; i++ {
				var p0, p1, p2, p3 float32
				for q, av := range a.Data[i*k+tlo : i*k+thi][:len(w0)] {
					p0 += av * w0[q]
					p1 += av * w1[q]
					p2 += av * w2[q]
					p3 += av * w3[q]
				}
				p := [4]float32{p0, p1, p2, p3}
				d := dst.Data[i*n+j : i*n+j+width]
				for c := range d {
					adc[c].addConv(d[c:c+1], p[c:c+1], &clips)
				}
			}
		}
	}
	return clips
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

package tensor

// The fully-connected kernel against the branchy FC kernel of the past:
// refMulABtTiled multiplies every weight and skips every zero
// activation, the production kernel skips every zero weight and
// multiplies every activation. The ±0 rule (see Operand) says the two
// agree bit for bit on finite weights; TestMulABtMatchesReference and
// FuzzMulABt hold every FC operand to that, ADC clip counts included.

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
)

// refMulABtTiled is the dense and crossbar FC kernel as it was when it
// still skipped zero activations, kept verbatim as the oracle.
func refMulABtTiled(dst, a, w *Matrix, x *Xbar, lo, hi int) (clips int64) {
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
					if av == 0 {
						continue
					}
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

var negZero = float32(math.Copysign(0, -1))

// postReLU returns rows x cols activations as a ReLU leaves them, with
// whole runs of zeros (windows of seven, every third window) and a -0
// in every eleventh zero slot.
func postReLU(rows, cols int, seed uint64) *Matrix {
	m := denseRand(rows, cols, seed)
	zeros := 0
	for i, v := range m.Data {
		if v <= 0 || (i/7)%3 == 0 {
			m.Data[i] = 0
			if zeros++; zeros%11 == 0 {
				m.Data[i] = negZero
			}
		}
	}
	return m
}

// fcWeights returns finite rows x cols weights of both signs with
// zeros, -0 entries, zero input columns 8-15 (an all-zero crossbar tile
// at tile height 8, all-pad 2:4 groups) and an all-zero last row (a dead
// output).
func fcWeights(rows, cols int, seed uint64) *Matrix {
	w := denseRand(rows, cols, seed)
	for i := 3; i < len(w.Data); i += 13 {
		w.Data[i] = negZero
	}
	for r := range rows {
		clear(w.Row(r)[min(8, cols):min(16, cols)])
	}
	if rows > 1 {
		clear(w.Row(rows - 1))
	}
	return w
}

// xbarMode wraps w in an Xbar of the given tile height and resolution
// whose ADCs are "off" (every full scale non-positive), "in-range"
// (full scales too large to clip) or "clip" (a cycle of off, negative,
// clipping and in-range full scales).
func xbarMode(w *Matrix, tileRows, bits int, mode string) *Xbar {
	x := xbarFor(w, tileRows, bits, 0)
	for i := range x.FS {
		switch mode {
		case "in-range":
			x.FS[i] = 1 << 12
		case "clip":
			x.FS[i] = []float32{0, -1, 0.02, 1.5, 4}[i%5]
		}
	}
	return x
}

// twin24 is a canonical 2:4 operand holding, per group of 4 columns,
// the first two nonzero entries of w, and the dense matrix it stands for.
func twin24(w *Matrix) (*Sparse24, *Matrix) {
	s := NewSparse24(w.Rows, w.Cols)
	dense := NewMatrix(w.Rows, w.Cols)
	for r := 0; r < w.Rows; r++ {
		for g := 0; g < s.GroupsPerRow; g++ {
			e := (r*s.GroupsPerRow + g) * 2
			for p, kept := 0, 0; p < 4 && g*4+p < w.Cols && kept < 2; p++ {
				if v := w.Data[r*w.Cols+g*4+p]; v != 0 {
					s.Val[e+kept], s.Pos[e+kept] = v, uint8(p)
					dense.Data[r*w.Cols+g*4+p] = v
					kept++
				}
			}
		}
	}
	return s, dense
}

// checkMulABtRef runs MulABtInto on w with the given worker bound and
// fails unless every output bit and the clip count match refMulABtTiled
// on ref (the dense matrix w stands for) with ADCs x (nil for none).
func checkMulABtRef(t testing.TB, name string, a *Matrix, w Operand, ref *Matrix, x *Xbar, workers int) {
	t.Helper()
	want := NewMatrix(a.Rows, ref.Rows)
	wantClips := refMulABtTiled(want, a, ref, x, 0, a.Rows)
	var counter *atomic.Int64
	if x != nil {
		counter = countClips(x)
	}
	got := NewMatrix(a.Rows, ref.Rows)
	got.Fill(-1)
	MulABtInto(got, a, w, workers)
	var clips int64
	if counter != nil {
		clips = counter.Load()
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s workers=%d: element %d = %v (%#x), reference %v (%#x)", name, workers, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
	if clips != wantClips {
		t.Fatalf("%s workers=%d: %d clips, reference %d", name, workers, clips, wantClips)
	}
}

// checkAllFC holds the dense, 2:4 and crossbar forms of weights w, the
// last at each tile height, to the reference at one shape.
func checkAllFC(t testing.TB, shape string, a, w *Matrix, tiles []int, workers int) {
	t.Helper()
	checkMulABtRef(t, "dense "+shape, a, w, w, nil, workers)
	s24, dense := twin24(w)
	checkMulABtRef(t, "2:4 "+shape, a, s24, dense, nil, workers)
	for _, tileRows := range tiles {
		for _, mode := range []string{"off", "in-range", "clip"} {
			for _, bits := range []int{3, 8} {
				x := xbarMode(w, tileRows, bits, mode)
				name := fmt.Sprintf("xbar %s tile=%d bits=%d adc=%s", shape, tileRows, bits, mode)
				checkMulABtRef(t, name, a, x, w, x, workers)
			}
		}
	}
}

// TestMulABtMatchesReference pins every FC kernel, bit for bit and clip
// for clip, to the branchy kernel on post-ReLU activations (zero runs
// and -0 entries), batch rows of every residue mod 4, output counts of
// every residue mod 4, tile heights that split k unevenly, an all-zero
// tile, ADCs off, in range and clipping, and 1 and 2 workers. The
// largest shape is above the serial threshold, so 2 workers split its
// rows. A k above the gather window (3·fcChunk+5) runs dense windows and
// tiles that span several windows, with batches of one and more than
// fcRows rows.
func TestMulABtMatchesReference(t *testing.T) {
	const k = 131
	for _, m := range []int{1, 3, 6, 8, 13, 37} {
		for _, n := range []int{1, 2, 3, 4, 5, 14, 17} {
			a := postReLU(m, k, uint64(m))
			w := fcWeights(n, k, uint64(100+n))
			for _, workers := range []int{1, 2} {
				checkAllFC(t, fmt.Sprintf("%dx%dx%d", m, k, n), a, w, []int{1, 8, 50, 64, 200}, workers)
			}
		}
	}
	const wide = 3*fcChunk + 5
	for _, m := range []int{1, fcRows + 6} {
		for _, n := range []int{2, 5} {
			a := postReLU(m, wide, uint64(m))
			w := fcWeights(n, wide, uint64(200+n))
			for r := range n - 1 {
				for c, v := range w.Row(r)[fcChunk:] {
					if v == 0 {
						// Past the first window, every weight of a live
						// output is non-zero (dense windows).
						w.Row(r)[fcChunk+c] = 0.125
					}
				}
			}
			for _, workers := range []int{1, 2} {
				checkAllFC(t, fmt.Sprintf("%dx%dx%d", m, wide, n), a, w, []int{64, fcChunk + 44, wide}, workers)
			}
		}
	}
}

// FuzzMulABt draws shapes (k up to above four gather windows), tile
// heights and worker counts and holds every FC kernel to the reference
// on them.
func FuzzMulABt(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint16(131), uint8(7), uint8(8), uint8(2))
	f.Add(uint64(2), uint8(37), uint16(64), uint8(14), uint8(3), uint8(1))
	f.Add(uint64(3), uint8(4), uint16(0), uint8(1), uint8(1), uint8(2))
	f.Add(uint64(4), uint8(47), uint16(3*fcChunk+5), uint8(3), uint8(255), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, m uint8, k uint16, n, tileRows, workers uint8) {
		rows, cols, outs := int(m%48)+1, int(k%1100), int(n%24)+1
		a := postReLU(rows, cols, seed)
		w := fcWeights(outs, cols, seed^0x9e3779b97f4a7c15)
		shape := fmt.Sprintf("%dx%dx%d", rows, cols, outs)
		checkAllFC(t, shape, a, w, []int{int(tileRows) + 1}, int(workers%3))
	})
}

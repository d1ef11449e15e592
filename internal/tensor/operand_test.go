package tensor

import (
	"runtime"
	"sync"
	"testing"
)

// bandRecorder is an Operand that records the row bands it is handed.
type bandRecorder struct {
	rows, cols int
	mu         sync.Mutex
	bands      [][2]int
}

func (r *bandRecorder) dims() (int, int) { return r.rows, r.cols }

func (r *bandRecorder) mulBand(_ []float32, _ *Matrix, lo, hi int) { r.record(lo, hi) }

func (r *bandRecorder) mulABtBand(_, _ *Matrix, lo, hi int) { r.record(lo, hi) }

func (r *bandRecorder) record(lo, hi int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bands = append(r.bands, [2]int{lo, hi})
}

// TestMulABtIntoWorkerBound: the FC entry honours the caller's worker
// bound instead of GOMAXPROCS. GOMAXPROCS is raised to 8 so an
// unbounded fan-out would show as extra bands; for each bound the bands
// must number exactly min(workers, rows) and cover every batch row once.
func TestMulABtIntoWorkerBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	m, k, n := 64, 64, 32 // 131072 MACs: above the serial threshold
	for _, workers := range []int{1, 2, 3} {
		r := &bandRecorder{rows: n, cols: k}
		MulABtInto(NewMatrix(m, n), NewMatrix(m, k), r, workers)
		if len(r.bands) != workers {
			t.Errorf("workers=%d: %d bands %v", workers, len(r.bands), r.bands)
		}
		seen := make([]int, m)
		for _, b := range r.bands {
			for i := b[0]; i < b[1]; i++ {
				seen[i]++
			}
		}
		for i, c := range seen {
			if c != 1 {
				t.Errorf("workers=%d: row %d covered %d times (bands %v)", workers, i, c, r.bands)
				break
			}
		}
	}
}

// gatherRows returns the listed rows of a dense or 2:4 operand as a
// compact len(rows) x In operand of the same encoding.
func gatherRows(w Operand, rows []int) Operand {
	switch w := w.(type) {
	case *Matrix:
		out := NewMatrix(len(rows), w.Cols)
		for j, r := range rows {
			copy(out.Row(j), w.Row(r))
		}
		return out
	case *Sparse24:
		out := NewSparse24(len(rows), w.Cols)
		ne := 2 * w.GroupsPerRow
		for j, r := range rows {
			copy(out.Val[j*ne:(j+1)*ne], w.Val[r*ne:])
			copy(out.Pos[j*ne:(j+1)*ne], w.Pos[r*ne:])
		}
		return out
	}
	panic("gatherRows: unsupported operand")
}

// TestOperandRowSubsetBitIdentical pins the property the row-patched
// forward pass rests on: a kernel computes each output channel from
// that channel's weight row alone. For dense and 2:4 weights, a
// convolution (Conv2DInto) and a fully-connected product (MulABtInto)
// over a gathered subset of the rows equal those channels (conv) or
// columns (FC) of the full product bit for bit, for every worker bound.
// The subsets include single first and last rows and widths that leave
// a short last block of FC output columns.
func TestOperandRowSubsetBitIdentical(t *testing.T) {
	const out = 13
	cs := ConvShape{InC: 3, OutC: out, KH: 3, KW: 3, Pad: 1, Stride: 1, InH: 8, InW: 8}
	k := cs.InC * cs.KH * cs.KW
	fcIn := 37 // a partial trailing 2:4 group
	in := NewTensor4(5, cs.InC, cs.InH, cs.InW)
	copy(in.Data, denseRand(1, len(in.Data), 3).Data)
	a := denseRand(9, fcIn, 4) // 9 batch rows: 4-row blocks and a tail
	bias := denseRand(1, out, 6).Data
	// 2:4 operands get non-dyadic values, so a changed accumulation
	// order would show in the bits.
	sparse := func(rows, cols int, seed uint64) Operand {
		w, _ := random24(rows, cols, seed)
		vals := denseRand(1, len(w.Val), seed+1).Data
		for i, v := range w.Val {
			if v != 0 {
				w.Val[i] = vals[i] + 0.75
			}
		}
		return w
	}
	encodings := []struct {
		name     string
		conv, fc Operand
	}{
		{"dense", denseRand(out, k, 7), denseRand(out, fcIn, 8)},
		{"2:4", sparse(out, k, 9), sparse(out, fcIn, 10)},
	}
	subsets := [][]int{{0}, {out - 1}, {6}, {1, 2, 3, 4, 5}, {0, 5, 7}, {2, 3, 9, 10, 11, 12}}
	all := make([]int, out)
	for i := range all {
		all[i] = i
	}
	subsets = append(subsets, all)
	for _, e := range encodings {
		for _, workers := range []int{1, 2} {
			ws := ConvWorkspace{Workers: workers}
			fullConv := NewTensor4(in.N, out, cs.OutH(), cs.OutW())
			Conv2DInto(fullConv, in, e.conv, bias, cs, &ws)
			fullFC := NewMatrix(a.Rows, out)
			MulABtInto(fullFC, a, e.fc, workers)
			for _, rows := range subsets {
				subBias := make([]float32, len(rows))
				for j, r := range rows {
					subBias[j] = bias[r]
				}
				scs := cs
				scs.OutC = len(rows)
				conv := NewTensor4(in.N, len(rows), cs.OutH(), cs.OutW())
				Conv2DInto(conv, in, gatherRows(e.conv, rows), subBias, scs, &ws)
				plane := cs.OutH() * cs.OutW()
				for n := 0; n < in.N; n++ {
					for j, r := range rows {
						got := conv.Image(n)[j*plane : (j+1)*plane]
						want := fullConv.Image(n)[r*plane : (r+1)*plane]
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s workers=%d rows %v: conv image %d channel %d differs at %d: %v vs %v",
									e.name, workers, rows, n, r, i, got[i], want[i])
							}
						}
					}
				}
				fc := NewMatrix(a.Rows, len(rows))
				MulABtInto(fc, a, gatherRows(e.fc, rows), workers)
				for i := 0; i < a.Rows; i++ {
					for j, r := range rows {
						if got, want := elem(fc, i, j), elem(fullFC, i, r); got != want {
							t.Fatalf("%s workers=%d rows %v: FC row %d column %d: %v vs %v",
								e.name, workers, rows, i, r, got, want)
						}
					}
				}
			}
		}
	}
}

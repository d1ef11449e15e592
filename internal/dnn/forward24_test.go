package dnn

import (
	"testing"

	"repro/internal/tensor"
)

// project24 projects a dense weight matrix onto the 2:4 pattern in
// place (keep the 2 largest magnitudes per 4-column group) and returns
// the canonical compact form of the result.
func project24(w *tensor.Matrix) *tensor.Sparse24 {
	s := tensor.NewSparse24(w.Rows, w.Cols)
	for r := 0; r < w.Rows; r++ {
		for g := 0; g < s.GroupsPerRow; g++ {
			lim := w.Cols - g*4
			if lim > 4 {
				lim = 4
			}
			p0, p1 := -1, -1
			abs := func(p int) float32 {
				v := w.Data[r*w.Cols+g*4+p]
				if v < 0 {
					v = -v
				}
				return v
			}
			for p := 0; p < lim; p++ {
				if abs(p) == 0 {
					continue
				}
				switch {
				case p0 < 0:
					p0 = p
				case p1 < 0:
					p1 = p
				case abs(p) > abs(p1):
					p1 = p
				}
				if p1 >= 0 && abs(p1) > abs(p0) {
					p0, p1 = p1, p0
				}
			}
			if p0 >= 0 && p1 >= 0 && p1 < p0 {
				p0, p1 = p1, p0
			}
			for p := 0; p < lim; p++ {
				if p != p0 && p != p1 {
					w.Data[r*w.Cols+g*4+p] = 0
				}
			}
			e := (r*s.GroupsPerRow + g) * 2
			k := 0
			for _, p := range [2]int{p0, p1} {
				if p >= 0 {
					s.Val[e+k], s.Pos[e+k] = w.Data[r*w.Cols+g*4+p], uint8(p)
					k++
				}
			}
		}
	}
	return s
}

// TestForwarder24MatchesDense pins the compute-direct forward pass:
// with every weight layer carrying a Weights24 overlay of its (2:4
// projected) dense weights, the logits must be bit-identical to the
// dense kernels on the same projected weights, serial and parallel.
func TestForwarder24MatchesDense(t *testing.T) {
	m := TinyCNN()
	m.InitWeights(37)
	var overlays []*tensor.Sparse24
	var layers []*Layer
	for _, l := range m.Layers {
		if l.HasWeights() {
			overlays = append(overlays, project24(l.Weights))
			layers = append(layers, l)
		}
	}
	in := forwardTestInput(3)
	want := NewForwarder(m).Forward(in).Clone() // dense kernels, projected weights

	for _, workers := range []int{0, 1, 2, 7} {
		for i, l := range layers {
			l.Weights24 = overlays[i]
		}
		f := NewForwarder(m)
		f.Workers = workers
		got := f.Forward(in)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("workers=%d: 2:4 logits differ at %d: %v vs %v",
					workers, i, got.Data[i], want.Data[i])
			}
		}
		for _, l := range layers {
			l.Weights24 = nil
		}
	}
}

// TestForwarder24OverlayToggle: clearing Weights24 must route back to
// the dense weights immediately (the replica reset contract).
func TestForwarder24OverlayToggle(t *testing.T) {
	m := TinyCNN()
	m.InitWeights(41)
	in := forwardTestInput(2)
	f := NewForwarder(m)
	f.Workers = 1
	dense := f.Forward(in).Clone()

	var li *Layer
	for _, l := range m.Layers {
		if l.HasWeights() {
			li = l
			break
		}
	}
	li.Weights24 = tensor.NewSparse24(li.Weights.Rows, li.Weights.Cols) // all-zero overlay
	zeroed := f.Forward(in)
	same := true
	for i := range dense.Data {
		if zeroed.Data[i] != dense.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("forwarder ignored the Weights24 overlay")
	}
	li.Weights24 = nil
	back := f.Forward(in)
	for i := range dense.Data {
		if back.Data[i] != dense.Data[i] {
			t.Fatalf("clearing Weights24 did not restore the dense route (differs at %d)", i)
		}
	}
}

// TestForwarder24SteadyStateAllocFree: the allocation-free forward pass
// holds on the compute-direct route too.
func TestForwarder24SteadyStateAllocFree(t *testing.T) {
	assertForwarderAllocFree(t, "2:4", 43, func(l *Layer) { l.Weights24 = project24(l.Weights) })
}

package dnn

import (
	"testing"

	"repro/internal/tensor"
)

func forwardTestInput(n int) *tensor.Tensor4 {
	in := tensor.NewTensor4(n, 1, 12, 12)
	for i := range in.Data {
		in.Data[i] = float32(i%13)/13 - 0.4
	}
	return in
}

func TestForwarderMatchesModelForward(t *testing.T) {
	m := TinyCNN()
	m.InitWeights(21)
	in := forwardTestInput(3)
	want := m.Forward(in)
	for _, workers := range []int{0, 1, 2, 7} {
		f := NewForwarder(m)
		f.Workers = workers
		got := f.Forward(in)
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("workers=%d: shape %dx%d, want %dx%d",
				workers, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("workers=%d: logits differ at %d: %v vs %v",
					workers, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestForwarderReusedAcrossBatchSizes(t *testing.T) {
	// Buffers grow on demand and shrink by reslicing; results must match a
	// fresh pass after every shape change, in both directions.
	m := TinyCNN()
	m.InitWeights(23)
	f := NewForwarder(m)
	f.Workers = 1
	for _, n := range []int{2, 5, 1, 5, 3} {
		in := forwardTestInput(n)
		want := m.Forward(in)
		got := f.Forward(in)
		if got.Rows != n {
			t.Fatalf("batch %d: got %d rows", n, got.Rows)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("batch %d: logits differ at %d", n, i)
			}
		}
	}
}

func TestForwarderResidualAdd(t *testing.T) {
	// The Add layer reads a non-adjacent activation; the Forwarder must
	// resolve layer references the same way Model.Forward does.
	b := newBuilder("res-fwd", 1, 4, 4, 4)
	i0 := b.conv("c1", 4, 1, 0, 1, false)
	b.conv("c2", 4, 1, 0, 1, false)
	b.add("add", -1, i0, true)
	b.gap("gap")
	m := b.done(Meta{})
	m.InitWeights(2)

	in := tensor.NewTensor4(2, 1, 4, 4)
	for i := range in.Data {
		in.Data[i] = float32(i%5) - 2
	}
	want := m.Forward(in)
	f := NewForwarder(m)
	f.Workers = 1
	got := f.Forward(in)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("residual forwarder differs at %d", i)
		}
	}
}

func TestForwarderSeesWeightPointerSwap(t *testing.T) {
	// The replica pool swaps layer Weights pointers between calls; the
	// Forwarder must read them at call time, not capture them.
	m := TinyCNN()
	m.InitWeights(29)
	in := forwardTestInput(2)
	f := NewForwarder(m)
	f.Workers = 1
	base := f.Forward(in).Clone()

	li := -1
	for i, l := range m.Layers {
		if l.HasWeights() {
			li = i
			break
		}
	}
	orig := m.Layers[li].Weights
	zeroed := tensor.NewMatrix(orig.Rows, orig.Cols)
	m.Layers[li].Weights = zeroed
	perturbed := f.Forward(in)
	same := true
	for i := range base.Data {
		if perturbed.Data[i] != base.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("forwarder ignored a weight pointer swap")
	}
	m.Layers[li].Weights = orig
	back := f.Forward(in)
	for i := range base.Data {
		if back.Data[i] != base.Data[i] {
			t.Fatalf("restore after swap differs at %d", i)
		}
	}
}

// assertForwarderAllocFree: with Workers=1 (the replica configuration) a
// warmed-up Forwarder over TinyCNN, with overlay applied to every weighted
// layer, allocates nothing per Forward or Predict pass.
func assertForwarderAllocFree(t *testing.T, name string, seed uint64, overlay func(l *Layer)) {
	t.Helper()
	m := TinyCNN()
	m.InitWeights(seed)
	for _, l := range m.Layers {
		if l.HasWeights() {
			overlay(l)
		}
	}
	in := forwardTestInput(4)
	f := NewForwarder(m)
	f.Workers = 1
	f.Forward(in) // warm up buffers
	var preds []int
	preds = f.Predict(in, preds) // warm up the prediction slice too
	if allocs := testing.AllocsPerRun(10, func() { f.Forward(in) }); allocs != 0 {
		t.Errorf("%s: Forward allocates %v per run, want 0", name, allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { preds = f.Predict(in, preds) }); allocs != 0 {
		t.Errorf("%s: Predict allocates %v per run, want 0", name, allocs)
	}
}

// TestForwarderSteadyStateAllocFree: the forward pass is allocation-free
// on dense and crossbar weights (the 2:4 route is
// TestForwarder24SteadyStateAllocFree).
func TestForwarderSteadyStateAllocFree(t *testing.T) {
	assertForwarderAllocFree(t, "dense", 31, func(*Layer) {})
	assertForwarderAllocFree(t, "xbar", 47, func(l *Layer) {
		const tileRows = 8
		w := l.Weights
		x := &tensor.Xbar{W: w, TileRows: tileRows, ADCBits: 6,
			FS: make([]float32, (w.Cols+tileRows-1)/tileRows*w.Rows)}
		for i := range x.FS {
			x.FS[i] = 1
		}
		l.WeightsXbar = x
	})
}

package dnn

import (
	"fmt"
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

// TestForwarderWorkersBitIdentical: the Workers bound only partitions
// independent rows and images, so every setting returns the default
// pass's logits bit for bit.
func TestForwarderWorkersBitIdentical(t *testing.T) {
	m := TinyCNN()
	m.InitWeights(21)
	in := forwardTestInput(3)
	want := NewForwarder(m).Forward(in)
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
		want := NewForwarder(m).Forward(in)
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
	// The Add layer reads a non-adjacent activation; a serial Forwarder
	// must resolve layer references the same way a parallel one does.
	m := residualModel()
	m.InitWeights(2)

	in := tensor.NewTensor4(2, 1, 4, 4)
	for i := range in.Data {
		in.Data[i] = float32(i%5) - 2
	}
	want := NewForwarder(m).Forward(in)
	f := NewForwarder(m)
	f.Workers = 1
	got := f.Forward(in)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("residual forwarder differs at %d", i)
		}
	}
	// c2's output meets c1's at the Add, whose skip crosses the cut at
	// 2: a trial dirty first in c2 takes the ForwardFrom fallback, and
	// ForwardRows refuses it. c1's output is read only as the next
	// cut's input (by c2 and by the Add's skip), so c1 may row-patch.
	if n := m.RowCut(1); n != -1 {
		t.Errorf("residual RowCut(1) = %d, want -1 (fallback)", n)
	}
	if n := m.RowCut(0); n != 1 {
		t.Errorf("residual RowCut(0) = %d, want 1", n)
	}
	next := f.Input(1).Clone()
	rows := []int{2}
	w := m.Layers[0].Weights.Clone()
	for i := range w.Row(2) {
		w.Row(2)[i] = -w.Row(2)[i]
	}
	patched := f.ForwardRows(0, rows, gatherRows(t, w, rows), in, next).Clone()
	orig := m.Layers[0].Weights
	m.Layers[0].Weights = w
	want = f.Forward(in)
	m.Layers[0].Weights = orig
	for i := range want.Data {
		if patched.Data[i] != want.Data[i] {
			t.Fatalf("residual row patch of c1 differs at %d", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ForwardRows at a layer without a row cut did not panic")
		}
	}()
	f.ForwardRows(1, rows, gatherRows(t, w, rows), f.Input(1), next)
}

// residualModel is TestForwarderResidualAdd's network: c1, c2, then an
// Add of c2 and c1 (a skip over c2), then global average pooling.
func residualModel() *Model {
	b := newBuilder("res-fwd", 1, 4, 4, 4)
	i0 := b.conv("c1", 4, 1, 0, 1, false)
	b.conv("c2", 4, 1, 0, 1, false)
	b.add("add", -1, i0, true)
	b.gap("gap")
	return b.done(Meta{})
}

// TestCanCutRejectsSkippedReferences pins the cut predicate: a cut at k
// is illegal exactly when a layer from k on reads, through Input or
// Input2, an activation produced before k other than layer k's input.
func TestCanCutRejectsSkippedReferences(t *testing.T) {
	// A longer skip: the Add at 3 reads c1 (layer 0) across c2 and c3.
	b := newBuilder("res-long", 1, 4, 4, 4)
	i0 := b.conv("c1", 4, 1, 0, 1, false)
	b.conv("c2", 4, 1, 0, 1, false)
	b.conv("c3", 4, 1, 0, 1, false)
	b.add("add", -1, i0, true)
	b.gap("gap")
	long := b.done(Meta{})

	cases := []struct {
		m     *Model
		legal []bool // per layer index
	}{
		// Cut 1 is legal: the skip reads c1's output, which is c2's
		// own input. Cut 2 is crossed by the Add's Input2.
		{residualModel(), []bool{true, true, false, true}},
		{long, []bool{true, true, false, false, true}},
		{TinyCNN(), []bool{true, true, true, true, true, true}},
	}
	for _, c := range cases {
		for k, want := range c.legal {
			if got := c.m.CanCut(k); got != want {
				t.Errorf("%s: CanCut(%d) = %v, want %v", c.m.Name, k, got, want)
			}
		}
		for _, k := range []int{-1, len(c.m.Layers)} {
			if c.m.CanCut(k) {
				t.Errorf("%s: CanCut(%d) accepted an out-of-range cut", c.m.Name, k)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ForwardFrom at an illegal cut did not panic")
		}
	}()
	m := residualModel()
	m.InitWeights(2)
	NewForwarder(m).ForwardFrom(2, tensor.NewTensor4(1, 4, 4, 4))
}

// TestForwardFromMatchesForward: at every legal cut k, a pass started at
// k and fed the input a full pass computed for layer k returns the full
// pass's logits bit for bit, for every Workers setting, and never writes
// the activation it was fed.
func TestForwardFromMatchesForward(t *testing.T) {
	res := residualModel()
	res.InitWeights(2)
	resIn := tensor.NewTensor4(2, 1, 4, 4)
	for i := range resIn.Data {
		resIn.Data[i] = float32(i%5) - 2
	}
	tiny := TinyCNN()
	tiny.InitWeights(37)
	for _, c := range []struct {
		m  *Model
		in *tensor.Tensor4
	}{{res, resIn}, {tiny, forwardTestInput(3)}} {
		for _, workers := range []int{1, 2} {
			full := NewForwarder(c.m)
			full.Workers = workers
			want := full.Forward(c.in).Clone()
			cut := NewForwarder(c.m)
			cut.Workers = workers
			for k := 1; k < len(c.m.Layers); k++ {
				if !c.m.CanCut(k) {
					continue
				}
				act := full.Input(k).Clone()
				orig := act.Clone()
				got := cut.ForwardFrom(k, act)
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("%s workers=%d: ForwardFrom(%d) logits differ at %d: %v vs %v",
							c.m.Name, workers, k, i, got.Data[i], want.Data[i])
					}
				}
				for i := range orig.Data {
					if act.Data[i] != orig.Data[i] {
						t.Fatalf("%s workers=%d: ForwardFrom(%d) wrote its input at %d", c.m.Name, workers, k, i)
					}
				}
			}
			// The same Forwarder then runs a full pass unharmed.
			got := cut.Forward(c.in)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s workers=%d: full pass after cut passes differs at %d", c.m.Name, workers, i)
				}
			}
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
	preds = argmaxRows(f.Forward(in), preds) // warm up the prediction slice too
	if allocs := testing.AllocsPerRun(10, func() { f.Forward(in) }); allocs != 0 {
		t.Errorf("%s: Forward allocates %v per run, want 0", name, allocs)
	}
	// A pass started mid-network at the last weight layer (the prefix
	// reuse a corrupted trial takes), fed a copy of its input.
	k := len(m.Layers) - 1
	act := f.Input(k).Clone()
	if allocs := testing.AllocsPerRun(10, func() { f.ForwardFrom(k, act) }); allocs != 0 {
		t.Errorf("%s: ForwardFrom(%d) allocates %v per run, want 0", name, k, allocs)
	}
	// Row-patched passes at conv2 and fc1 (the storage trials' common
	// first dirty layers), over a few changed rows.
	f.Forward(in)
	inputs := make([]*tensor.Tensor4, len(m.Layers))
	for k := 1; k < len(m.Layers); k++ {
		inputs[k] = f.Input(k).Clone()
	}
	for _, k := range []int{2, 4} {
		n, l := m.RowCut(k), m.Layers[k]
		rows := []int{0, 3, l.WeightRows() - 1}
		sub := gatherRows(t, perturbRows(t, rowSource(l), rows), rows)
		in, next := inputs[k], inputs[n]
		if allocs := testing.AllocsPerRun(10, func() { f.ForwardRows(k, rows, sub, in, next) }); allocs != 0 {
			t.Errorf("%s: ForwardRows(%d) allocates %v per run, want 0", name, k, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { preds = argmaxRows(f.Forward(in), preds) }); allocs != 0 {
		t.Errorf("%s: Forward plus argmax allocates %v per run, want 0", name, allocs)
	}
}

// argmaxRows returns the argmax class of each row of logits, appending
// into dst (pass a recycled slice to avoid the allocation).
func argmaxRows(logits *tensor.Matrix, dst []int) []int {
	dst = dst[:0]
	for r := 0; r < logits.Rows; r++ {
		dst = append(dst, logits.ArgmaxRow(r))
	}
	return dst
}

// rowSource returns the operand a row patch of l gathers from: its 2:4
// weights when set, else its dense ones (crossbar layers never
// row-patch; a dense sub-operand still exercises the pass).
func rowSource(l *Layer) tensor.Operand {
	if l.Weights24 != nil {
		return l.Weights24
	}
	return l.Weights
}

// TestForwarderSteadyStateAllocFree: the forward pass is allocation-free
// on dense weights (the 2:4 route is TestForwarder24SteadyStateAllocFree,
// the crossbar route TestForwarderXbarSteadyStateAllocFree).
func TestForwarderSteadyStateAllocFree(t *testing.T) {
	assertForwarderAllocFree(t, "dense", 31, func(*Layer) {})
}

// TestForwarderXbarSteadyStateAllocFree: the allocation-free forward
// pass holds on the crossbar route, with the column ADC off on some
// columns and clipping on others, so every converter path runs.
func TestForwarderXbarSteadyStateAllocFree(t *testing.T) {
	assertForwarderAllocFree(t, "xbar", 47, func(l *Layer) {
		const tileRows = 8
		w := l.Weights
		x := &tensor.Xbar{W: w, TileRows: tileRows, ADCBits: 6,
			FS: make([]float32, (w.Cols+tileRows-1)/tileRows*w.Rows)}
		for i := range x.FS {
			x.FS[i] = []float32{1, 0, 0.01}[i%3]
		}
		l.WeightsXbar = x
	})
}

// gatherRows returns the listed rows of a dense or 2:4 operand as a
// compact len(rows) x In operand of the same encoding.
func gatherRows(t *testing.T, w tensor.Operand, rows []int) tensor.Operand {
	t.Helper()
	switch w := w.(type) {
	case *tensor.Matrix:
		out := tensor.NewMatrix(len(rows), w.Cols)
		for j, r := range rows {
			copy(out.Row(j), w.Row(r))
		}
		return out
	case *tensor.Sparse24:
		out := tensor.NewSparse24(len(rows), w.Cols)
		ne := 2 * w.GroupsPerRow
		for j, r := range rows {
			copy(out.Val[j*ne:(j+1)*ne], w.Val[r*ne:])
			copy(out.Pos[j*ne:(j+1)*ne], w.Pos[r*ne:])
		}
		return out
	}
	t.Fatalf("gatherRows: unsupported operand %T", w)
	return nil
}

// perturbRows returns a copy of a dense or 2:4 operand with every
// stored value of the listed rows changed.
func perturbRows(t *testing.T, w tensor.Operand, rows []int) tensor.Operand {
	t.Helper()
	scale := func(v []float32) {
		for i := range v {
			v[i] = v[i]*-1.5 + 0.01
		}
	}
	switch w := w.(type) {
	case *tensor.Matrix:
		out := w.Clone()
		for _, r := range rows {
			scale(out.Row(r))
		}
		return out
	case *tensor.Sparse24:
		out := *w
		out.Val = append([]float32(nil), w.Val...)
		ne := 2 * w.GroupsPerRow
		for _, r := range rows {
			row := out.Val[r*ne : (r+1)*ne]
			for e, v := range row {
				if v != 0 { // pads stay pads: the form stays canonical
					row[e] = v*-1.5 + 0.01
				}
			}
		}
		return &out
	}
	t.Fatalf("perturbRows: unsupported operand %T", w)
	return nil
}

// setOperand installs w as layer l's operand in its own encoding.
func setOperand(l *Layer, w tensor.Operand) {
	switch w := w.(type) {
	case *tensor.Matrix:
		l.Weights = w
	case *tensor.Sparse24:
		l.Weights24 = w
	}
}

// TestForwardRowsMatchesForwardFrom: for every weight layer k with a
// row cut, on dense and 2:4 weights and for Workers 1 and 2, a
// row-patched pass over a subset of k's rows (one row, the first, the
// last, several, all) returns the logits of ForwardFrom(k) with those
// rows overlaid, bit for bit, and never writes the activations it was
// fed. RowCut itself is pinned on TinyCNN.
func TestForwardRowsMatchesForwardFrom(t *testing.T) {
	m := TinyCNN()
	m.InitWeights(53)
	for k, want := range []int{2, -1, 4, -1, 5, -1} {
		if got := m.RowCut(k); got != want {
			t.Errorf("TinyCNN RowCut(%d) = %d, want %d", k, got, want)
		}
	}
	in := forwardTestInput(3)
	for _, enc := range []string{"dense", "2:4"} {
		if enc == "2:4" {
			for _, l := range m.Layers {
				if l.HasWeights() {
					l.Weights24 = project24(l.Weights)
				}
			}
		}
		for _, workers := range []int{1, 2} {
			base := NewForwarder(m)
			base.Workers = workers
			base.Forward(in)
			f, full := NewForwarder(m), NewForwarder(m)
			f.Workers, full.Workers = workers, workers
			for k, l := range m.Layers {
				n := m.RowCut(k)
				if n < 0 {
					continue
				}
				act, next := in.Clone(), base.Input(n).Clone()
				if k > 0 {
					act = base.Input(k).Clone()
				}
				actOrig, nextOrig := act.Clone(), next.Clone()
				rows := l.WeightRows()
				all := make([]int, rows)
				for r := range all {
					all[r] = r
				}
				pristine := l.Operand()
				for _, sub := range [][]int{{rows / 2}, {0}, {rows - 1}, {0, 3, rows - 2}, all} {
					name := fmt.Sprintf("%s workers=%d layer %d rows %v", enc, workers, k, sub)
					patched := perturbRows(t, pristine, sub)
					setOperand(l, patched)
					want := full.ForwardFrom(k, act).Clone()
					setOperand(l, pristine)
					got := f.ForwardRows(k, sub, gatherRows(t, patched, sub), act, next)
					for i := range want.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("%s: logits differ at %d: %v vs %v", name, i, got.Data[i], want.Data[i])
						}
					}
					for i := range act.Data {
						if act.Data[i] != actOrig.Data[i] {
							t.Fatalf("%s: ForwardRows wrote its input", name)
						}
					}
					for i := range next.Data {
						if next.Data[i] != nextOrig.Data[i] {
							t.Fatalf("%s: ForwardRows wrote the cached next input", name)
						}
					}
				}
			}
		}
	}
}

package dnn

// The row-patched pass against the row patch it replaced: refForwardRows
// is Forwarder.ForwardRows as it was when the changed channels of a
// conv layer still came from the lowered convolution (tensor.Conv2DInto)
// on the sub-operand, kept verbatim as the oracle. ForwardRows now runs
// that conv on a padded input frame (tensor.Conv2DFrameInto), which
// must give the same bits. TestForwardRowsMatchesReference and
// FuzzForwardRows hold it to that.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// refForwardRows is ForwardRows with the lowered row-patch conv.
func refForwardRows(f *Forwarder, k int, rows []int, w tensor.Operand, in, next *tensor.Tensor4) *tensor.Matrix {
	n := f.m.RowCut(k)
	if n < 0 {
		panic(fmt.Sprintf("dnn: model %q cannot row-patch layer %d", f.m.Name, k))
	}
	f.conv.Workers = f.Workers
	bias := f.m.Layers[k].Bias
	if bias != nil {
		f.bias = f.bias[:0]
		for _, r := range rows {
			f.bias = append(f.bias, bias[r])
		}
		bias = f.bias
	}
	x := in
	for i := k; i < n; i++ {
		x = f.run(&f.acts[i], f.m.Layers[i], x, nil, w, bias, len(rows), false)
	}
	dst := ensure(&f.patch, next.N, next.C, next.H, next.W)
	copy(dst.Data, next.Data)
	plane := x.H * x.W
	for b := 0; b < x.N; b++ {
		src, img := x.Image(b), dst.Image(b)
		for j, r := range rows {
			copy(img[r*plane:(r+1)*plane], src[j*plane:(j+1)*plane])
		}
	}
	return f.ForwardFrom(n, dst)
}

// rowPatchSide returns the smallest input side from 11 on which a conv
// of the given kernel, pad and stride has an even output side, for a
// 2x2 pool.
func rowPatchSide(kernel, pad, stride int) int {
	side := 11
	for ((side+2*pad-kernel)/stride+1)%2 != 0 {
		side++
	}
	return side
}

// rowPatchModel is a conv layer of the given kernel, pad and stride on
// 3-channel square inputs (rowPatchSide), then a max pool, a second
// conv and a classifier: layer 0 row-patches with a pooled tail, layer
// 2 (its output is the classifier's input) without one.
func rowPatchModel(kernel, pad, stride int, seed uint64) *Model {
	side := rowPatchSide(kernel, pad, stride)
	b := newBuilder("RowPatch", 3, side, side, 5)
	b.conv("conv1", 6, kernel, pad, stride, true)
	b.pool("pool1", 2)
	b.conv("conv2", 4, 3, 1, 1, true)
	b.fc("fc", 5, false)
	m := b.done(Meta{ClusterIndexBits: 4})
	m.InitWeights(seed)
	for _, l := range m.Layers {
		if l.HasWeights() {
			for i := range l.Bias {
				l.Bias[i] = float32(i%3)*0.05 - 0.05
			}
		}
	}
	return m
}

// rowPatchInputs runs a full pass of m over in and returns the input of
// weight layer k and of its row cut.
func rowPatchInputs(m *Model, in *tensor.Tensor4, k, workers int) (act, next *tensor.Tensor4) {
	base := NewForwarder(m)
	base.Workers = workers
	base.Forward(in)
	act, next = in, base.Input(m.RowCut(k)).Clone()
	if k > 0 {
		act = base.Input(k).Clone()
	}
	return act, next
}

// checkForwardRows runs a row patch of weight layer k over rows, fed
// rowPatchInputs' act and next, on fresh Forwarders through ForwardRows
// and through refForwardRows, and fails unless the logits and every
// patched output (layers k up to the row cut) agree bit for bit. The
// changed rows are the layer's listed rows with every stored value
// perturbed.
func checkForwardRows(t *testing.T, name string, m *Model, act, next *tensor.Tensor4, k int, rows []int, workers int) {
	t.Helper()
	n := m.RowCut(k)
	w := gatherRows(t, perturbRows(t, m.Layers[k].Operand(), rows), rows)
	got, want := NewForwarder(m), NewForwarder(m)
	got.Workers, want.Workers = workers, workers
	gl := got.ForwardRows(k, rows, w, act, next)
	wl := refForwardRows(want, k, rows, w, act, next)
	same := func(what string, a, b []float32) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s length %d vs %d", name, what, len(a), len(b))
		}
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("%s: %s differs at %d: %v vs %v", name, what, i, a[i], b[i])
			}
		}
	}
	same("logits", gl.Data, wl.Data)
	for i := k; i < n; i++ {
		same(fmt.Sprintf("layer %d output", i), got.Output(i).Data, want.Output(i).Data)
	}
}

// rowSubsets returns the ragged dirty-row sets of a layer of rows
// output rows: one middle row, the first, the last, and all of them.
func rowSubsets(rows int) [][]int {
	all := make([]int, rows)
	for r := range all {
		all[r] = r
	}
	return [][]int{{rows / 2}, {0}, {rows - 1}, all}
}

// TestForwardRowsMatchesReference: over pads 0-2, strides 1-2 and
// kernels 1, 3 and 5, batches of 1, 7, 64 and 300 images (one frame
// block, several with a short last one; the largest on fewer cases),
// ragged dirty-row sets, dense
// and 2:4 operands and Workers 1 and 2, the row patch on a padded frame
// returns the lowered row patch's logits and patched outputs bit for
// bit. The conv row patch with a pooled tail (layer 0) and one without
// a tail (layer 2, whose output feeds the classifier) are both checked.
func TestForwardRowsMatchesReference(t *testing.T) {
	inputs := map[[2]int]*tensor.Tensor4{}
	for _, n := range []int{1, 7, 64, 300} {
		for _, side := range []int{11, 12, 13} {
			in := tensor.NewTensor4(n, 3, side, side)
			for i := range in.Data {
				in.Data[i] = float32((i*7919)%23)/23 - 0.4
			}
			inputs[[2]int{n, side}] = in
		}
	}
	for _, kernel := range []int{1, 3, 5} {
		for _, pad := range []int{0, 1, 2} {
			for _, stride := range []int{1, 2} {
				for _, enc := range []string{"dense", "2:4"} {
					m := rowPatchModel(kernel, pad, stride, uint64(kernel*10+pad*3+stride))
					if enc == "2:4" {
						for _, l := range m.Layers {
							if l.HasWeights() {
								l.Weights24 = project24(l.Weights)
							}
						}
					}
					for _, n := range []int{1, 7, 64, 300} {
						for _, workers := range []int{1, 2} {
							for _, k := range []int{0, 2} {
								subsets := rowSubsets(m.Layers[k].WeightRows())
								if n == 300 {
									// The largest batch only adds more
									// frame blocks: one band split and the
									// row patch's single-row and all-row
									// extremes cover it at a fraction of
									// the cost.
									if workers == 1 || k != 0 {
										continue
									}
									subsets = subsets[2:]
								}
								act, next := rowPatchInputs(m, inputs[[2]int{n, m.InputH}], k, workers)
								for _, rows := range subsets {
									name := fmt.Sprintf("k%d p%d s%d %s n=%d workers=%d layer %d rows %v",
										kernel, pad, stride, enc, n, workers, k, rows)
									checkForwardRows(t, name, m, act, next, k, rows, workers)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestForwardRows24Telemetry: the 2:4 kernel telemetry counts the
// outputs a call keeps, not the frame positions it computes, so a 2:4
// row patch on a padded frame moves sparse.gemm24.groups and
// sparse.gemm24.skipped_macs exactly as the lowered row patch does, on
// shapes whose frames hold several positions per output (pad 2, stride
// 2) and for one row and all rows.
func TestForwardRows24Telemetry(t *testing.T) {
	groups := telemetry.Default().Counter("sparse.gemm24.groups")
	skipped := telemetry.Default().Counter("sparse.gemm24.skipped_macs")
	for _, sh := range [][3]int{{3, 1, 1}, {5, 2, 2}, {1, 0, 2}} {
		m := rowPatchModel(sh[0], sh[1], sh[2], 3)
		for _, l := range m.Layers {
			if l.HasWeights() {
				l.Weights24 = project24(l.Weights)
			}
		}
		in := tensor.NewTensor4(37, 3, m.InputH, m.InputW)
		for i := range in.Data {
			in.Data[i] = float32(i%11)/11 - 0.3
		}
		act, next := rowPatchInputs(m, in, 0, 1)
		for _, rows := range rowSubsets(m.Layers[0].WeightRows()) {
			w := gatherRows(t, m.Layers[0].Operand(), rows)
			moved := func(patch func(f *Forwarder)) (int64, int64) {
				f := NewForwarder(m)
				f.Workers = 1
				g0, s0 := groups.Value(), skipped.Value()
				patch(f)
				return groups.Value() - g0, skipped.Value() - s0
			}
			g, s := moved(func(f *Forwarder) { f.ForwardRows(0, rows, w, act, next) })
			wg, ws := moved(func(f *Forwarder) { refForwardRows(f, 0, rows, w, act, next) })
			if g != wg || s != ws || g == 0 {
				t.Errorf("kernel %d pad %d stride %d rows %v: frame row patch moved groups %d, skipped MACs %d; lowered %d, %d",
					sh[0], sh[1], sh[2], rows, g, s, wg, ws)
			}
		}
	}
}

// FuzzForwardRows draws the conv shape, batch, dirty rows, encoding and
// worker count and holds the row patch to the reference on them.
func FuzzForwardRows(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(1), uint8(1), uint8(7), uint8(1), false, uint8(1))
	f.Add(uint64(2), uint8(5), uint8(2), uint8(2), uint8(64), uint8(0x3f), true, uint8(2))
	f.Add(uint64(3), uint8(1), uint8(0), uint8(1), uint8(1), uint8(0x20), false, uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, kernel, pad, stride, batch, mask uint8, sparse bool, workers uint8) {
		kd := []int{1, 3, 5}[kernel%3]
		m := rowPatchModel(kd, int(pad%3), int(stride%2)+1, seed)
		if sparse {
			for _, l := range m.Layers {
				if l.HasWeights() {
					l.Weights24 = project24(l.Weights)
				}
			}
		}
		var rows []int
		for r := 0; r < m.Layers[0].WeightRows(); r++ {
			if mask&(1<<r) != 0 {
				rows = append(rows, r)
			}
		}
		if rows == nil {
			rows = []int{int(seed % 6)}
		}
		in := tensor.NewTensor4(int(batch%80)+1, 3, m.InputH, m.InputW)
		for i := range in.Data {
			in.Data[i] = float32((uint64(i)*7919+seed)%23)/23 - 0.4
		}
		name := fmt.Sprintf("k%d p%d s%d sparse=%v rows %v", kd, pad%3, stride%2+1, sparse, rows)
		act, next := rowPatchInputs(m, in, 0, int(workers%2)+1)
		checkForwardRows(t, name, m, act, next, 0, rows, int(workers%2)+1)
	})
}

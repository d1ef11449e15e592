package dnn

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// BenchmarkForwardRows times one row-patched pass (Forwarder.ForwardRows)
// of TinyCNN over 200 images with 1, 4 and all output rows of conv1,
// conv2 or fc1 changed: the measure step of a dirty storage trial whose
// first dirty layer is that one. Three in five weights are zero, as in
// the pruned models the trials run. Run it with
// `go test -run '^$' -bench ForwardRows -benchmem ./internal/dnn`.
func BenchmarkForwardRows(b *testing.B) {
	m := TinyCNN()
	m.InitWeights(7)
	for _, l := range m.Layers {
		if l.HasWeights() {
			for i := range l.Weights.Data {
				if i%5 < 3 {
					l.Weights.Data[i] = 0
				}
			}
		}
	}
	in := forwardTestInput(200)
	base := NewForwarder(m)
	base.Workers = 1
	base.Forward(in)
	for k, l := range m.Layers {
		if l.Name != "conv1" && l.Name != "conv2" && l.Name != "fc1" {
			continue
		}
		n := m.RowCut(k)
		act, next := in, base.Input(n).Clone()
		if k > 0 {
			act = base.Input(k).Clone()
		}
		rows := l.WeightRows()
		all := make([]int, rows)
		for r := range all {
			all[r] = r
		}
		for _, sub := range [][]int{{rows / 2}, {0, rows / 3, 2 * rows / 3, rows - 1}, all} {
			// The changed rows keep their zeros, as a corrupted row of
			// a pruned layer mostly does.
			w := tensor.NewMatrix(len(sub), l.Weights.Cols)
			for j, r := range sub {
				for c, v := range l.Weights.Row(r) {
					if v != 0 {
						w.Set(j, c, v*-1.5+0.01)
					}
				}
			}
			label := fmt.Sprint(len(sub))
			if len(sub) == rows {
				label = "all"
			}
			b.Run(fmt.Sprintf("%s/rows=%s", l.Name, label), func(b *testing.B) {
				f := NewForwarder(m)
				f.Workers = 1
				f.ForwardRows(k, sub, w, act, next)
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					f.ForwardRows(k, sub, w, act, next)
				}
			})
		}
	}
}

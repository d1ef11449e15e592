package tensor

import (
	"sync"
	"testing"
)

// TestConcurrentConvAndMulNoRace hammers Conv2DInto and MulInto from
// many goroutines at once — each with private outputs and a private
// ConvWorkspace, the documented sharing contract — and checks every
// result against a serial reference. Run under `go test -race` (the
// race-fast make tier) this pins down that the kernels share no hidden
// mutable state: the replica pool runs exactly this access pattern with
// one inference engine per campaign worker.
func TestConcurrentConvAndMulNoRace(t *testing.T) {
	cs := ConvShape{InC: 3, OutC: 6, KH: 3, KW: 3, Pad: 1, Stride: 1, InH: 12, InW: 12}
	in := NewTensor4(4, 3, 12, 12)
	fillPattern(in.Data, 11, 17, 0)
	weights := NewMatrix(cs.OutC, cs.InC*cs.KH*cs.KW)
	fillPattern(weights.Data, 7, 9, 3)
	bias := make([]float32, cs.OutC)
	fillPattern(bias, 3, 5, 1)
	convWant := conv2D(in, weights, bias, cs)

	am, ak, an := 40, 60, 50
	a, b := NewMatrix(am, ak), NewMatrix(ak, an)
	fillPattern(a.Data, 19, 13, 2)
	fillPattern(b.Data, 23, 11, 4)
	mulWant := Mul(a, b)

	const goroutines = 8
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Private per-goroutine state: workspace, outputs.
			ws := ConvWorkspace{Workers: 1 + g%3}
			convOut := NewTensor4(in.N, cs.OutC, cs.OutH(), cs.OutW())
			mulOut := NewMatrix(am, an)
			for it := 0; it < iters; it++ {
				Conv2DInto(convOut, in, weights, bias, cs, &ws)
				for i := range convWant.Data {
					if convOut.Data[i] != convWant.Data[i] {
						errs <- "conv result corrupted under concurrency"
						return
					}
				}
				MulInto(mulOut, a, b)
				for i := range mulWant.Data {
					if mulOut.Data[i] != mulWant.Data[i] {
						errs <- "mul result corrupted under concurrency"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

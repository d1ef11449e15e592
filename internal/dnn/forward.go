package dnn

import (
	"fmt"

	"repro/internal/tensor"
)

// Forwarder runs repeated forward passes over one model with zero
// steady-state allocation: every inter-layer activation tensor, im2col
// patch buffer, and logit view is owned by the Forwarder and reused
// across calls. It is the repository's one forward pass: training
// (internal/train) runs its SGD steps on one, reading the activations
// Input and Output expose for its backward pass, and every inference —
// baselines, fault-injection trials, the ares replica pool — runs on
// one, so a campaign that evaluates the same test set thousands of
// times generates no garbage per trial.
//
// A Forwarder is NOT safe for concurrent use; run one per worker (the
// ares replica pool does exactly that). Each weight layer runs on the
// operand Layer.Operand returns, read at call time, so swapping a
// layer's Weights pointer between calls (the replica pool's private
// corrupted buffers) is supported, and setting Weights24 or WeightsXbar
// routes the layer through the compute-direct 2:4 or the crossbar
// kernels instead of the dense ones.
//
// A pass may also start mid-network (ForwardFrom): fed the activation
// a full pass computed as layer k's input, it runs only layers k
// onward and returns the same logits bit for bit. That is how a
// corrupted trial skips the layers before its first corrupted one,
// whose outputs are the same for every trial. Input exposes a layer's
// input after a pass, so a caller can cache it.
type Forwarder struct {
	m *Model
	// Workers bounds kernel parallelism (convolution image bands and
	// GEMM row bands, conv and FC alike, in every weight encoding). 0
	// means GOMAXPROCS. Set 1 when the caller parallelizes at a higher
	// level — one Forwarder per worker — which also keeps the pass free
	// of goroutine spawns and therefore allocation-free in steady state.
	Workers int

	acts   []*tensor.Tensor4 // per-layer output buffers, grown on demand
	conv   tensor.ConvWorkspace
	flat   tensor.Matrix // FC input view into the upstream activation
	view   tensor.Matrix // FC/GAP output view into acts[i]
	logits tensor.Matrix // result view into the last activation
}

// NewForwarder builds a Forwarder for m. Buffers are materialized
// lazily on the first pass and thereafter reused whenever the
// batch shape repeats.
func NewForwarder(m *Model) *Forwarder {
	return &Forwarder{m: m, acts: make([]*tensor.Tensor4, len(m.Layers))}
}

// ensure returns the layer-i output buffer with the given shape,
// reusing (or growing) the existing allocation.
func (f *Forwarder) ensure(i, n, c, h, w int) *tensor.Tensor4 {
	t := f.acts[i]
	if t != nil && t.N == n && t.C == c && t.H == h && t.W == w {
		return t
	}
	if t != nil && cap(t.Data) >= n*c*h*w {
		t.N, t.C, t.H, t.W = n, c, h, w
		t.Data = t.Data[:n*c*h*w]
		return t
	}
	t = tensor.NewTensor4(n, c, h, w)
	f.acts[i] = t
	return t
}

// Forward runs inference on a batch and returns the (N x Classes) logit
// matrix: ForwardFrom(0, in).
func (f *Forwarder) Forward(in *tensor.Tensor4) *tensor.Matrix { return f.ForwardFrom(0, in) }

// ForwardFrom feeds act as layer k's input, runs layers k through the
// last, and returns the (N x Classes) logit matrix. ForwardFrom(0, in)
// is a full pass over the batch in. The returned matrix is a view into
// Forwarder-owned storage: it is valid until the next pass. The model
// must be valid (see Model.Validate) and k a legal cut (see
// Model.CanCut); ForwardFrom panics otherwise. act is only read, never
// written or retained, so one activation may feed many Forwarders
// concurrently (the ares replica pool's cached pristine prefixes).
//
// Per-element arithmetic is identical for every Workers setting
// (parallelism only partitions independent rows and images), so a pool
// of Forwarders is bit-for-bit exchangeable with the serial path. Nor
// does it depend on where the pass starts: feeding layer k the
// activation a full pass computed for it reproduces that pass's logits
// bit for bit.
func (f *Forwarder) ForwardFrom(k int, act *tensor.Tensor4) *tensor.Matrix {
	if !f.m.CanCut(k) {
		panic(fmt.Sprintf("dnn: model %q cannot start a pass at layer %d", f.m.Name, k))
	}
	f.conv.Workers = f.Workers
	// A legal cut leaves act as the only activation from before k that
	// layers k onward read.
	fetch := func(i, ref int) *tensor.Tensor4 {
		if src := f.m.source(i, ref); src >= k {
			return f.acts[src]
		}
		return act
	}
	for i := k; i < len(f.m.Layers); i++ {
		l := f.m.Layers[i]
		x := fetch(i, l.Input)
		switch l.Kind {
		case Conv:
			out := f.ensure(i, x.N, l.Conv.OutC, l.Conv.OutH(), l.Conv.OutW())
			tensor.Conv2DInto(out, x, l.Operand(), l.Bias, l.Conv, &f.conv)
		case FC:
			out := f.ensure(i, x.N, l.OutFeatures, 1, 1)
			f.flat = tensor.Matrix{Rows: x.N, Cols: x.C * x.H * x.W, Data: x.Data}
			f.view = tensor.Matrix{Rows: x.N, Cols: l.OutFeatures, Data: out.Data}
			tensor.MulABtInto(&f.view, &f.flat, l.Operand(), f.Workers)
			if l.Bias != nil {
				f.view.AddBiasRows(l.Bias)
			}
		case MaxPool:
			out := f.ensure(i, x.N, x.C, x.H/l.PoolK, x.W/l.PoolK)
			tensor.MaxPool2DInto(out, x, l.PoolK)
		case GlobalAvgPool:
			out := f.ensure(i, x.N, x.C, 1, 1)
			f.view = tensor.Matrix{Rows: x.N, Cols: x.C, Data: out.Data}
			tensor.GlobalAvgPool2DInto(&f.view, x)
		case Add:
			y := fetch(i, l.Input2)
			out := f.ensure(i, x.N, x.C, x.H, x.W)
			copy(out.Data, x.Data)
			for j, v := range y.Data {
				out.Data[j] += v
			}
		default:
			panic(fmt.Sprintf("dnn: unknown layer kind %d", l.Kind))
		}
		if l.ReLUAfter {
			f.acts[i].ReLU()
		}
	}
	last := f.acts[len(f.acts)-1]
	f.logits = tensor.Matrix{Rows: last.N, Cols: last.C * last.H * last.W, Data: last.Data}
	return &f.logits
}

// Input returns the activation layer k (k >= 1) read as its input in the
// last pass that ran it: Forwarder-owned storage, valid until the next
// pass. Copy it to keep it.
func (f *Forwarder) Input(k int) *tensor.Tensor4 {
	return f.acts[f.m.source(k, f.m.Layers[k].Input)]
}

// Output returns layer k's output, after its ReLU, from the last pass
// that ran it: Forwarder-owned storage, valid until the next pass. It
// is what training's backward pass reads as the forward's activations.
func (f *Forwarder) Output(k int) *tensor.Tensor4 { return f.acts[k] }

// Predict returns the argmax class per batch sample, appending into dst
// (pass a recycled slice to avoid the allocation).
func (f *Forwarder) Predict(in *tensor.Tensor4, dst []int) []int {
	logits := f.Forward(in)
	dst = dst[:0]
	for r := 0; r < logits.Rows; r++ {
		dst = append(dst, logits.ArgmaxRow(r))
	}
	return dst
}

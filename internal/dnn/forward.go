package dnn

import (
	"fmt"

	"repro/internal/tensor"
)

// Forwarder runs repeated forward passes over one model with zero
// steady-state allocation: every inter-layer activation tensor, im2col
// patch buffer, padded input frame, and logit view is owned by the
// Forwarder and reused across calls. It is the repository's one forward pass: training
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
// input after a pass, so a caller can cache it. ForwardRows recomputes
// only the changed output rows of that layer.
type Forwarder struct {
	m *Model
	// Workers bounds kernel parallelism (convolution image bands and
	// GEMM row bands, conv and FC alike, in every weight encoding). 0
	// means GOMAXPROCS. Set 1 when the caller parallelizes at a higher
	// level — one Forwarder per worker — which also keeps the pass free
	// of goroutine spawns and therefore allocation-free in steady state.
	Workers int

	acts   []*tensor.Tensor4 // per-layer output buffers, grown on demand
	patch  *tensor.Tensor4   // ForwardRows' patched input of the next cut
	bias   []float32         // ForwardRows' gathered bias
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

// ensure returns *slot reshaped to the given shape, reusing (or
// growing) its allocation.
func ensure(slot **tensor.Tensor4, n, c, h, w int) *tensor.Tensor4 {
	t := *slot
	if t != nil && t.N == n && t.C == c && t.H == h && t.W == w {
		return t
	}
	if t != nil && cap(t.Data) >= n*c*h*w {
		t.N, t.C, t.H, t.W = n, c, h, w
		t.Data = t.Data[:n*c*h*w]
		return t
	}
	t = tensor.NewTensor4(n, c, h, w)
	*slot = t
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
		var y *tensor.Tensor4
		if l.Kind == Add {
			y = fetch(i, l.Input2)
		}
		f.run(&f.acts[i], l, fetch(i, l.Input), y, l.Operand(), l.Bias, l.WeightRows(), false)
	}
	last := f.acts[len(f.acts)-1]
	f.logits = tensor.Matrix{Rows: last.N, Cols: last.C * last.H * last.W, Data: last.Data}
	return &f.logits
}

// run computes layer l on x (and y, for Add) into *slot, with its ReLU;
// a weight layer runs on w and bias, producing outC channels. A conv
// layer runs on a padded input frame when frame is set
// (tensor.Conv2DFrameInto), lowered otherwise.
func (f *Forwarder) run(slot **tensor.Tensor4, l *Layer, x, y *tensor.Tensor4, w tensor.Operand, bias []float32, outC int, frame bool) *tensor.Tensor4 {
	var out *tensor.Tensor4
	switch l.Kind {
	case Conv:
		cs := l.Conv
		cs.OutC = outC
		out = ensure(slot, x.N, outC, cs.OutH(), cs.OutW())
		if frame {
			tensor.Conv2DFrameInto(out, x, w, bias, cs, &f.conv)
		} else {
			tensor.Conv2DInto(out, x, w, bias, cs, &f.conv)
		}
	case FC:
		out = ensure(slot, x.N, outC, 1, 1)
		f.flat = tensor.Matrix{Rows: x.N, Cols: x.C * x.H * x.W, Data: x.Data}
		f.view = tensor.Matrix{Rows: x.N, Cols: outC, Data: out.Data}
		tensor.MulABtInto(&f.view, &f.flat, w, f.Workers)
		if bias != nil {
			f.view.AddBiasRows(bias)
		}
	case MaxPool:
		out = ensure(slot, x.N, x.C, x.H/l.PoolK, x.W/l.PoolK)
		tensor.MaxPool2DInto(out, x, l.PoolK)
	case GlobalAvgPool:
		out = ensure(slot, x.N, x.C, 1, 1)
		f.view = tensor.Matrix{Rows: x.N, Cols: x.C, Data: out.Data}
		tensor.GlobalAvgPool2DInto(&f.view, x)
	case Add:
		out = ensure(slot, x.N, x.C, x.H, x.W)
		copy(out.Data, x.Data)
		for j, v := range y.Data {
			out.Data[j] += v
		}
	default:
		panic(fmt.Sprintf("dnn: unknown layer kind %d", l.Kind))
	}
	if l.ReLUAfter {
		out.ReLU()
	}
	return out
}

// ForwardRows is ForwardFrom(k, in) when only the listed output rows
// of weight layer k differ from the weights that produced next, the
// input of layer n = Model.RowCut(k); w holds just those rows, in that
// order. It runs k and its channel-local tail on those channels alone,
// patches them into a copy of next, and continues with ForwardFrom(n).
// A conv layer k runs on a zero-padded frame of in
// (tensor.Conv2DFrameInto): for a few channels, lowering the whole
// input costs more than their GEMM, so nothing is lowered. A kernel
// computes each channel from its own weight row (see tensor.Operand),
// and the frame driver gives the lowered convolution's bits, so the
// logits are bit-identical. Layer k's operand is never read, in and
// next are only read, and Output(i) for k <= i < n holds the listed
// channels only. It panics when n is -1.
func (f *Forwarder) ForwardRows(k int, rows []int, w tensor.Operand, in, next *tensor.Tensor4) *tensor.Matrix {
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
		x = f.run(&f.acts[i], f.m.Layers[i], x, nil, w, bias, len(rows), true)
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

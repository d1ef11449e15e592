package train

import (
	"fmt"
	"math"

	"repro/internal/dnn"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Config holds SGD hyperparameters.
type Config struct {
	Epochs       int
	BatchSize    int
	LearningRate float64
	Momentum     float64
	Seed         uint64
}

func (c Config) withDefaults() Config {
	if c.Epochs == 0 {
		c.Epochs = 5
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.05
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	return c
}

// Train runs minibatch SGD with momentum on a *sequential* model (no Add
// layers; every layer consumes the previous layer's output). The model
// must be materialized. Returns the final training loss.
func Train(m *dnn.Model, ds *Dataset, cfg Config) (float64, error) {
	cfg = cfg.withDefaults()
	if !m.Materialized() {
		return 0, fmt.Errorf("train: model %q is not materialized", m.Name)
	}
	for _, l := range m.Layers {
		if l.Kind == dnn.Add || (l.Input != -1) {
			return 0, fmt.Errorf("train: layer %q: only sequential models are trainable", l.Name)
		}
	}
	src := stats.NewSource(cfg.Seed)
	vel := newVelocity(m)
	fw := dnn.NewForwarder(m)
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := src.Perm(ds.N())
		var epochLoss float64
		batches := 0
		for lo := 0; lo+cfg.BatchSize <= ds.N(); lo += cfg.BatchSize {
			idx := perm[lo : lo+cfg.BatchSize]
			x, labels := ds.Batch(idx)
			loss := step(m, fw, x, labels, vel, cfg)
			epochLoss += loss
			batches++
		}
		if batches > 0 {
			lastLoss = epochLoss / float64(batches)
		}
	}
	return lastLoss, nil
}

// velocity holds momentum buffers per weight layer.
type velocity struct {
	w map[int][]float32
	b map[int][]float32
}

func newVelocity(m *dnn.Model) *velocity {
	v := &velocity{w: map[int][]float32{}, b: map[int][]float32{}}
	for i, l := range m.Layers {
		if l.HasWeights() {
			v.w[i] = make([]float32, len(l.Weights.Data))
			v.b[i] = make([]float32, len(l.Bias))
		}
	}
	return v
}

// step runs one forward+backward+update pass; returns the batch loss.
// The forward pass is fw's: backward reads each layer's input and
// post-ReLU output from the activations that pass left in fw.
func step(m *dnn.Model, fw *dnn.Forwarder, x *tensor.Tensor4, labels []int, vel *velocity, cfg Config) float64 {
	logits := fw.Forward(x)

	// Softmax cross-entropy loss and gradient.
	n := x.N
	probs := logits.Clone()
	probs.Softmax()
	var loss float64
	grad := tensor.NewMatrix(n, probs.Cols)
	for r := 0; r < n; r++ {
		p := probs.Row(r)
		g := grad.Row(r)
		y := labels[r]
		loss -= math.Log(math.Max(float64(p[y]), 1e-12))
		for j := range g {
			g[j] = p[j] / float32(n)
		}
		g[y] -= 1 / float32(n)
	}
	loss /= float64(n)

	// Backward pass.
	last := fw.Output(len(m.Layers) - 1)
	dOut := &tensor.Tensor4{N: n, C: last.C, H: last.H, W: last.W, Data: grad.Data}
	for i := len(m.Layers) - 1; i >= 0; i-- {
		l := m.Layers[i]
		in := x
		if i > 0 {
			in = fw.Input(i)
		}
		if l.ReLUAfter {
			for j, v := range fw.Output(i).Data {
				if v <= 0 {
					dOut.Data[j] = 0
				}
			}
		}
		switch l.Kind {
		case dnn.Conv:
			dOut = convBackward(l, in, dOut, vel, i, cfg)
		case dnn.FC:
			dOut = fcBackward(l, in, dOut, vel, i, cfg)
		case dnn.MaxPool:
			dOut = maxPoolBackward(l, in, dOut)
		case dnn.GlobalAvgPool:
			dOut = gapBackward(in, dOut)
		}
	}
	return loss
}

func applyUpdate(w, grad, vel []float32, lr, momentum float64) {
	lrf := float32(lr)
	mf := float32(momentum)
	for i := range w {
		vel[i] = mf*vel[i] - lrf*grad[i]
		w[i] += vel[i]
	}
}

func fcBackward(l *dnn.Layer, in, dOut *tensor.Tensor4, vel *velocity, li int, cfg Config) *tensor.Tensor4 {
	n := in.N
	x := tensor.Flatten(in)                             // n x In
	dy := tensor.FromSlice(n, l.OutFeatures, dOut.Data) // n x Out
	dW := tensor.Mul(dy.Transpose(), x)                 // Out x In
	db := make([]float32, l.OutFeatures)
	for r := 0; r < n; r++ {
		row := dy.Row(r)
		for j, v := range row {
			db[j] += v
		}
	}
	dx := tensor.Mul(dy, l.Weights) // n x In
	applyUpdate(l.Weights.Data, dW.Data, vel.w[li], cfg.LearningRate, cfg.Momentum)
	applyUpdate(l.Bias, db, vel.b[li], cfg.LearningRate, cfg.Momentum)
	return &tensor.Tensor4{N: n, C: in.C, H: in.H, W: in.W, Data: dx.Data}
}

func convBackward(l *dnn.Layer, in, dOut *tensor.Tensor4, vel *velocity, li int, cfg Config) *tensor.Tensor4 {
	cs := l.Conv
	oh, ow := cs.OutH(), cs.OutW()
	dW := tensor.NewMatrix(l.Weights.Rows, l.Weights.Cols)
	db := make([]float32, cs.OutC)
	dIn := tensor.NewTensor4(in.N, in.C, in.H, in.W)
	dPatch := tensor.NewMatrix(cs.InC*cs.KH*cs.KW, oh*ow)
	dWn := tensor.NewMatrix(dW.Rows, dW.Cols)
	wT := l.Weights.Transpose()
	for s := 0; s < in.N; s++ {
		patches := tensor.Im2col(in, s, cs)
		dy := tensor.FromSlice(cs.OutC, oh*ow, dOut.Image(s))
		// dW += dy * patches^T
		tensor.MulInto(dWn, dy, patches.Transpose())
		for j, v := range dWn.Data {
			dW.Data[j] += v
		}
		for c := 0; c < cs.OutC; c++ {
			for _, v := range dy.Row(c) {
				db[c] += v
			}
		}
		// dPatches = W^T * dy ; scatter back with col2im.
		tensor.MulInto(dPatch, wT, dy)
		tensor.Col2im(dPatch, cs, dIn.Image(s))
	}
	applyUpdate(l.Weights.Data, dW.Data, vel.w[li], cfg.LearningRate, cfg.Momentum)
	applyUpdate(l.Bias, db, vel.b[li], cfg.LearningRate, cfg.Momentum)
	return dIn
}

func maxPoolBackward(l *dnn.Layer, in, dOut *tensor.Tensor4) *tensor.Tensor4 {
	k := l.PoolK
	dIn := tensor.NewTensor4(in.N, in.C, in.H, in.W)
	for n := 0; n < in.N; n++ {
		for c := 0; c < in.C; c++ {
			for oy := 0; oy < in.H/k; oy++ {
				for ox := 0; ox < in.W/k; ox++ {
					by, bx := oy*k, ox*k
					best := in.At(n, c, by, bx)
					for dy := 0; dy < k; dy++ {
						for dx := 0; dx < k; dx++ {
							if v := in.At(n, c, oy*k+dy, ox*k+dx); v > best {
								best = v
								by, bx = oy*k+dy, ox*k+dx
							}
						}
					}
					dIn.Set(n, c, by, bx, dIn.At(n, c, by, bx)+dOut.At(n, c, oy, ox))
				}
			}
		}
	}
	return dIn
}

func gapBackward(in, dOut *tensor.Tensor4) *tensor.Tensor4 {
	dIn := tensor.NewTensor4(in.N, in.C, in.H, in.W)
	inv := 1 / float32(in.H*in.W)
	for n := 0; n < in.N; n++ {
		for c := 0; c < in.C; c++ {
			g := dOut.At(n, c, 0, 0) * inv
			for y := 0; y < in.H; y++ {
				for x := 0; x < in.W; x++ {
					dIn.Set(n, c, y, x, g)
				}
			}
		}
	}
	return dIn
}

// Accuracy returns the fraction of correct predictions on ds.
func Accuracy(m *dnn.Model, ds *Dataset) float64 { return AccuracyWith(dnn.NewForwarder(m), ds) }

// Error returns 1 - Accuracy.
func Error(m *dnn.Model, ds *Dataset) float64 { return 1 - Accuracy(m, ds) }

// AccuracyWith returns the fraction of correct predictions on ds using
// a caller-owned reusable Forwarder, so repeated evaluations (the
// inference tail of fault-injection trials) allocate nothing in steady
// state.
func AccuracyWith(f *dnn.Forwarder, ds *Dataset) float64 { return AccuracyOf(f.Forward(ds.Images), ds) }

// ErrorWith returns 1 - AccuracyWith.
func ErrorWith(f *dnn.Forwarder, ds *Dataset) float64 { return 1 - AccuracyWith(f, ds) }

// AccuracyOf returns the fraction of logits' rows, one per sample of
// ds, whose argmax is the sample's label: the logits of any pass over
// ds.Images, whether it started at layer 0 or mid-network (see
// dnn.Forwarder.ForwardFrom and ForwardRows). It is the one counting
// path: every accuracy and error above is this count and this division.
func AccuracyOf(logits *tensor.Matrix, ds *Dataset) float64 {
	correct := 0
	for r := 0; r < logits.Rows; r++ {
		if logits.ArgmaxRow(r) == ds.Labels[r] {
			correct++
		}
	}
	return float64(correct) / float64(logits.Rows)
}

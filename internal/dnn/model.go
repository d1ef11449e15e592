// Package dnn defines the executable DNN model representation used
// throughout MaxNVM: a small layer DAG supporting convolution, fully
// connected layers, pooling, residual adds, and ReLU, with forward
// inference built on the tensor package.
//
// The package also hosts the model zoo (LeNet5, VGG12, VGG16, ResNet50)
// with the per-model metadata from Table 2 of the paper (iso-training-noise
// error bounds, cluster index bits, target sparsity) and deterministic
// synthetic weight initialization. Weight *values* are synthetic (we have
// no ImageNet training infrastructure — see DESIGN.md substitutions), but
// layer shapes, parameter counts, sparsity structure, and encoding sizes
// are all derived from the real topologies.
package dnn

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// LayerKind enumerates the supported layer types.
type LayerKind int

const (
	// Conv is a 2-D convolution (weights stored in the NVDLA 2-D mapping:
	// OutC rows x InC*KH*KW columns).
	Conv LayerKind = iota
	// FC is a fully connected layer (weights: Out rows x In columns).
	FC
	// MaxPool is non-overlapping k x k max pooling.
	MaxPool
	// GlobalAvgPool reduces each channel plane to its mean.
	GlobalAvgPool
	// Add sums the outputs of two earlier layers (residual connection).
	Add
)

// String implements fmt.Stringer.
func (k LayerKind) String() string {
	switch k {
	case Conv:
		return "conv"
	case FC:
		return "fc"
	case MaxPool:
		return "maxpool"
	case GlobalAvgPool:
		return "gap"
	case Add:
		return "add"
	}
	return fmt.Sprintf("LayerKind(%d)", int(k))
}

// Layer is one node of the model DAG.
//
// By default a layer consumes the output of the immediately preceding
// layer; Input overrides that with the index of an arbitrary earlier layer
// (-1 means "previous"). Add layers combine Input and Input2.
type Layer struct {
	Name string
	Kind LayerKind

	// Conv parameters (Kind == Conv). The InH/InW fields are filled in by
	// Build from the propagated activation shape.
	Conv tensor.ConvShape

	// FC parameters (Kind == FC).
	InFeatures, OutFeatures int

	// PoolK is the pooling window/stride (Kind == MaxPool).
	PoolK int

	// Input is the index of the producing layer (-1 = previous layer's
	// output, or the model input for the first layer).
	Input int
	// Input2 is the second operand for Add layers.
	Input2 int

	// ReLUAfter applies a ReLU to this layer's output.
	ReLUAfter bool

	// Weights holds the layer parameters in 2-D form (nil for
	// pool/add layers). Mutable: fault injection decodes into this.
	Weights *tensor.Matrix
	// Weights24, when non-nil, overrides Weights with a compute-direct
	// 2:4 structured-sparse form: the Forwarder runs the layer through
	// the sparse kernels without ever materializing a dense matrix. Set
	// (and cleared) per trial by the ares evaluator's replica pool.
	Weights24 *tensor.Sparse24
	// WeightsXbar, when non-nil, routes the layer through the crossbar
	// compute-in-memory kernels (effective weights with per-row-tile
	// ADC quantization; see tensor.Xbar). Takes precedence over both
	// Weights and Weights24 (see Operand). Set (and cleared) per trial
	// by the ares evaluator's replica pool.
	WeightsXbar *tensor.Xbar
	// Bias holds the per-output-channel bias (may be nil).
	Bias []float32
}

// Operand returns the weight operand the layer runs on. Precedence:
// WeightsXbar, then Weights24, then Weights.
func (l *Layer) Operand() tensor.Operand {
	switch {
	case l.WeightsXbar != nil:
		return l.WeightsXbar
	case l.Weights24 != nil:
		return l.Weights24
	}
	return l.Weights
}

// HasWeights reports whether the layer carries parameters.
func (l *Layer) HasWeights() bool { return l.Kind == Conv || l.Kind == FC }

// WeightRows returns the number of rows of the layer's 2-D weight matrix
// (OutC for conv in the NVDLA mapping, OutFeatures for FC), derivable from
// the layer spec even when weights are not materialized.
func (l *Layer) WeightRows() int {
	switch l.Kind {
	case Conv:
		return l.Conv.OutC
	case FC:
		return l.OutFeatures
	}
	return 0
}

// WeightCols returns the number of columns of the layer's 2-D weight
// matrix (InC*KH*KW for conv, InFeatures for FC).
func (l *Layer) WeightCols() int {
	switch l.Kind {
	case Conv:
		return l.Conv.InC * l.Conv.KH * l.Conv.KW
	case FC:
		return l.InFeatures
	}
	return 0
}

// WeightCount returns the number of weight values (excluding bias). It is
// computed from the layer spec, so it is valid for unmaterialized layers.
func (l *Layer) WeightCount() int { return l.WeightRows() * l.WeightCols() }

// BiasCount returns the number of bias values the layer carries when
// materialized.
func (l *Layer) BiasCount() int { return l.WeightRows() }

// Materialized reports whether the layer's weight storage is allocated.
func (l *Layer) Materialized() bool { return !l.HasWeights() || l.Weights != nil }

// Materialize allocates the layer's weight matrix and bias and fills them
// with He-scaled Gaussian values drawn deterministically from src
// (sigma = sqrt(2 / fanIn)); biases are zeroed. It is a no-op for layers
// without weights. Already-materialized layers are re-initialized.
func (l *Layer) Materialize(src *stats.Source) {
	if !l.HasWeights() {
		return
	}
	if l.Weights == nil {
		l.Weights = tensor.NewMatrix(l.WeightRows(), l.WeightCols())
		l.Bias = make([]float32, l.BiasCount())
	}
	sigma := math.Sqrt(2 / float64(l.WeightCols()))
	for j := range l.Weights.Data {
		l.Weights.Data[j] = float32(src.Gaussian(0, sigma))
	}
	for j := range l.Bias {
		l.Bias[j] = 0
	}
}

// Release frees the layer's weight storage (used when streaming very
// large models layer by layer).
func (l *Layer) Release() {
	l.Weights = nil
	l.Bias = nil
}

// Meta carries the per-model reference metadata from Table 2 of the paper.
type Meta struct {
	Dataset string
	// PaperLayers is the layer count the paper reports.
	PaperLayers int
	// PaperParams is the parameter count the paper reports.
	PaperParams int
	// BaselineError is the baseline classification error (fraction, e.g.
	// 0.0083 for LeNet5).
	BaselineError float64
	// ErrorBound is the iso-training-noise bound: the maximum additional
	// classification error tolerated before a configuration is rejected.
	ErrorBound float64
	// ClusterIndexBits is the number of bits per clustered weight index
	// (4..7 across the zoo).
	ClusterIndexBits int
	// TargetSparsity is the fraction of zero-valued weights after
	// magnitude pruning.
	TargetSparsity float64
}

// Model is an executable DNN.
type Model struct {
	Name    string
	InputC  int
	InputH  int
	InputW  int
	Classes int
	Layers  []*Layer
	Meta    Meta
}

// WeightCount returns the total number of weight values (excluding bias).
func (m *Model) WeightCount() int {
	total := 0
	for _, l := range m.Layers {
		total += l.WeightCount()
	}
	return total
}

// Validate checks DAG consistency: input references must point backwards,
// conv/fc shapes must chain, and Add operands must match shapes.
func (m *Model) Validate() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("dnn: model %q has no layers", m.Name)
	}
	shapes := make([]actShape, len(m.Layers))
	for i, l := range m.Layers {
		in, err := m.inputShape(shapes, i, l.Input)
		if err != nil {
			return err
		}
		switch l.Kind {
		case Conv:
			if l.Conv.InC != in.c || l.Conv.InH != in.h || l.Conv.InW != in.w {
				return fmt.Errorf("dnn: layer %q conv input %dx%dx%d != upstream %dx%dx%d",
					l.Name, l.Conv.InC, l.Conv.InH, l.Conv.InW, in.c, in.h, in.w)
			}
			if err := l.Conv.Validate(); err != nil {
				return fmt.Errorf("dnn: layer %q: %w", l.Name, err)
			}
			shapes[i] = actShape{c: l.Conv.OutC, h: l.Conv.OutH(), w: l.Conv.OutW()}
		case FC:
			if in.flat() != l.InFeatures {
				return fmt.Errorf("dnn: layer %q fc expects %d features, upstream has %d",
					l.Name, l.InFeatures, in.flat())
			}
			shapes[i] = actShape{c: l.OutFeatures, h: 1, w: 1}
		case MaxPool:
			if l.PoolK <= 0 || in.h%l.PoolK != 0 || in.w%l.PoolK != 0 {
				return fmt.Errorf("dnn: layer %q pool %d does not divide %dx%d", l.Name, l.PoolK, in.h, in.w)
			}
			shapes[i] = actShape{c: in.c, h: in.h / l.PoolK, w: in.w / l.PoolK}
		case GlobalAvgPool:
			shapes[i] = actShape{c: in.c, h: 1, w: 1}
		case Add:
			in2, err := m.inputShape(shapes, i, l.Input2)
			if err != nil {
				return err
			}
			if in != in2 {
				return fmt.Errorf("dnn: layer %q add operands %v != %v", l.Name, in, in2)
			}
			shapes[i] = in
		default:
			return fmt.Errorf("dnn: layer %q has unknown kind %d", l.Name, l.Kind)
		}
	}
	return nil
}

type actShape struct{ c, h, w int }

func (s actShape) flat() int { return s.c * s.h * s.w }

func (m *Model) inputShape(shapes []actShape, i, ref int) (actShape, error) {
	if ref < -1 || ref >= i {
		return actShape{}, fmt.Errorf("dnn: layer %d references invalid input %d", i, ref)
	}
	if src := m.source(i, ref); src >= 0 {
		return shapes[src], nil
	}
	return actShape{c: m.InputC, h: m.InputH, w: m.InputW}, nil
}

// source resolves layer i's input reference ref (Input or Input2) to
// the index of the producing layer, or -1 for the model input.
func (m *Model) source(i, ref int) int {
	if ref == -1 {
		return i - 1
	}
	return ref
}

// CanCut reports whether a forward pass may start at layer k given only
// layer k's input (see Forwarder.ForwardFrom): no layer from k on reads,
// through Input or Input2, an activation produced before k other than
// that input. A residual reference that skips over the cut makes it
// illegal. A cut at layer 0 is always legal.
func (m *Model) CanCut(k int) bool {
	if k < 0 || k >= len(m.Layers) {
		return false
	}
	in := m.source(k, m.Layers[k].Input)
	for i := k; i < len(m.Layers); i++ {
		l := m.Layers[i]
		if src := m.source(i, l.Input); src < k && src != in {
			return false
		}
		if l.Kind != Add {
			continue
		}
		if src := m.source(i, l.Input2); src < k && src != in {
			return false
		}
	}
	return true
}

// RowCut returns the layer n at which a row-patched pass over weight
// layer k resumes (see Forwarder.ForwardRows), or -1. Layers k+1..n-1
// are k's channel-local tail (MaxPool, GlobalAvgPool), each reading its
// predecessor, as n does; n is a legal cut (CanCut), which a residual
// skip across it is not. The last weight layer has no n.
func (m *Model) RowCut(k int) int {
	for n := k + 1; k >= 0 && n < len(m.Layers) && m.Layers[k].HasWeights(); n++ {
		l := m.Layers[n]
		if m.source(n, l.Input) != n-1 {
			break
		}
		if l.Kind != MaxPool && l.Kind != GlobalAvgPool {
			if m.CanCut(n) {
				return n
			}
			break
		}
	}
	return -1
}

// LayerSeed derives the deterministic per-layer weight stream seed from a
// model seed. It is a pure function, so materializing a single layer in
// isolation (streaming mode) yields exactly the same weights as
// materializing the whole model.
func LayerSeed(seed uint64, layer int) uint64 {
	return seed*0x9e3779b97f4a7c15 + uint64(layer+1)*0xbf58476d1ce4e5b9
}

// InitWeights materializes and initializes every weight layer with
// He-scaled Gaussian values derived deterministically from seed.
func (m *Model) InitWeights(seed uint64) {
	for i := range m.Layers {
		m.MaterializeLayer(i, seed)
	}
}

// MaterializeLayer allocates and initializes the weights of layer i using
// the model seed. Other layers are untouched.
func (m *Model) MaterializeLayer(i int, seed uint64) {
	m.Layers[i].Materialize(stats.NewSource(LayerSeed(seed, i)))
}

// Materialized reports whether all weight layers are allocated.
func (m *Model) Materialized() bool {
	for _, l := range m.Layers {
		if !l.Materialized() {
			return false
		}
	}
	return true
}

// CloneWeights returns deep copies of all weight matrices, keyed by layer
// index, so fault-injection trials can restore pristine weights.
func (m *Model) CloneWeights() map[int]*tensor.Matrix {
	out := make(map[int]*tensor.Matrix)
	for i, l := range m.Layers {
		if l.Weights != nil {
			out[i] = l.Weights.Clone()
		}
	}
	return out
}

// CloneShared returns a model whose Layer structs are copies but whose
// weight and bias storage is SHARED with the receiver. It is the basis
// of the inference replica pool: replicas treat the shared matrices as
// read-only and swap in private buffers for the layers a trial
// corrupts, so a pool costs one set of pristine weights plus only the
// corrupted deltas.
func (m *Model) CloneShared() *Model {
	out := *m
	out.Layers = make([]*Layer, len(m.Layers))
	for i, l := range m.Layers {
		ll := *l
		out.Layers[i] = &ll
	}
	return &out
}

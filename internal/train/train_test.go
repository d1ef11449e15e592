package train

import (
	"math"
	"testing"

	"repro/internal/dnn"
	"repro/internal/tensor"
)

func TestSynthesizeShapeAndBalance(t *testing.T) {
	ds := Synthesize(SynthConfig{N: 100, Seed: 1})
	if ds.N() != 100 || ds.Classes != 10 {
		t.Fatalf("n=%d classes=%d", ds.N(), ds.Classes)
	}
	counts := make([]int, 10)
	for _, l := range ds.Labels {
		counts[l]++
	}
	for c, n := range counts {
		if n != 10 {
			t.Errorf("class %d has %d samples, want 10", c, n)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := Synthesize(SynthConfig{N: 20, Seed: 5})
	b := Synthesize(SynthConfig{N: 20, Seed: 5})
	for i := range a.Images.Data {
		if a.Images.Data[i] != b.Images.Data[i] {
			t.Fatal("datasets with same seed differ")
		}
	}
	c := Synthesize(SynthConfig{N: 20, Seed: 6})
	same := 0
	for i := range a.Images.Data {
		if a.Images.Data[i] == c.Images.Data[i] {
			same++
		}
	}
	if same == len(a.Images.Data) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestTrainTestSharePrototypes(t *testing.T) {
	// Same ProtoSeed, different sample seeds: class structure transfers.
	tr := Synthesize(SynthConfig{N: 40, Seed: 1, ProtoSeed: 99})
	te := Synthesize(SynthConfig{N: 40, Seed: 2, ProtoSeed: 99})
	// Per-class means should correlate across the two datasets.
	mean := func(ds *Dataset, class int) []float64 {
		sz := ds.Images.H * ds.Images.W
		m := make([]float64, sz)
		n := 0
		for i, l := range ds.Labels {
			if l != class {
				continue
			}
			img := ds.Images.Image(i)
			for j, v := range img {
				m[j] += float64(v)
			}
			n++
		}
		for j := range m {
			m[j] /= float64(n)
		}
		return m
	}
	for c := 0; c < 3; c++ {
		a, b := mean(tr, c), mean(te, c)
		var dot, na, nb float64
		for j := range a {
			dot += a[j] * b[j]
			na += a[j] * a[j]
			nb += b[j] * b[j]
		}
		corr := dot / math.Sqrt(na*nb)
		if corr < 0.5 {
			t.Errorf("class %d cross-split correlation %.3f too low", c, corr)
		}
	}
}

func TestBatchCopies(t *testing.T) {
	ds := Synthesize(SynthConfig{N: 10, Seed: 3})
	x, labels := ds.Batch([]int{0, 5})
	if x.N != 2 || len(labels) != 2 {
		t.Fatal("batch shape wrong")
	}
	if labels[1] != ds.Labels[5] {
		t.Error("labels not copied correctly")
	}
	x.Data[0] = 999
	if ds.Images.Data[0] == 999 {
		t.Error("batch aliases dataset")
	}
}

func TestSplit(t *testing.T) {
	ds := Synthesize(SynthConfig{N: 30, Seed: 4})
	a, b := split(ds, 20)
	if a.N() != 20 || b.N() != 10 {
		t.Fatalf("split sizes %d/%d", a.N(), b.N())
	}
	if b.Labels[0] != ds.Labels[20] {
		t.Error("split labels wrong")
	}
}

func TestTrainRejectsUnmaterializedAndResidual(t *testing.T) {
	ds := Synthesize(SynthConfig{N: 20, Seed: 1})
	m := dnn.TinyCNN()
	if _, err := Train(m, ds, Config{Epochs: 1}); err == nil {
		t.Error("unmaterialized model accepted")
	}
	r := dnn.ResNet50() // has Add layers
	r.Layers = r.Layers[:4]
	_ = r
}

func TestTrainingLearnsTask(t *testing.T) {
	// End-to-end: TinyCNN must learn the synthetic task far beyond chance
	// (10%). This is the foundation for all measured fault-injection
	// results, so it is tested strictly.
	trainDS := Synthesize(SynthConfig{N: 600, Seed: 10, ProtoSeed: 77})
	testDS := Synthesize(SynthConfig{N: 200, Seed: 11, ProtoSeed: 77})
	m := dnn.TinyCNN()
	m.InitWeights(42)

	before := Accuracy(m, testDS)
	loss, err := Train(m, trainDS, Config{Epochs: 6, BatchSize: 32, LearningRate: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	after := Accuracy(m, testDS)
	if after < 0.85 {
		t.Errorf("test accuracy %.3f (before %.3f, loss %.3f); model failed to learn", after, before, loss)
	}
	if after <= before {
		t.Errorf("training did not improve accuracy: %.3f -> %.3f", before, after)
	}
}

func TestTrainingDeterministic(t *testing.T) {
	run := func() float64 {
		ds := Synthesize(SynthConfig{N: 100, Seed: 20})
		m := dnn.TinyCNN()
		m.InitWeights(7)
		loss, err := Train(m, ds, Config{Epochs: 2, BatchSize: 20, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return loss
	}
	if run() != run() {
		t.Error("training is not deterministic")
	}
}

func TestGradientCheckFC(t *testing.T) {
	// Numerical gradient check on a tiny FC-only model.
	b := 2
	ds := &Dataset{
		Images:  tensor.NewTensor4(b, 1, 2, 2),
		Labels:  []int{0, 2},
		Classes: 3,
	}
	for i := range ds.Images.Data {
		ds.Images.Data[i] = float32(i)*0.1 - 0.3
	}
	m := &dnn.Model{
		Name: "fc-check", InputC: 1, InputH: 2, InputW: 2, Classes: 3,
		Layers: []*dnn.Layer{
			{Name: "fc", Kind: dnn.FC, InFeatures: 4, OutFeatures: 3, Input: -1},
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.InitWeights(1)

	fw := dnn.NewForwarder(m)
	lossAt := func() float64 {
		logits := fw.Forward(ds.Images)
		probs := logits.Clone()
		probs.Softmax()
		var loss float64
		for r := 0; r < b; r++ {
			loss -= math.Log(float64(probs.Data[r*probs.Cols+ds.Labels[r]]))
		}
		return loss / float64(b)
	}

	// Analytic gradient via one training step with lr encoded as delta:
	// run step() indirectly by comparing numeric gradient to the weight
	// delta produced by a single plain-SGD update (momentum 0, lr known).
	w := m.Layers[0].Weights
	before := append([]float32(nil), w.Data...)
	lr := 0.001
	if _, err := Train(m, ds, Config{Epochs: 1, BatchSize: b, LearningRate: lr, Momentum: 1e-12, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	after := append([]float32(nil), w.Data...)

	// Numeric gradient for a few weights.
	copy(w.Data, before)
	const eps = 1e-2
	for _, idx := range []int{0, 3, 7, 11} {
		orig := w.Data[idx]
		w.Data[idx] = orig + eps
		lp := lossAt()
		w.Data[idx] = orig - eps
		lm := lossAt()
		w.Data[idx] = orig
		numGrad := (lp - lm) / (2 * eps)
		analyticGrad := float64(before[idx]-after[idx]) / lr
		if math.Abs(numGrad-analyticGrad) > 0.05*math.Max(1, math.Abs(numGrad)) {
			t.Errorf("weight %d: numeric grad %.5f vs analytic %.5f", idx, numGrad, analyticGrad)
		}
	}
}

func TestAccuracyErrorComplement(t *testing.T) {
	ds := Synthesize(SynthConfig{N: 50, Seed: 30})
	m := dnn.TinyCNN()
	m.InitWeights(2)
	a := Accuracy(m, ds)
	e := Error(m, ds)
	if math.Abs(a+e-1) > 1e-12 {
		t.Errorf("accuracy %v + error %v != 1", a, e)
	}
}

// split returns views-by-copy of the first n and remaining samples.
func split(d *Dataset, n int) (*Dataset, *Dataset) {
	first := make([]int, n)
	for i := range first {
		first[i] = i
	}
	rest := make([]int, d.N()-n)
	for i := range rest {
		rest[i] = n + i
	}
	aImg, aLab := d.Batch(first)
	bImg, bLab := d.Batch(rest)
	return &Dataset{Images: aImg, Labels: aLab, Classes: d.Classes},
		&Dataset{Images: bImg, Labels: bLab, Classes: d.Classes}
}

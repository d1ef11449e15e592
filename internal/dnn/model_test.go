package dnn

import (
	"testing"

	"repro/internal/tensor"
)

func TestLayerKindString(t *testing.T) {
	cases := map[LayerKind]string{
		Conv: "conv", FC: "fc", MaxPool: "maxpool", GlobalAvgPool: "gap", Add: "add",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if LayerKind(99).String() != "LayerKind(99)" {
		t.Error("unknown kind string wrong")
	}
}

func TestWeightShapeSpecDerived(t *testing.T) {
	l := &Layer{Kind: Conv, Conv: tensor.ConvShape{InC: 3, OutC: 8, KH: 3, KW: 3}}
	if l.WeightRows() != 8 || l.WeightCols() != 27 || l.WeightCount() != 216 {
		t.Errorf("conv weight shape wrong: %d x %d", l.WeightRows(), l.WeightCols())
	}
	f := &Layer{Kind: FC, InFeatures: 100, OutFeatures: 10}
	if f.WeightCount() != 1000 || f.BiasCount() != 10 || f.ParamCount() != 1010 {
		t.Error("fc param counts wrong")
	}
	p := &Layer{Kind: MaxPool, PoolK: 2}
	if p.WeightCount() != 0 || p.ParamCount() != 0 {
		t.Error("pool should have no params")
	}
}

func TestMaterializeDeterministic(t *testing.T) {
	m1 := TinyCNN()
	m2 := TinyCNN()
	m1.InitWeights(7)
	m2.InitWeights(7)
	for i := range m1.Layers {
		a, b := m1.Layers[i].Weights, m2.Layers[i].Weights
		if a == nil {
			continue
		}
		for j := range a.Data {
			if a.Data[j] != b.Data[j] {
				t.Fatalf("layer %d weight %d differs", i, j)
			}
		}
	}
}

func TestMaterializeLayerMatchesFullInit(t *testing.T) {
	full := TinyCNN()
	full.InitWeights(9)
	single := TinyCNN()
	single.MaterializeLayer(2, 9) // conv2
	a := full.Layers[2].Weights
	b := single.Layers[2].Weights
	for j := range a.Data {
		if a.Data[j] != b.Data[j] {
			t.Fatal("streaming materialization differs from full init")
		}
	}
	if single.Layers[0].Materialized() {
		t.Error("layer 0 should remain unmaterialized")
	}
}

func TestMaterializedFlag(t *testing.T) {
	m := TinyCNN()
	if m.Materialized() {
		t.Error("fresh zoo model should be unmaterialized")
	}
	m.InitWeights(1)
	if !m.Materialized() {
		t.Error("initialized model should report materialized")
	}
	m.Layers[0].Release()
	if m.Materialized() {
		t.Error("released layer should clear materialized")
	}
}

func TestValidateCatchesShapeMismatch(t *testing.T) {
	m := TinyCNN()
	m.Layers[4].InFeatures = 999 // fc1 expects 16*3*3 = 144
	if err := m.Validate(); err == nil {
		t.Error("expected validation error")
	}
}

func TestValidateCatchesBadInputRef(t *testing.T) {
	m := TinyCNN()
	m.Layers[1].Input = 5 // forward reference
	if err := m.Validate(); err == nil {
		t.Error("expected validation error for forward input reference")
	}
}

func TestForwardShapes(t *testing.T) {
	m := TinyCNN()
	m.InitWeights(3)
	in := tensor.NewTensor4(4, 1, 12, 12)
	for i := range in.Data {
		in.Data[i] = float32(i%7) / 7
	}
	f := NewForwarder(m)
	logits := f.Forward(in)
	if logits.Rows != 4 || logits.Cols != 10 {
		t.Fatalf("logits shape %dx%d, want 4x10", logits.Rows, logits.Cols)
	}
	preds := argmaxRows(logits, nil)
	if len(preds) != 4 {
		t.Fatalf("predictions %d, want 4", len(preds))
	}
	for _, p := range preds {
		if p < 0 || p >= 10 {
			t.Fatalf("prediction %d out of range", p)
		}
	}
}

func TestForwardDeterministic(t *testing.T) {
	m := TinyCNN()
	m.InitWeights(5)
	in := tensor.NewTensor4(2, 1, 12, 12)
	for i := range in.Data {
		in.Data[i] = float32(i % 3)
	}
	a := NewForwarder(m).Forward(in)
	b := NewForwarder(m).Forward(in)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("forward is not deterministic")
		}
	}
}

func TestCloneRestoreWeights(t *testing.T) {
	m := TinyCNN()
	m.InitWeights(11)
	snap := m.CloneWeights()
	orig := m.Layers[0].Weights.Data[0]
	m.Layers[0].Weights.Data[0] = 999
	copy(m.Layers[0].Weights.Data, snap[0].Data)
	if m.Layers[0].Weights.Data[0] != orig {
		t.Error("restore failed")
	}
	// Snapshot must be independent.
	m.Layers[0].Weights.Data[0] = 123
	if snap[0].Data[0] == 123 {
		t.Error("snapshot aliases live weights")
	}
}

func TestResidualAddForward(t *testing.T) {
	// Minimal residual model: conv identity-ish then add with itself.
	b := newBuilder("res-test", 1, 4, 4, 4)
	i0 := b.conv("c1", 4, 1, 0, 1, false)
	b.conv("c2", 4, 1, 0, 1, false)
	b.add("add", -1, i0, false)
	b.gap("gap")
	m := b.done(Meta{})
	m.InitWeights(1)

	in := tensor.NewTensor4(1, 1, 4, 4)
	for i := range in.Data {
		in.Data[i] = 1
	}
	out := NewForwarder(m).Forward(in)
	if out.Rows != 1 || out.Cols != 4 {
		t.Fatalf("residual output shape %dx%d", out.Rows, out.Cols)
	}
}

package dnn

import (
	"math"
	"testing"
)

func TestZooModelsValidate(t *testing.T) {
	for _, name := range ZooNames {
		m := ByName(name)
		if err := m.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
		if m.Name != name {
			t.Errorf("name %q != %q", m.Name, name)
		}
	}
}

func TestZooWeightLayerCounts(t *testing.T) {
	// The paper's "Layers" column counts weight-carrying layers.
	want := map[string]int{
		"LeNet5":   4,
		"VGG12":    12,
		"VGG16":    16,
		"ResNet50": 54,
	}
	for name, n := range want {
		m := ByName(name)
		got := 0
		for _, l := range m.Layers {
			if l.HasWeights() {
				got++
			}
		}
		if got != n {
			t.Errorf("%s weight layers = %d, want %d", name, got, n)
		}
		if m.Meta.PaperLayers != n {
			t.Errorf("%s meta layers = %d, want %d", name, m.Meta.PaperLayers, n)
		}
	}
}

func TestZooParamCountsNearPaper(t *testing.T) {
	// Synthetic topologies must land within 15% of the paper's reported
	// parameter counts (the paper's own counting convention is not fully
	// specified, e.g. biases and BN parameters).
	for _, name := range ZooNames {
		m := ByName(name)
		got := float64(paramCount(m))
		want := float64(m.Meta.PaperParams)
		ratio := got / want
		if ratio < 0.70 || ratio > 1.15 {
			t.Errorf("%s params = %d, paper %d (ratio %.3f)", name, paramCount(m), m.Meta.PaperParams, ratio)
		}
	}
}

func TestZooUnmaterializedByDefault(t *testing.T) {
	m := VGG16()
	if m.Materialized() {
		t.Fatal("VGG16 should not allocate 552MB of weights at build time")
	}
	// Spec-derived counts still work.
	if m.WeightCount() == 0 {
		t.Fatal("spec weight count should be nonzero")
	}
}

func TestLeNet5Shapes(t *testing.T) {
	m := LeNet5()
	var wl []*Layer
	for _, l := range m.Layers {
		if l.HasWeights() {
			wl = append(wl, l)
		}
	}
	// conv1: 20 x (1*5*5); conv2: 50 x (20*5*5); fc1: 500 x 800; fc2: 10 x 500.
	wantRows := []int{20, 50, 500, 10}
	wantCols := []int{25, 500, 800, 500}
	for i, l := range wl {
		if l.WeightRows() != wantRows[i] || l.WeightCols() != wantCols[i] {
			t.Errorf("layer %s shape %dx%d, want %dx%d",
				l.Name, l.WeightRows(), l.WeightCols(), wantRows[i], wantCols[i])
		}
	}
}

func TestResNet50Structure(t *testing.T) {
	m := ResNet50()
	// 53 convs + 1 fc.
	convs, fcs, adds := 0, 0, 0
	for _, l := range m.Layers {
		switch l.Kind {
		case Conv:
			convs++
		case FC:
			fcs++
		case Add:
			adds++
		}
	}
	if convs != 53 {
		t.Errorf("convs = %d, want 53", convs)
	}
	if fcs != 1 {
		t.Errorf("fcs = %d, want 1", fcs)
	}
	if adds != 16 {
		t.Errorf("adds = %d, want 16 (one per bottleneck)", adds)
	}
}

func TestVGG16SizeMB(t *testing.T) {
	m := VGG16()
	mb := float64(m.WeightCount()) * 2 / 1e6 // 16-bit baseline
	// Paper Table 2: 270 MB 16-bit size.
	if math.Abs(mb-270)/270 > 0.05 {
		t.Errorf("VGG16 16-bit size = %.1f MB, want ~270", mb)
	}
}

func TestByNamePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ByName("AlexNet")
}

func TestZooMetadataSanity(t *testing.T) {
	for _, name := range ZooNames {
		m := ByName(name)
		meta := m.Meta
		if meta.ErrorBound <= 0 || meta.ErrorBound > 0.02 {
			t.Errorf("%s error bound %v out of paper range", name, meta.ErrorBound)
		}
		if meta.ClusterIndexBits < 4 || meta.ClusterIndexBits > 7 {
			t.Errorf("%s cluster bits %d out of range", name, meta.ClusterIndexBits)
		}
		if meta.TargetSparsity <= 0 || meta.TargetSparsity >= 1 {
			t.Errorf("%s sparsity %v invalid", name, meta.TargetSparsity)
		}
	}
}

// paramCount is the model's weights plus biases.
func paramCount(m *Model) int {
	n := 0
	for _, l := range m.Layers {
		n += layerParams(l)
	}
	return n
}

// layerParams is the layer's weights plus biases, 0 without weights.
func layerParams(l *Layer) int {
	if !l.HasWeights() {
		return 0
	}
	return l.WeightCount() + l.BiasCount()
}

package nvdla

import (
	"testing"

	"repro/internal/dnn"
)

func TestRNNWeightCount(t *testing.T) {
	// Single-layer LSTM, 256 in, 512 hidden:
	// 4 gates x 512 x (256+512) = 1,572,864.
	s := LSTM(256, 512, 1, 16)
	if got := weightCount(s); got != 1572864 {
		t.Errorf("weights = %d", got)
	}
	// Two layers: second layer input = hidden.
	s2 := LSTM(256, 512, 2, 16)
	want := int64(1572864) + 4*512*(512+512)
	if got := weightCount(s2); got != want {
		t.Errorf("2-layer weights = %d, want %d", got, want)
	}
}

func TestRNNWorkloadShape(t *testing.T) {
	s := LSTM(128, 256, 2, 10)
	work := s.Workload()
	if len(work) != 20 {
		t.Fatalf("work items = %d, want 20", len(work))
	}
	// Every step refetches the full stack's weights.
	var bits int64
	for _, lw := range work {
		bits += lw.WeightBits
	}
	if bits != weightCount(s)*16*10 {
		t.Errorf("fetched bits = %d, want %d", bits, weightCount(s)*16*10)
	}
	for _, lw := range work {
		if lw.MACs <= 0 || lw.WeightBits <= 0 || lw.ActBits <= 0 {
			t.Fatalf("bad work item %+v", lw)
		}
	}
}

func TestRNNReuseFarBelowCNN(t *testing.T) {
	rnn := LSTM(256, 512, 2, 32).Workload()
	cnn := Workload(dnn.VGG12(), nil)
	rnnReuse := ReuseFactor(rnn)
	cnnReuse := ReuseFactor(cnn)
	if rnnReuse*10 > cnnReuse {
		t.Errorf("RNN reuse %.3f should be << CNN reuse %.3f", rnnReuse, cnnReuse)
	}
}

func TestRNNBenefitsMoreFromOnChipWeights(t *testing.T) {
	// The paper's Section 5.2 claim: with less weight reuse, the relative
	// energy reduction from replacing DRAM grows.
	rnnWork := LSTM(256, 512, 2, 32).Workload()
	cnnWork := Workload(dnn.VGG12(), nil)

	mem := ENVMWeights{cttArray(t, 8, 2)}
	dram := DRAMWeights{NVDLA64.DRAM}

	rnnRatio := Run(NVDLA64, rnnWork, dram).EnergyUJ / Run(NVDLA64, rnnWork, mem).EnergyUJ
	cnnRatio := Run(NVDLA64, cnnWork, dram).EnergyUJ / Run(NVDLA64, cnnWork, mem).EnergyUJ
	if rnnRatio <= cnnRatio {
		t.Errorf("RNN energy ratio %.2fx should exceed CNN %.2fx", rnnRatio, cnnRatio)
	}
}

func TestRNNLayerNames(t *testing.T) {
	work := LSTM(8, 8, 1, 3).Workload()
	want := []string{"rnn0_t0", "rnn0_t1", "rnn0_t2"}
	for i, lw := range work {
		if lw.Name != want[i] {
			t.Errorf("name[%d] = %q, want %q", i, lw.Name, want[i])
		}
	}
}

// weightCount is the parameter count of the stack: per layer and gate,
// an input projection plus a recurrent projection.
func weightCount(s RNNSpec) int64 {
	var total int64
	in := s.Input
	for l := 0; l < s.Layers; l++ {
		total += int64(s.Gates) * int64(s.Hidden) * int64(in+s.Hidden)
		in = s.Hidden
	}
	return total
}

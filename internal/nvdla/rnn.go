package nvdla

// Recurrent workloads (Section 5.2: "energy reduction due to memory
// fetches would be increasingly beneficial in other resource-constrained
// contexts that exhibit less re-use of fetched parameters (e.g.,
// recurrent neural networks)"). An RNN cell's weight matrices are
// refetched on every timestep while doing only one matrix-vector product
// with them — the worst-case reuse profile for a DRAM-backed weight
// store and the best case for cheap on-chip reads.

// RNNSpec describes a simple recurrent layer stack.
type RNNSpec struct {
	// Input, Hidden are the feature widths.
	Input, Hidden int
	// Layers is the number of stacked recurrent layers.
	Layers int
	// Steps is the sequence length (weight refetches per inference).
	Steps int
	// Gates is the number of gate matrices per cell (1 = vanilla RNN,
	// 3 = GRU, 4 = LSTM).
	Gates int
	// WeightBitsPerWeight is the encoded weight width (16 = dense
	// baseline).
	WeightBitsPerWeight int
}

// LSTM returns a standard LSTM spec.
func LSTM(input, hidden, layers, steps int) RNNSpec {
	return RNNSpec{Input: input, Hidden: hidden, Layers: layers, Steps: steps,
		Gates: 4, WeightBitsPerWeight: 16}
}

// Workload lowers the RNN into per-timestep layer work: each step
// refetches every weight once and performs the matching MACs. The
// returned slice has Layers*Steps entries (one per step per layer), so
// the roofline model sees the refetch traffic explicitly.
func (s RNNSpec) Workload() []LayerWork {
	var out []LayerWork
	in := s.Input
	for l := 0; l < s.Layers; l++ {
		weights := int64(s.Gates) * int64(s.Hidden) * int64(in+s.Hidden)
		macs := weights // one MAC per weight per step (matrix-vector)
		act := int64(in+2*s.Hidden) * 8
		for step := 0; step < s.Steps; step++ {
			out = append(out, LayerWork{
				Name:           layerName(l, step),
				MACs:           macs,
				WeightBits:     weights * int64(s.WeightBitsPerWeight),
				ActBits:        act,
				WorkingSetBits: act,
				Utilization:    0.5, // matrix-vector underutilizes the MAC array
			})
		}
		in = s.Hidden
	}
	return out
}

func layerName(l, step int) string {
	return "rnn" + string(rune('0'+l)) + "_t" + itoa(step)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// ReuseFactor returns MACs per fetched weight bit — the reuse metric that
// predicts how much on-chip weight storage helps. CNNs have high reuse
// (each weight participates in OutH*OutW MACs); RNNs have ~1/16 at
// 16-bit weights.
func ReuseFactor(work []LayerWork) float64 {
	var macs, bits float64
	for _, lw := range work {
		macs += float64(lw.MACs)
		bits += float64(lw.WeightBits)
	}
	if bits == 0 {
		return 0
	}
	return macs / bits
}

package train

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dnn"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// TestTrainGolden pins training's bits: it trains TinyCNN with the
// Figure 5 recipe (exper.Env.Measured at seed 1) and records the final
// loss as float64 bits and, per weight layer, an FNV-64a hash of the
// float32 bits of its weights and of its bias. TestTrainingDeterministic
// only compares two runs of one build, so only a file written by an
// earlier build catches a change that moves training bits. Run with
// -update only when the science is meant to move.
func TestTrainGolden(t *testing.T) {
	const seed = 1
	ds := Synthesize(SynthConfig{N: 600, Seed: seed + 10, ProtoSeed: 77})
	m := dnn.TinyCNN()
	m.InitWeights(seed + 42)
	loss, err := Train(m, ds, Config{Epochs: 6, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	hash := func(v []float32) uint64 {
		h := fnv.New64a()
		var w [4]byte
		for _, x := range v {
			u := math.Float32bits(x)
			w[0], w[1], w[2], w[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(w[:])
		}
		return h.Sum64()
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "loss=%#016x\n", math.Float64bits(loss))
	for i, l := range m.Layers {
		if l.HasWeights() {
			fmt.Fprintf(&b, "layer=%d %s weights=%#016x bias=%#016x\n",
				i, l.Name, hash(l.Weights.Data), hash(l.Bias))
		}
	}
	golden := filepath.Join("testdata", "train.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("trained weights drifted from golden file (run with -update if intended)\n--- got ---\n%s--- want ---\n%s",
			b.Bytes(), want)
	}
}

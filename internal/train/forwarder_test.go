package train

import (
	"testing"

	"repro/internal/dnn"
)

func TestErrorWithMatchesError(t *testing.T) {
	// ErrorWith (the replica pool's reusable-Forwarder path) must agree
	// exactly with Error — the fault-injection delta is the difference of
	// two such measurements, so even a one-sample disagreement would bias
	// every campaign.
	m := dnn.TinyCNN()
	m.InitWeights(42)
	ds := Synthesize(SynthConfig{N: 120, Seed: 9, ProtoSeed: 77})
	want := Error(m, ds)
	f := dnn.NewForwarder(m)
	f.Workers = 1
	got := ErrorWith(f, ds)
	if got != want {
		t.Fatalf("ErrorWith = %v, Error = %v", got, want)
	}
	// And again on the reused Forwarder (buffers warm).
	if got2 := ErrorWith(f, ds); got2 != want {
		t.Fatalf("reused ErrorWith = %v, want %v", got2, want)
	}
	if acc := AccuracyWith(f, ds); acc != Accuracy(m, ds) {
		t.Fatalf("AccuracyWith = %v, Accuracy = %v", acc, Accuracy(m, ds))
	}
	// A pass started at any layer, fed that layer's input from the full
	// pass, counts exactly what the full pass counts.
	cut := dnn.NewForwarder(m)
	cut.Workers = 1
	for k := 1; k < len(m.Layers); k++ {
		if got := 1 - AccuracyOf(cut.ForwardFrom(k, f.Input(k)), ds); got != want {
			t.Fatalf("error from layer %d = %v, want %v", k, got, want)
		}
	}
}

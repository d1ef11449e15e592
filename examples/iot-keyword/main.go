// Deeply-embedded scenario with *measured* accuracy: train a small
// convnet (an always-on keyword/gesture-detector stand-in) on a synthetic
// task, prune + cluster it, store the encoded weights in fault-prone
// MLC-CTT, and verify with real fault-injected inference that the chosen
// configuration keeps classification error within the iso-training-noise
// bound — while an unprotected configuration visibly fails.
//
//	go run ./examples/iot-keyword
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/ares"
	"repro/internal/campaign"
	"repro/internal/dnn"
	"repro/internal/envm"
	"repro/internal/sparse"
	"repro/internal/train"
)

func main() {
	fmt.Println("Training TinyCNN on the synthetic 10-class task...")
	trainDS := train.Synthesize(train.SynthConfig{N: 800, Seed: 10, ProtoSeed: 77})
	testDS := train.Synthesize(train.SynthConfig{N: 300, Seed: 11, ProtoSeed: 77})
	m := dnn.TinyCNN()
	m.InitWeights(42)
	if _, err := train.Train(m, trainDS, train.Config{Epochs: 8, Seed: 1}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  trained accuracy: %.1f%%\n", 100*train.Accuracy(m, testDS))

	// Prune + cluster (the evaluator applies the optimized weights and
	// measures the new baseline).
	ev, err := ares.NewMeasuredEvaluator(m, testDS, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  after pruning (60%%) + 4-bit clustering: %.1f%% accuracy\n", 100*(1-ev.BaselineErr))

	// The two configurations run as one campaign: trial t of a
	// configuration measures the fault map drawn from
	// campaign.TrialSeed(99, label, t).
	const trials = 20
	badLabel, goodLabel := "BitMask, everything at MLC3, unprotected:", "BitM+IdxSync, mask at SLC, values at MLC3:"
	safe := ares.Config{Tech: envm.CTT, Encoding: sparse.KindBitMaskIdxSync,
		Default: ares.StreamPolicy{BPC: 3},
		Overrides: map[string]ares.StreamPolicy{
			"bitmask": {BPC: 1}, "idxsync": {BPC: 1},
		}}
	cfgs := map[string]ares.Config{
		badLabel: {Tech: envm.CTT, Encoding: sparse.KindBitMask,
			Default: ares.StreamPolicy{BPC: 3}},
		goodLabel: safe,
	}
	run := func(ctx context.Context, t campaign.Trial) (campaign.Sample, error) {
		delta, _, err := ev.EvalTrial(ctx, cfgs[t.Config], t.Seed)
		return campaign.Sample{Value: delta}, err
	}
	c, err := campaign.New([]string{badLabel, goodLabel}, run, campaign.Options{Seed: 99, MaxTrials: trials})
	if err != nil {
		log.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMeasured error increase over %d fault maps (MLC-CTT):\n", trials)
	for _, cr := range res.Configs {
		if len(cr.Errors) > 0 {
			log.Fatalf("%s %d failed trials, first: %v", cr.Config, len(cr.Errors), cr.Errors[0])
		}
		fmt.Printf("  %-44s mean +%.4f  worst +%.4f\n", cr.Config, cr.Mean, cr.Max)
	}
	bad, good := res.Configs[0], res.Configs[1]

	bound := m.Meta.ErrorBound
	fmt.Printf("\niso-training-noise bound: %.4f\n", bound)
	if good.Mean <= bound && bad.Mean > bound {
		fmt.Println("-> co-designed configuration is safe; naive MLC3 storage is not.")
	} else {
		fmt.Println("-> unexpected outcome; inspect fault rates and bounds.")
	}

	// Storage bill for the safe configuration.
	var cells, bits int64
	for _, cl := range ev.Clustered() {
		enc := sparse.Must(sparse.Encode(sparse.KindBitMaskIdxSync, cl.Indices, cl.Rows, cl.Cols, cl.IndexBits))
		costs := ares.Cost(enc, safe)
		cells += ares.TotalCells(costs)
		bits += ares.TotalBits(costs)
	}
	raw := int64(m.WeightCount()) * 16
	fmt.Printf("\nStorage: %d cells (%.2f KB stored) vs %.2f KB raw 16-bit -> %.1fx denser.\n",
		cells, float64(bits)/8e3, float64(raw)/8e3, float64(raw)/float64(bits))
	fmt.Printf("Write time (full model): %.3fs on CTT — acceptable for a rarely-updated device.\n",
		envm.CTT.WriteTimeSeconds(cells, 3))
}

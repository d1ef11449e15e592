package ares

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/envm"
	"repro/internal/sparse"
)

// TestLifetimeGolden pins the lifetime simulation's science: scrubbed
// deployments (the cell state persists and every rewrite bakes in the
// residual damage) and unscrubbed ones (a fresh fault map per epoch),
// under ECC + Degrade, ECC alone and no ECC, for every storage format.
// It records every EpochStats field (floats as float64 bits) plus each
// deployment's Rewrites and FirstViolation. Run with -update only when
// the science is meant to move.
func TestLifetimeGolden(t *testing.T) {
	ev := getMeasured(t)
	ctx := context.Background()
	policies := []LifetimePolicy{
		{Years: 6, ScrubIntervalYears: 2, FloorDelta: 0.05},
		{Years: 10, ScrubIntervalYears: 3, FloorDelta: 0.05},
		{Years: 6, EvalEpochs: 3, FloorDelta: 0.05},
	}
	protections := []struct {
		name         string
		ecc, degrade bool
	}{{"ecc+degrade", true, true}, {"ecc", true, false}, {"none", false, false}}
	kinds := []sparse.Kind{sparse.KindCSR, sparse.KindBitMask, sparse.KindBitMaskIdxSync, sparse.Kind24, sparse.KindDense}
	var b bytes.Buffer
	var degraded, corrected, violated int
	for _, kind := range kinds {
		for _, pr := range protections {
			cfg := Config{Tech: envm.CTT, Encoding: kind, Default: StreamPolicy{BPC: 3, ECC: pr.ecc}, Degrade: pr.degrade}
			for pi, lp := range policies {
				for _, seed := range []uint64{5, 1234} {
					res, err := ev.LifetimeTrial(ctx, cfg, lp, seed)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&b, "%v %s policy=%d seed=%d rewrites=%d first=%d worst=%#016x final=%#016x\n",
						kind, pr.name, pi, seed, res.Rewrites, res.FirstViolation,
						math.Float64bits(res.WorstDelta), math.Float64bits(res.FinalDelta))
					for _, es := range res.Epochs {
						st := es.Stats
						fmt.Fprintf(&b, "  epoch=%d age=%#016x drift=%#016x delta=%#016x floor=%v faults=%d corrected=%d detected=%d degraded=%d struct=%#016x nsr=%#016x mismatch=%#016x\n",
							es.Epoch, math.Float64bits(es.AgeYears), math.Float64bits(es.SinceScrubYears),
							math.Float64bits(es.DeltaErr), es.FloorViolated, st.Faults, st.Corrected, st.Detected,
							st.DegradedBlocks, math.Float64bits(st.StructFrac), math.Float64bits(st.ValueNSR),
							math.Float64bits(st.Mismatch))
						degraded += st.DegradedBlocks
						corrected += st.Corrected
					}
					if res.FirstViolation >= 0 {
						violated++
					}
				}
			}
		}
	}
	if degraded == 0 || corrected == 0 || violated == 0 {
		t.Fatalf("grid too mild: %d degraded blocks, %d corrections, %d floor violations", degraded, corrected, violated)
	}
	golden := filepath.Join("testdata", "lifetime.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("lifetime trials drifted from golden file (run with -update if intended)\n--- got ---\n%s--- want ---\n%s",
			b.Bytes(), want)
	}
}

package ares

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// TestXbarGolden pins the crossbar route's science: for every grid
// config, plus one 3-bit-ADC config whose shrunken full scale clips, it
// records the mapped baseline and each EvalTrial delta as float64 bits,
// plus the trial's TrialStats and ADC clip count. The parity grid
// compares two routes that share the Xbar kernels, so only a file
// written by an earlier build catches a kernel that moves bits. Run with
// -update only when the science is meant to move.
func TestXbarGolden(t *testing.T) {
	ev := getMeasured(t)
	ctx := context.Background()
	clips := telemetry.Default().Counter("crossbar.adc.clips")
	cfgs := append(xbarGridConfigs(),
		xbarCfg(crossbar.Config{Rows: 32, Cols: 16, VarSigma: 0.03, ADCBits: 3, ADCHeadroom: 0.25}))
	var b bytes.Buffer
	var clipped int64
	for ci, cfg := range cfgs {
		// Map (and measure the baseline) first, so the clip counts are
		// the trials' own whichever test warmed the cache.
		xs, err := ev.xbar(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "cfg=%d baseline=%#016x\n", ci, math.Float64bits(xs.baselineErr))
		for _, seed := range []uint64{3, 271, 88888} {
			c0 := clips.Value()
			d, st, err := ev.EvalTrial(ctx, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			n := clips.Value() - c0
			clipped += n
			fmt.Fprintf(&b, "cfg=%d seed=%d delta=%#016x clips=%d stats=%+v\n",
				ci, seed, math.Float64bits(d), n, st)
		}
	}
	if clipped == 0 {
		t.Fatal("no config clipped; the golden does not reach the ADC saturation path")
	}
	golden := filepath.Join("testdata", "xbar.golden")
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
		t.Errorf("crossbar trials drifted from golden file (run with -update if intended)\n--- got ---\n%s--- want ---\n%s",
			b.Bytes(), want)
	}
}

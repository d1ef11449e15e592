package nvsim

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/envm"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// builtinTechs is every technology the envm package defines, evaluated
// and surveyed, each once.
func builtinTechs() []envm.Tech {
	var out []envm.Tech
	seen := map[string]bool{}
	for _, t := range append(envm.Evaluated(), envm.Survey()...) {
		if !seen[t.Name] {
			seen[t.Name] = true
			out = append(out, t)
		}
	}
	return out
}

// TestCharacterizeGolden pins Characterize exactly for every built-in
// technology x supported bits per cell x target, at the capacities of
// the Table 4 anchors: the chosen organization, and area, latency,
// energy, bandwidth, leakage and write time as float64 bits. The anchor
// tests only bound these within ~2x, so a change to the swept widths,
// the column mux or a model constant shows here first. Run with -update
// only when the model is meant to move.
func TestCharacterizeGolden(t *testing.T) {
	var b bytes.Buffer
	for _, tech := range builtinTechs() {
		for bpc := 1; bpc <= tech.MaxBitsPerCell; bpc++ {
			for _, capMB := range []int64{4, 12, 32} {
				for tg := OptReadEDP; tg <= OptLeakage; tg++ {
					r := Characterize(Config{Tech: tech, BPC: bpc, CapacityBits: capMB * mb, Target: tg})
					fmt.Fprintf(&b, "%q bpc=%d cap=%dMB %s org=%dx%dx%dx%d/w%d area=%#016x lat=%#016x energy=%#016x bw=%#016x leak=%#016x write=%#016x\n",
						tech.Name, bpc, capMB, tg, r.Banks, r.Mats, r.Rows, r.Cols, r.DataWidth,
						math.Float64bits(r.AreaMM2), math.Float64bits(r.ReadLatencyNs),
						math.Float64bits(r.ReadEnergyPJ), math.Float64bits(r.ReadBandwidthGBs),
						math.Float64bits(r.LeakageMW), math.Float64bits(r.WriteTimeSec))
				}
			}
		}
	}
	golden := filepath.Join("testdata", "characterize.golden")
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
		t.Errorf("Characterize drifted from golden file (run with -update if intended)\n--- got ---\n%s--- want ---\n%s",
			b.Bytes(), want)
	}
}

package envm

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// TestFaultMapGolden pins StoreConfig.FaultMap exactly for every
// built-in technology x supported bits per cell x retention age {0, 1,
// 10} years: each level's PUp and PDown as float64 bits. It covers the
// sense-amp widening, the retention drift and the defect floor that
// every fault-injection and design-space result starts from. Run with
// -update only when the device model is meant to move.
func TestFaultMapGolden(t *testing.T) {
	var b bytes.Buffer
	seen := map[string]bool{}
	for _, tech := range append(Evaluated(), Survey()...) {
		if seen[tech.Name] {
			continue
		}
		seen[tech.Name] = true
		for bpc := 1; bpc <= tech.MaxBitsPerCell; bpc++ {
			for _, years := range []float64{0, 1, 10} {
				fm := StoreConfig{Tech: tech, BPC: bpc, RetentionYears: years}.FaultMap()
				fmt.Fprintf(&b, "%q bpc=%d years=%g", tech.Name, bpc, years)
				for l := range fm.PUp {
					fmt.Fprintf(&b, " L%d=%#016x/%#016x", l, math.Float64bits(fm.PUp[l]), math.Float64bits(fm.PDown[l]))
				}
				b.WriteByte('\n')
			}
		}
	}
	golden := filepath.Join("testdata", "faultmap.golden")
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
		t.Errorf("FaultMap drifted from golden file (run with -update if intended)\n--- got ---\n%s--- want ---\n%s",
			b.Bytes(), want)
	}
}

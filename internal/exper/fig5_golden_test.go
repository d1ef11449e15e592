package exper

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// TestFig5Golden pins Figure 5's science: the exact report `maxnvm fig5`
// prints at seed 1 with the default budget (every configuration, 12
// trials each). The campaign folds trials in input order, so the text is
// independent of the worker count. Run with -update only when the
// science is meant to move, and regenerate EXPERIMENTS.md's Figure 5
// table from the new file.
func TestFig5Golden(t *testing.T) {
	var b bytes.Buffer
	if err := NewEnv(1).Fig5(context.Background(), &b, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fig5.golden")
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
		t.Errorf("Figure 5 drifted from golden file (run with -update if intended)\n--- got ---\n%s--- want ---\n%s",
			b.Bytes(), want)
	}
}

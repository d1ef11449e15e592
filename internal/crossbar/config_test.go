package crossbar

import (
	"math"
	"strings"
	"testing"

	"repro/internal/envm"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Rows: 64, Cols: 64}
	if err := good.Validate(); err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
	bad := []Config{
		{Rows: 0, Cols: 64},
		{Rows: 64, Cols: 0},
		{Rows: -8, Cols: 64},
		{Rows: 64, Cols: 64, BPC: 5},
		{Rows: 64, Cols: 64, BPC: -1},
		{Rows: 64, Cols: 64, ADCBits: 17},
		{Rows: 64, Cols: 64, ADCBits: -1},
		{Rows: 64, Cols: 64, SpareCols: -1},
		{Rows: 64, Cols: 64, MaxRemaps: -2},
		{Rows: 64, Cols: 64, VarSigma: math.NaN()},
		{Rows: 64, Cols: 64, VarSigma: math.Inf(1)},
		{Rows: 64, Cols: 64, VarSigma: -0.01},
		{Rows: 64, Cols: 64, StuckRate: 1.5},
		{Rows: 64, Cols: 64, StuckRate: math.NaN()},
		{Rows: 64, Cols: 64, StuckColRate: -1},
		{Rows: 64, Cols: 64, ADCHeadroom: math.NaN()},
		{Rows: 64, Cols: 64, DetectSigma: -3},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, c)
		}
	}
}

func TestConfigString(t *testing.T) {
	if s := (Config{Rows: 64, Cols: 32}).String(); s != "64x32" {
		t.Fatalf("minimal String = %q", s)
	}
	full := Config{Rows: 128, Cols: 64, BPC: 2, VarSigma: 0.05, StuckRate: 1e-4,
		StuckColRate: 1e-3, ADCBits: 6, SpareCols: 2, DetectSigma: 4, MaxRemaps: 32}
	s := full.String()
	for _, want := range []string{"128x64", "b2", "s0.05", "f0.0001", "cf0.001", "adc6", "sp2", "d4", "r32"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
	// The string is an identity: distinct configs must render distinct.
	other := full
	other.DetectSigma = 3
	if other.String() == full.String() {
		t.Fatal("distinct configs share a String")
	}
}

func TestConfigMapKey(t *testing.T) {
	a := Config{Rows: 64, Cols: 64, BPC: 2, ADCBits: 6, VarSigma: 0.1, StuckColRate: 1e-3, DetectSigma: 4}
	b := Config{Rows: 64, Cols: 64, BPC: 2, ADCBits: 6, VarSigma: 0.02, SpareCols: 4}
	if a.MapKey() != b.MapKey() {
		t.Fatalf("fault knobs leaked into MapKey: %q vs %q", a.MapKey(), b.MapKey())
	}
	c := Config{Rows: 32, Cols: 64, BPC: 2, ADCBits: 6}
	if a.MapKey() == c.MapKey() {
		t.Fatal("tile geometry missing from MapKey")
	}
	d := Config{Rows: 64, Cols: 64, BPC: 2, ADCBits: 8}
	if a.MapKey() == d.MapKey() {
		t.Fatal("ADC design missing from MapKey")
	}
}

func TestDeriveSigma(t *testing.T) {
	sig, err := DeriveSigma(envm.CTT)
	if err != nil {
		t.Fatal(err)
	}
	if sig <= 0 || sig >= 0.5 {
		t.Fatalf("derived sigma %v implausible for a fabricated technology", sig)
	}
	// BPC-invariance: the programmed-level sigma is device physics, not
	// grid spacing.
	lm3, err := envm.CTT.Levels(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := lm3.Levels[len(lm3.Levels)-1].Sigma; math.Abs(got-sig) > 1e-12 {
		t.Fatalf("sigma differs across BPC: %v vs %v", got, sig)
	}
}

package envm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

const sampleTechJSON = `{
  "Name": "MyFeRAM-22nm",
  "NodeNM": 22,
  "CellAreaF2": 20,
  "MaxBitsPerCell": 2,
  "ReadLatencyNs": 3,
  "WriteLatencyNs": 50,
  "WriteParallelism": 1024,
  "ReadEnergyPJPerBit": 0.5,
  "WriteEnergyPJPerCell": 10,
  "LeakagePWPerCell": 0.01,
  "MLC3FaultRate": 5e-5
}`

func TestLoadTech(t *testing.T) {
	tech, err := LoadTech(strings.NewReader(sampleTechJSON))
	if err != nil {
		t.Fatal(err)
	}
	if tech.Name != "MyFeRAM-22nm" || tech.NodeNM != 22 {
		t.Errorf("parsed %+v", tech)
	}
	// Defaults filled in.
	if tech.RetentionFloorBase != 1e-10 || tech.Level0SigmaFactor != 1 || tech.EnduranceCycles != 1e6 {
		t.Errorf("defaults missing: %+v", tech)
	}
	// Resulting tech is fully usable in the fault model.
	lm := mustLevels(tech.Levels(2))
	if lm.NumLevels() != 4 {
		t.Error("custom tech level model broken")
	}
	if lm.WorstAdjacentFault() <= 0 {
		t.Error("custom tech fault map degenerate")
	}
}

func TestLoadTechRejectsUnknownFields(t *testing.T) {
	bad := `{"Name":"x","NodeNM":22,"CellAreaF2":20,"MaxBitsPerCell":2,"Typo":1}`
	if _, err := LoadTech(strings.NewReader(bad)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestLoadTechRejectsInvalid(t *testing.T) {
	bad := `{"Name":"x","NodeNM":-5,"CellAreaF2":20,"MaxBitsPerCell":2}`
	if _, err := LoadTech(strings.NewReader(bad)); err == nil {
		t.Error("invalid geometry accepted")
	}
}

// A negative optional field is a broken definition, not a request for
// the default: the loader must refuse it instead of silently
// substituting (zero still means "default").
func TestLoadTechRejectsNegativeOptionalFields(t *testing.T) {
	base := `{"Name":"x","NodeNM":22,"CellAreaF2":20,"MaxBitsPerCell":2,` +
		`"ReadLatencyNs":3,"WriteLatencyNs":50,"ReadEnergyPJPerBit":0.5,` +
		`"WriteEnergyPJPerCell":10,"LeakagePWPerCell":0.01,%s}`
	for _, field := range []string{
		`"EnduranceCycles":-1`,
		`"RetentionFloorBase":-1e-10`,
		`"Level0SigmaFactor":-2`,
		`"MLC3FaultRate":-5e-5`,
		`"WriteParallelism":-8`,
	} {
		def := fmt.Sprintf(base, field)
		if _, err := LoadTech(strings.NewReader(def)); err == nil {
			t.Errorf("negative optional field accepted: %s", field)
		}
	}
	// The same fields at zero still take the documented defaults.
	ok, err := LoadTech(strings.NewReader(fmt.Sprintf(base, `"EnduranceCycles":0`)))
	if err != nil {
		t.Fatalf("zero optional field rejected: %v", err)
	}
	if ok.EnduranceCycles != 1e6 {
		t.Errorf("zero endurance did not default: %+v", ok.EnduranceCycles)
	}
}

func TestCheckTechSketchRejectsNaN(t *testing.T) {
	// JSON cannot encode NaN, but the sketch check also guards direct
	// callers; exercise it through the exported surface's helper.
	bad := Tech{Name: "nan", EnduranceCycles: math.NaN()}
	if err := checkTechSketch(bad); err == nil {
		t.Error("NaN endurance accepted")
	}
	bad = Tech{Name: "nan", RetentionFloorBase: math.NaN()}
	if err := checkTechSketch(bad); err == nil {
		t.Error("NaN retention floor accepted")
	}
	bad = Tech{Name: "nan", Level0SigmaFactor: math.NaN()}
	if err := checkTechSketch(bad); err == nil {
		t.Error("NaN sigma factor accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	def, err := json.MarshalIndent(CTT, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadTech(bytes.NewReader(def))
	if err != nil {
		t.Fatal(err)
	}
	if back != CTT {
		t.Errorf("round trip differs:\n%+v\n%+v", back, CTT)
	}
}

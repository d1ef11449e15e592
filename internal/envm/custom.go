package envm

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Custom technology definitions (the NVMExplorer-style workflow the
// authors pursued after this paper): users describe a prospective eNVM in
// JSON and run the full MaxNVM co-design against it — fault modeling,
// array characterization, exploration, system study — without touching
// code.
//
// Example definition:
//
//	{
//	  "Name": "MyFeRAM-22nm",
//	  "NodeNM": 22,
//	  "CellAreaF2": 20,
//	  "MaxBitsPerCell": 2,
//	  "ReadLatencyNs": 3,
//	  "WriteLatencyNs": 50,
//	  "WriteParallelism": 1024,
//	  "ReadEnergyPJPerBit": 0.5,
//	  "WriteEnergyPJPerCell": 10,
//	  "LeakagePWPerCell": 0.01,
//	  "MLC3FaultRate": 5e-5,
//	  "RetentionFloorBase": 1e-10,
//	  "EnduranceCycles": 1e9
//	}

// LoadTech reads one technology definition from JSON and validates it.
func LoadTech(r io.Reader) (Tech, error) {
	var t Tech
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return Tech{}, fmt.Errorf("envm: parsing tech definition: %w", err)
	}
	if err := checkTechSketch(t); err != nil {
		return Tech{}, err
	}
	applyTechDefaults(&t)
	if err := t.Validate(); err != nil {
		return Tech{}, err
	}
	return t, nil
}

// checkTechSketch rejects nonsense in the optional fields BEFORE the
// defaults fill them in. Zero still means "use the default", but a NaN
// or negative EnduranceCycles, RetentionFloorBase, sigma factor, fault
// rate, or write parallelism is a broken definition, not a request for
// the default — silently substituting one would mask the author's bug
// (and a negative endurance would quietly disable every scrub budget
// downstream).
func checkTechSketch(t Tech) error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MLC3FaultRate", t.MLC3FaultRate},
		{"RetentionFloorBase", t.RetentionFloorBase},
		{"Level0SigmaFactor", t.Level0SigmaFactor},
		{"EnduranceCycles", t.EnduranceCycles},
		{"WriteParallelism", float64(t.WriteParallelism)},
	} {
		if math.IsNaN(f.v) {
			return fmt.Errorf("envm: tech %s: %s is NaN", t.Name, f.name)
		}
		if f.v < 0 {
			return fmt.Errorf("envm: tech %s: %s %g must not be negative (omit or zero it for the default)", t.Name, f.name, f.v)
		}
	}
	return nil
}

// applyTechDefaults fills optional fields a prospective-technology sketch
// usually omits.
func applyTechDefaults(t *Tech) {
	if t.MLC3FaultRate == 0 {
		t.MLC3FaultRate = 1e-4
	}
	if t.RetentionFloorBase == 0 {
		t.RetentionFloorBase = 1e-10
	}
	if t.Level0SigmaFactor == 0 {
		t.Level0SigmaFactor = 1
	}
	if t.WriteParallelism == 0 {
		t.WriteParallelism = 1024
	}
	if t.EnduranceCycles == 0 {
		t.EnduranceCycles = 1e6
	}
}

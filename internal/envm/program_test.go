package envm

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestSimulateProgrammingBasics(t *testing.T) {
	src := stats.NewSource(1)
	st := DefaultProgram.SimulateProgramming(0.5, 2000, src)
	if st.MeanPulses <= 0 {
		t.Fatal("no pulses")
	}
	// Roughly target/pulseMean pulses expected.
	want := 0.5 / DefaultProgram.PulseMean
	if st.MeanPulses < want*0.7 || st.MeanPulses > want*1.5 {
		t.Errorf("mean pulses %.1f, expected ~%.1f", st.MeanPulses, want)
	}
	// One-sided stop rule: overshoot is positive and bounded by ~a pulse.
	finals, pulses := programFinals(DefaultProgram, 0.5, 2000, stats.NewSource(1))
	ref := stats.Summarize(finals)
	if pulses != st.MeanPulses || ref.Std != st.AchievedSigma {
		t.Errorf("reference loop: pulses %v sigma %v, SimulateProgramming: %v %v",
			pulses, ref.Std, st.MeanPulses, st.AchievedSigma)
	}
	if over := ref.Mean - 0.5; over < 0 || over > 3*DefaultProgram.PulseMean {
		t.Errorf("overshoot %.4f out of range", over)
	}
	// Programmed distribution is tighter than the raw pulse spread would
	// suggest thanks to the verify loop.
	if st.AchievedSigma <= 0 || st.AchievedSigma > 0.05 {
		t.Errorf("achieved sigma %.4f implausible", st.AchievedSigma)
	}
}

func TestWritePrecisionTradeoff(t *testing.T) {
	pts := WritePrecisionTradeoff(DefaultProgram, 0.5, 1500, []float64{0.01, 0.02, 0.05, 0.1}, 7)
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// Smaller pulses: more pulses (slower write), tighter distribution.
	for i := 1; i < len(pts); i++ {
		if pts[i].MeanPulses >= pts[i-1].MeanPulses {
			t.Errorf("pulse count should fall with larger pulses: %+v", pts)
		}
		if pts[i].AchievedSigma <= pts[i-1].AchievedSigma {
			t.Errorf("sigma should grow with larger pulses: %+v", pts)
		}
	}
}

func TestSimulateProgrammingPanicsOnBadCells(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultProgram.SimulateProgramming(0.5, 0, stats.NewSource(1))
}

func TestRetentionDriftRaisesFaults(t *testing.T) {
	fresh := CTT.RetentionFaultRate(3, 0)
	aged := CTT.RetentionFaultRate(3, 10)
	if aged <= fresh {
		t.Errorf("drift should raise fault rates: fresh %.3g aged %.3g", fresh, aged)
	}
	// Drift is a second-order effect on CTT's already-wide MLC3 levels:
	// under 10 years it must not explode by orders of magnitude.
	if aged > 100*fresh {
		t.Errorf("10-year drift blew up fault rate %.3g -> %.3g", fresh, aged)
	}
}

func TestRetentionDriftMonotone(t *testing.T) {
	prev := 0.0
	for _, years := range []float64{0, 1, 5, 10, 20} {
		r := OptRRAM.RetentionFaultRate(3, years)
		if r < prev {
			t.Fatalf("fault rate not monotone in retention time at %v years", years)
		}
		prev = r
	}
}

func TestLevelsAfterZeroYearsIdentity(t *testing.T) {
	a := mustLevels(CTT.Levels(2))
	b := mustLevels(CTT.LevelsAfter(2, 0))
	for i := range a.Levels {
		if a.Levels[i] != b.Levels[i] {
			t.Fatal("zero-year drift changed levels")
		}
	}
}

// programFinals is the program-and-verify loop of SimulateProgramming,
// returning every cell's final level and the mean pulse count, so tests
// can check the distribution's mean, which ProgramStats does not report.
func programFinals(pm ProgramModel, target float64, cells int, src *stats.Source) ([]float64, float64) {
	finals := make([]float64, cells)
	var pulseSum float64
	for c := range finals {
		level, pulses := 0.0, 0
		for pulses <= 10000 && level+src.Gaussian(0, pm.VerifyNoise) < target {
			level += math.Max(src.Gaussian(pm.PulseMean, pm.PulseSigma), 0)
			pulses++
		}
		finals[c] = level
		pulseSum += float64(pulses)
	}
	return finals, pulseSum / float64(cells)
}

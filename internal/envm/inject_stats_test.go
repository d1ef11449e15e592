package envm

// Statistical acceptance tests for the fault injector: on large arrays
// the observed fault count must land inside the 4-sigma binomial
// interval around expectedFaults, every fault must move a level to an
// adjacent one, and the up/down transition split must match the fault
// map's conditional direction probabilities. The seeds are pinned, so a
// run is deterministic: a failure means the injector's sampling (or the
// expectedFaults contract) changed, not that the dice came up wrong.

import (
	"math"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/ecc"
	"repro/internal/stats"
)

// expectedFaults returns the expected number of faulted cells when a
// stream of the given bit length is stored under cfg, assuming levels are
// uniformly distributed (a good approximation for clustered weight
// indices and mask data).
func expectedFaults(bits int64, cfg StoreConfig) float64 {
	return float64(CellsFor(bits, cfg.BPC)) * cfg.FaultMap().TotalRate()
}

// grayRecode converts an array written under one level mapping to the
// other in place: with toGray=true each BPC-bit symbol v becomes Gray(v)
// (i.e. the bits that will be programmed as level GrayInv(...) = v).
func grayRecode(a *bitstream.Array, bpc int, toGray bool) {
	nCells := int(CellsFor(int64(a.Len()), bpc))
	for i := 0; i < nCells; i++ {
		v := a.GetBits(i*bpc, bpc)
		if toGray {
			v = ecc.Gray(v)
		} else {
			v = ecc.GrayInv(v)
		}
		a.SetBits(i*bpc, bpc, v)
	}
}

// fillUniformLevels programs every cell with a uniformly distributed
// level, encoded under the config's level mapping, and returns the
// array.
func fillUniformLevels(nCells int, cfg StoreConfig, src *stats.Source) *bitstream.Array {
	a := bitstream.New(nCells * cfg.BPC)
	nLevels := uint64(1) << uint(cfg.BPC)
	for i := 0; i < nCells; i++ {
		level := src.Uint64() % nLevels
		sym := level
		if cfg.Gray {
			sym = ecc.Gray(level)
		}
		a.SetBits(i*cfg.BPC, cfg.BPC, sym)
	}
	return a
}

// levelOf reads back the stored level of cell i under the config's
// mapping.
func levelOf(a *bitstream.Array, i int, cfg StoreConfig) uint64 {
	sym := a.GetBits(i*cfg.BPC, cfg.BPC)
	if cfg.Gray {
		return ecc.GrayInv(sym)
	}
	return sym
}

// binomial4Sigma reports whether observed is within 4 standard
// deviations of a Binomial(n, p) mean.
func binomial4Sigma(observed, n int, p float64) (ok bool, mean, sigma float64) {
	mean = float64(n) * p
	sigma = math.Sqrt(float64(n) * p * (1 - p))
	return math.Abs(float64(observed)-mean) <= 4*sigma, mean, sigma
}

// injectStatCase drives one (config, size, seed) statistical check.
func injectStatCase(t *testing.T, cfg StoreConfig, nCells int, seed uint64) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	src := stats.NewSource(seed)
	a := fillUniformLevels(nCells, cfg, src.Fork(1))
	pristine := a.Clone()

	faults := InjectArray(a, cfg, src.Fork(2))

	// 1. Fault count within 4 sigma of the expectedFaults contract.
	// Levels are uniform by construction, which is exactly the
	// assumption expectedFaults documents, so the per-cell fault
	// probability is the fault map's TotalRate.
	fm := cfg.FaultMap()
	p := fm.TotalRate()
	want := expectedFaults(int64(nCells*cfg.BPC), cfg)
	if math.Abs(want-float64(nCells)*p) > 1e-9*want {
		t.Fatalf("expectedFaults %.3f != nCells*TotalRate %.3f", want, float64(nCells)*p)
	}
	if want < 100 {
		t.Fatalf("test config too weak: only %.1f expected faults", want)
	}
	if ok, mean, sigma := binomial4Sigma(faults, nCells, p); !ok {
		t.Errorf("fault count %d outside 4-sigma interval %.1f ± %.1f", faults, mean, 4*sigma)
	}

	// 2. Every fault is an adjacent-level transition; count directions.
	ups, downs := 0, 0
	nLevels := 1 << uint(cfg.BPC)
	for i := 0; i < nCells; i++ {
		before := levelOf(pristine, i, cfg)
		after := levelOf(a, i, cfg)
		switch {
		case after == before:
		case after == before+1 && before < uint64(nLevels-1):
			ups++
		case before > 0 && after == before-1:
			downs++
		default:
			t.Fatalf("cell %d: non-adjacent transition %d -> %d", i, before, after)
		}
	}
	if ups+downs != faults {
		t.Errorf("transition count %d+%d != reported faults %d", ups, downs, faults)
	}

	// 3. Direction split matches the map's conditional up probability
	// P(up | fault) = sum(PUp) / sum(PUp + PDown) under uniform levels.
	var sumUp, sumTot float64
	for l := 0; l < fm.NumLevels(); l++ {
		sumUp += fm.PUp[l]
		sumTot += fm.PUp[l] + fm.PDown[l]
	}
	pUp := sumUp / sumTot
	if ok, mean, sigma := binomial4Sigma(ups, faults, pUp); !ok {
		t.Errorf("up-transitions %d of %d outside 4-sigma interval %.1f ± %.1f",
			ups, faults, mean, 4*sigma)
	}
}

// hotTech is CTT pushed to an MLC3 fault rate of 5% so that the MLC2
// derived rates are large enough to test statistically (the real
// technologies' MLC2 rates are below 1e-8: zero faults at any feasible
// array size).
func hotTech() Tech {
	t := CTT
	t.Name = "HOT-CTT"
	t.MLC3FaultRate = 0.05
	return t
}

func TestInjectArrayStatisticsMLC3(t *testing.T) {
	injectStatCase(t, StoreConfig{Tech: CTT, BPC: 3}, 2<<20, 0xC0FFEE01)
}

func TestInjectArrayStatisticsMLC3Gray(t *testing.T) {
	injectStatCase(t, StoreConfig{Tech: CTT, BPC: 3, Gray: true}, 2<<20, 0xC0FFEE02)
}

func TestInjectArrayStatisticsMLC2(t *testing.T) {
	injectStatCase(t, StoreConfig{Tech: hotTech(), BPC: 2}, 4<<20, 0xC0FFEE03)
}

func TestInjectArrayStatisticsMLC2Gray(t *testing.T) {
	injectStatCase(t, StoreConfig{Tech: hotTech(), BPC: 2, Gray: true}, 4<<20, 0xC0FFEE04)
}

func TestInjectArrayStatisticsRetention(t *testing.T) {
	// A 5-year-old MLC-RRAM array: drift widens the level distributions,
	// so the aged rate must exceed the fresh one, and the aged injection
	// must still match its own expectedFaults.
	fresh := StoreConfig{Tech: MLCRRAM, BPC: 3}
	aged := StoreConfig{Tech: MLCRRAM, BPC: 3, RetentionYears: 5}
	if aged.FaultMap().TotalRate() <= fresh.FaultMap().TotalRate() {
		t.Fatalf("retention drift did not raise the fault rate (fresh %.3g, aged %.3g)",
			fresh.FaultMap().TotalRate(), aged.FaultMap().TotalRate())
	}
	injectStatCase(t, aged, 2<<20, 0xC0FFEE05)
}

// TestGrayRecodeRoundTripAllWidths checks grayRecode is an involution
// pair for every supported cell width: a random array recoded to Gray
// and back is bit-identical (the bpc=3 case is also covered by the
// older TestGrayRecodeRoundTrip in envm_test.go).
func TestGrayRecodeRoundTripAllWidths(t *testing.T) {
	src := stats.NewSource(99)
	for bpc := 1; bpc <= 4; bpc++ {
		nCells := 4096
		a := bitstream.New(nCells * bpc)
		for i := 0; i < nCells; i++ {
			a.SetBits(i*bpc, bpc, src.Uint64()&((1<<uint(bpc))-1))
		}
		orig := a.Clone()
		grayRecode(a, bpc, true)
		if bpc > 1 && a.Equal(orig) {
			t.Errorf("bpc=%d: Gray recode left the array unchanged", bpc)
		}
		grayRecode(a, bpc, false)
		if !a.Equal(orig) {
			t.Errorf("bpc=%d: Gray round trip is not the identity (%d bits differ)",
				bpc, a.DiffBits(orig))
		}
	}
}

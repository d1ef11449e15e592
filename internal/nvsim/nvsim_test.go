package nvsim

import (
	"math"
	"testing"

	"repro/internal/envm"
)

const mb = int64(8e6) // bits per decimal MB

func TestCharacterizeBasics(t *testing.T) {
	r := Characterize(Config{Tech: envm.CTT, BPC: 2, CapacityBits: 12 * mb, Target: OptReadEDP})
	if r.AreaMM2 <= 0 || r.ReadLatencyNs <= 0 || r.ReadEnergyPJ <= 0 || r.ReadBandwidthGBs <= 0 {
		t.Fatalf("non-positive metrics: %+v", r)
	}
	if r.Tech != "MLC-CTT" || r.BPC != 2 {
		t.Error("result metadata wrong")
	}
}

func TestAreaMonotoneInCapacity(t *testing.T) {
	prev := 0.0
	for _, capMB := range []int64{1, 4, 12, 32} {
		r := Characterize(Config{Tech: envm.CTT, BPC: 3, CapacityBits: capMB * mb, Target: OptArea})
		if r.AreaMM2 <= prev {
			t.Errorf("area not monotone at %dMB: %v <= %v", capMB, r.AreaMM2, prev)
		}
		prev = r.AreaMM2
	}
}

func TestMLCShrinksArea(t *testing.T) {
	slc := Characterize(Config{Tech: envm.CTT, BPC: 1, CapacityBits: 12 * mb, Target: OptArea})
	mlc3 := Characterize(Config{Tech: envm.CTT, BPC: 3, CapacityBits: 12 * mb, Target: OptArea})
	ratio := slc.AreaMM2 / mlc3.AreaMM2
	if ratio < 2.2 || ratio > 3.2 {
		t.Errorf("MLC3 area benefit = %.2fx, want ~2.5-3x", ratio)
	}
}

func TestMLCSensingLatencyPenalty(t *testing.T) {
	// Section 5.2: the latency overhead of MLC sensing tends to negate
	// the bandwidth increase of MLC storage.
	slc := Characterize(Config{Tech: envm.MLCRRAM, BPC: 1, CapacityBits: 4 * mb, Target: OptReadLatency})
	mlc := Characterize(Config{Tech: envm.MLCRRAM, BPC: 3, CapacityBits: 4 * mb, Target: OptReadLatency})
	if mlc.ReadLatencyNs <= slc.ReadLatencyNs {
		t.Errorf("MLC3 latency %.2f <= SLC %.2f", mlc.ReadLatencyNs, slc.ReadLatencyNs)
	}
}

func TestTable4AreaAnchors(t *testing.T) {
	// Paper Table 4 areas (mm²), read-EDP optimal. Our analytical model
	// must land within ~2x of each anchor (shape contract per DESIGN.md).
	cases := []struct {
		tech  envm.Tech
		bpc   int
		capMB int64
		want  float64
	}{
		{envm.CTT, 2, 12, 1.0},      // ResNet50
		{envm.OptRRAM, 2, 12, 0.6},  // ResNet50
		{envm.MLCRRAM, 2, 12, 2.8},  // ResNet50
		{envm.SLCRRAM, 1, 12, 9.6},  // ResNet50
		{envm.CTT, 3, 32, 2.0},      // VGG16
		{envm.OptRRAM, 3, 32, 1.3},  // VGG16
		{envm.SLCRRAM, 1, 32, 19.2}, // VGG16
		{envm.CTT, 2, 4, 0.35},      // VGG12
		{envm.OptRRAM, 3, 4, 0.12},  // VGG12
		{envm.SLCRRAM, 1, 4, 3.4},   // VGG12
	}
	for _, c := range cases {
		r := Characterize(Config{Tech: c.tech, BPC: c.bpc, CapacityBits: c.capMB * mb, Target: OptReadEDP})
		ratio := r.AreaMM2 / c.want
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("%s %dbpc %dMB: area %.2f mm², paper %.2f (ratio %.2f)",
				c.tech.Name, c.bpc, c.capMB, r.AreaMM2, c.want, ratio)
		}
	}
}

func TestTable4LatencyAnchors(t *testing.T) {
	cases := []struct {
		tech  envm.Tech
		bpc   int
		capMB int64
		want  float64
	}{
		{envm.CTT, 2, 12, 1.9},
		{envm.CTT, 3, 32, 2.0},
		{envm.OptRRAM, 3, 32, 4.2},
		{envm.MLCRRAM, 3, 32, 3.2},
		{envm.SLCRRAM, 1, 32, 5.2},
	}
	for _, c := range cases {
		r := Characterize(Config{Tech: c.tech, BPC: c.bpc, CapacityBits: c.capMB * mb, Target: OptReadEDP})
		ratio := r.ReadLatencyNs / c.want
		if ratio < 0.35 || ratio > 3 {
			t.Errorf("%s %dbpc %dMB: latency %.2f ns, paper %.2f (ratio %.2f)",
				c.tech.Name, c.bpc, c.capMB, r.ReadLatencyNs, c.want, ratio)
		}
	}
}

func TestCTTBeatsRRAMOnEnergy(t *testing.T) {
	// Figure 8 right: MLC-CTT read energy is lower than even optimistic
	// RRAM by over 4x.
	ctt := Characterize(Config{Tech: envm.CTT, BPC: 2, CapacityBits: 12 * mb, Target: OptReadEDP})
	opt := Characterize(Config{Tech: envm.OptRRAM, BPC: 2, CapacityBits: 12 * mb, Target: OptReadEDP})
	if opt.EnergyPerBitPJ() < 3*ctt.EnergyPerBitPJ() {
		t.Errorf("CTT %.3f pJ/b vs Opt RRAM %.3f pJ/b: want >=3x gap",
			ctt.EnergyPerBitPJ(), opt.EnergyPerBitPJ())
	}
}

func TestTargetsOptimizeTheirMetric(t *testing.T) {
	base := Config{Tech: envm.CTT, BPC: 2, CapacityBits: 8 * mb}
	area := Characterize(withTarget(base, OptArea))
	lat := Characterize(withTarget(base, OptReadLatency))
	energy := Characterize(withTarget(base, OptReadEnergy))
	if area.AreaMM2 > lat.AreaMM2 || area.AreaMM2 > energy.AreaMM2 {
		t.Error("OptArea did not minimize area")
	}
	if lat.ReadLatencyNs > area.ReadLatencyNs || lat.ReadLatencyNs > energy.ReadLatencyNs {
		t.Error("OptReadLatency did not minimize latency")
	}
	if energy.ReadEnergyPJ > area.ReadEnergyPJ || energy.ReadEnergyPJ > lat.ReadEnergyPJ {
		t.Error("OptReadEnergy did not minimize energy")
	}
}

func withTarget(c Config, t Target) Config { c.Target = t; return c }

func TestSweepCoversSpace(t *testing.T) {
	pts, err := Sweep(Config{Tech: envm.CTT, BPC: 2, CapacityBits: 4 * mb})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(bankChoices)*len(matChoices)*len(widthChoices) {
		t.Errorf("sweep size %d", len(pts))
	}
}

func TestParetoFrontier(t *testing.T) {
	pts, err := Sweep(Config{Tech: envm.MLCRRAM, BPC: 2, CapacityBits: 4 * mb})
	if err != nil {
		t.Fatal(err)
	}
	front := Pareto(pts)
	if len(front) == 0 || len(front) >= len(pts) {
		t.Fatalf("frontier size %d of %d", len(front), len(pts))
	}
	// No frontier point dominates another.
	for i, p := range front {
		for j, q := range front {
			if i == j {
				continue
			}
			if q.AreaMM2 <= p.AreaMM2 && q.ReadLatencyNs <= p.ReadLatencyNs &&
				q.ReadEnergyPJ <= p.ReadEnergyPJ &&
				(q.AreaMM2 < p.AreaMM2 || q.ReadLatencyNs < p.ReadLatencyNs || q.ReadEnergyPJ < p.ReadEnergyPJ) {
				t.Fatal("frontier contains dominated point")
			}
		}
	}
}

func TestFig1SurveyOrdering(t *testing.T) {
	// Figure 1 for 4MB arrays: crossbar RRAM has by far the worst read
	// latency; CTT and STT the best; PCM in between.
	lat := func(tech envm.Tech) float64 {
		return Characterize(Config{Tech: tech, BPC: 1, CapacityBits: 4 * mb, Target: OptReadEDP}).ReadLatencyNs
	}
	crossbar := lat(envm.RRAM24Crossbar)
	ctt := lat(envm.CTT)
	pcm := lat(envm.PCM90)
	stt := lat(envm.STT28)
	if crossbar < 100*ctt {
		t.Errorf("crossbar %.1f ns should be >> CTT %.1f ns", crossbar, ctt)
	}
	if pcm < ctt || pcm > crossbar {
		t.Errorf("PCM %.1f ns should sit between CTT %.1f and crossbar %.1f", pcm, ctt, crossbar)
	}
	if stt > 2*ctt+5 {
		t.Errorf("STT %.1f ns should be close to CTT %.1f", stt, ctt)
	}
}

func TestMaxCapacityWithinArea(t *testing.T) {
	capBits := MaxCapacityWithinArea(envm.CTT, 2, OptReadEDP, 1.0)
	if capBits <= 0 {
		t.Fatal("no capacity fits in 1mm²")
	}
	r := Characterize(Config{Tech: envm.CTT, BPC: 2, CapacityBits: capBits, Target: OptReadEDP})
	if r.AreaMM2 > 1.0 {
		t.Errorf("returned capacity overflows area: %.3f mm²", r.AreaMM2)
	}
	// The next step up must not fit.
	r2 := Characterize(Config{Tech: envm.CTT, BPC: 2, CapacityBits: capBits + 2<<20, Target: OptReadEDP})
	if r2.AreaMM2 <= 1.0 {
		t.Error("MaxCapacityWithinArea undershot")
	}
}

func TestWriteTimePropagated(t *testing.T) {
	r := Characterize(Config{Tech: envm.CTT, BPC: 2, CapacityBits: 12 * mb, Target: OptReadEDP})
	if r.WriteTimeSec < 60 {
		t.Errorf("CTT write time %.1fs, want minutes", r.WriteTimeSec)
	}
}

func TestSRAMModel(t *testing.T) {
	s := DefaultSRAM
	if a := s.AreaMM2(1e6); math.Abs(a-1) > 1e-9 {
		t.Errorf("1MB SRAM = %v mm², want 1", a)
	}
	if c := s.CapacityBytes(2); c != 2e6 {
		t.Errorf("2mm² = %d bytes", c)
	}
	if s.LeakageMW(2e6) != 16 {
		t.Error("leakage wrong")
	}
	// Table 3 anchor: 512KB -> ~6 GB/s.
	if bw := s.BandwidthGBs(512 * 1024); math.Abs(bw-6) > 1 {
		t.Errorf("512KB bandwidth = %.1f GB/s, want ~6", bw)
	}
	// 2MB -> ~25 GB/s.
	if bw := s.BandwidthGBs(2 * 1024 * 1024); math.Abs(bw-25) > 5 {
		t.Errorf("2MB bandwidth = %.1f GB/s, want ~25", bw)
	}
}

func TestTargetString(t *testing.T) {
	if OptReadEDP.String() != "ReadEDP" || OptArea.String() != "Area" {
		t.Error("target strings wrong")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Characterize(Config{Tech: envm.SLCRRAM, BPC: 3, CapacityBits: mb})
}

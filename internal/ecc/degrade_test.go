package ecc

import (
	"testing"

	"repro/internal/bitstream"
	"repro/internal/stats"
)

// randomData builds an nbits array with ~50% density.
func randomData(nbits int, seed uint64) *bitstream.Array {
	data := bitstream.New(nbits)
	src := stats.NewSource(seed)
	for i := 0; i < nbits; i++ {
		if src.Bernoulli(0.5) {
			data.SetBit(i, 1)
		}
	}
	return data
}

func TestCorrectReportMatchesCorrect(t *testing.T) {
	data := randomData(500, 7)
	p := NewBlockCode(64).Protect(data)
	// One single-bit error in block 0, a double error in block 2.
	data.FlipBit(3)
	data.FlipBit(2*64 + 5)
	data.FlipBit(2*64 + 40)
	rep := p.CorrectReport()
	if rep.Corrected != 1 || rep.Detected != 1 {
		t.Fatalf("report = %+v, want 1 corrected / 1 detected", rep.CorrectionStats)
	}
	if len(rep.Bad) != 1 || rep.Bad[0] != 2 {
		t.Fatalf("Bad = %v, want [2]", rep.Bad)
	}
}

func TestCorrectReportBadAscendingAndComplete(t *testing.T) {
	data := randomData(64*6, 11)
	p := NewBlockCode(64).Protect(data)
	for _, b := range []int{5, 1, 3} { // double error in each, out of order
		data.FlipBit(b*64 + 2)
		data.FlipBit(b*64 + 30)
	}
	rep := p.CorrectReport()
	if rep.Detected != 3 || len(rep.Bad) != 3 {
		t.Fatalf("report = %+v Bad=%v, want 3 detected", rep.CorrectionStats, rep.Bad)
	}
	want := []int{1, 3, 5}
	for i, b := range rep.Bad {
		if b != want[i] {
			t.Fatalf("Bad = %v, want %v", rep.Bad, want)
		}
	}
}

func TestZeroBlockClearsDataAndParity(t *testing.T) {
	data := randomData(300, 3) // 64-bit blocks, truncated final block
	p := NewBlockCode(64).Protect(data)
	// Make block 1 uncorrectable, then degrade it.
	data.FlipBit(64 + 7)
	data.FlipBit(64 + 19)
	rep := p.CorrectReport()
	if len(rep.Bad) != 1 || rep.Bad[0] != 1 {
		t.Fatalf("Bad = %v, want [1]", rep.Bad)
	}
	p.ZeroBlock(1)
	for i := 64; i < 128; i++ {
		if data.Bit(i) != 0 {
			t.Fatalf("bit %d not zeroed", i)
		}
	}
	// The degraded block is a valid all-zero codeword: a rescan is clean.
	if st := p.Correct(); st.Corrected != 0 || st.Detected != 0 {
		t.Fatalf("post-degrade scan not clean: %+v", st)
	}
}

func TestZeroBlockTruncatedFinalBlock(t *testing.T) {
	data := randomData(300, 5)
	p := NewBlockCode(64).Protect(data)
	last := p.Code.Blocks(data.Len()) - 1
	p.ZeroBlock(last)
	for i := last * 64; i < data.Len(); i++ {
		if data.Bit(i) != 0 {
			t.Fatalf("bit %d not zeroed", i)
		}
	}
	if st := p.Correct(); st.Corrected != 0 || st.Detected != 0 {
		t.Fatalf("post-degrade scan not clean: %+v", st)
	}
}

// A scrub rewrite protects the damaged data afresh: parity is
// recomputed from the current bits, so residual (uncorrected) damage is
// baked into a clean codeword and the next scan reports nothing.
func TestRewriteBakesInResidualDamage(t *testing.T) {
	data := randomData(256, 9)
	orig := data.Clone()
	p := NewBlockCode(64).Protect(data)
	data.FlipBit(10)
	data.FlipBit(50) // double error in block 0: uncorrectable
	if rep := p.CorrectReport(); rep.Detected != 1 {
		t.Fatalf("setup: want 1 detected, got %+v", rep.CorrectionStats)
	}
	p = p.Code.Protect(data)
	if st := p.Correct(); st.Corrected != 0 || st.Detected != 0 {
		t.Fatalf("post-rewrite scan not clean: %+v", st)
	}
	if data.Equal(orig) {
		t.Fatal("residual damage disappeared: a rewrite must not repair data")
	}
	// But a fresh single-bit error on the rewritten codeword corrects fine.
	data.FlipBit(20)
	if st := p.Correct(); st.Corrected != 1 || st.Detected != 0 {
		t.Fatalf("post-rewrite single error: %+v, want 1 corrected", st)
	}
}

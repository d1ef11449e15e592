package ecc

import (
	"slices"
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

// TestCorrectBlocksRange: CorrectBlocks over every block is
// CorrectReport, and a range that leaves out a dirty block leaves that
// block's data and parity untouched.
func TestCorrectBlocksRange(t *testing.T) {
	code := NewBlockCode(64)
	dirty := func() *Protected {
		data := randomData(300, 5) // truncated final block
		p := code.Protect(data)
		// Block 1: a single error; block 3: a double error; block 4: a
		// single parity error.
		data.FlipBit(70)
		data.FlipBit(3*64 + 9)
		data.FlipBit(3*64 + 50)
		p.Parity.Bits.FlipBit(4*code.ParityBitsPerBlock() + 2)
		return p
	}
	all, full := dirty(), dirty()
	if got, want := all.CorrectBlocks(0, code.Blocks(300)), full.CorrectReport(); got.CorrectionStats != want.CorrectionStats || !slices.Equal(got.Bad, want.Bad) {
		t.Fatalf("CorrectBlocks(0, n) = %+v, CorrectReport = %+v", got, want)
	}
	if !all.Data.Equal(full.Data) || !all.Parity.Bits.Equal(full.Parity.Bits) {
		t.Fatal("CorrectBlocks(0, n) and CorrectReport corrected differently")
	}

	p, before := dirty(), dirty()
	rep := p.CorrectBlocks(2, 4) // block 3 only is dirty in range
	if rep.Corrected != 0 || rep.Detected != 1 || !slices.Equal(rep.Bad, []int{3}) {
		t.Fatalf("CorrectBlocks(2, 4) = %+v, want one detected block 3", rep)
	}
	if !p.Data.Equal(before.Data) || !p.Parity.Bits.Equal(before.Parity.Bits) {
		t.Fatal("CorrectBlocks(2, 4) touched blocks 1 or 4 outside its range")
	}
	if rep := p.CorrectBlocks(1, 2); rep.Corrected != 1 || p.Data.Bit(70) != full.Data.Bit(70) {
		t.Fatalf("CorrectBlocks(1, 2) = %+v, want block 1 repaired", rep)
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

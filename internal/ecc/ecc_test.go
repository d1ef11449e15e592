package ecc

import (
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
	"repro/internal/stats"
)

func TestGrayAdjacency(t *testing.T) {
	// Adjacent integers differ in exactly one bit under Gray coding.
	for x := uint64(0); x < 1024; x++ {
		a, b := Gray(x), Gray(x+1)
		diff := a ^ b
		if diff == 0 || diff&(diff-1) != 0 {
			t.Fatalf("Gray(%d)=%b and Gray(%d)=%b differ in != 1 bit", x, a, x+1, b)
		}
	}
}

func TestGrayInvRoundTrip(t *testing.T) {
	f := func(x uint64) bool { return GrayInv(Gray(x)) == x }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestGrayBijectiveSmall(t *testing.T) {
	seen := map[uint64]bool{}
	for x := uint64(0); x < 256; x++ {
		g := Gray(x)
		if g > 255 {
			t.Fatalf("Gray(%d) = %d escapes 8-bit range", x, g)
		}
		if seen[g] {
			t.Fatalf("Gray collision at %d", x)
		}
		seen[g] = true
	}
}

// paperBlockBits is the paper's ECC granularity: one codeword per 4 KB
// of data (32768 bits), for which it budgets 24 parity bits.
const paperBlockBits = 32768

func TestBlockCodeSizing(t *testing.T) {
	// 4KB block: r=16 Hamming bits + 1 overall = 17 <= the paper's
	// budget of 24 parity bits per 4KB.
	c := NewBlockCode(paperBlockBits)
	if c.ParityBitsPerBlock() != 17 {
		t.Errorf("parity bits = %d, want 17", c.ParityBitsPerBlock())
	}
	if c.ParityBitsPerBlock() > 24 {
		t.Error("exceeds the paper's 24-bit budget")
	}
	// Overhead is well under 1%.
	if ov := float64(c.ParityBits(paperBlockBits)) / paperBlockBits; ov >= 0.01 {
		t.Errorf("overhead %v >= 1%%", ov)
	}
}

func TestBlockCodeSmall(t *testing.T) {
	// Classic (7,4) Hamming extended: 4 data bits need r=3, +1 overall.
	c := NewBlockCode(4)
	if c.ParityBitsPerBlock() != 4 {
		t.Errorf("4-bit block parity = %d, want 4", c.ParityBitsPerBlock())
	}
}

func TestProtectCleanDataNoCorrections(t *testing.T) {
	data := bitstream.New(300)
	src := stats.NewSource(1)
	for i := 0; i < 300; i++ {
		if src.Bernoulli(0.5) {
			data.SetBit(i, 1)
		}
	}
	p := NewBlockCode(64).Protect(data)
	st := p.Correct()
	if st.Corrected != 0 || st.Detected != 0 {
		t.Errorf("clean data produced corrections: %+v", st)
	}
}

func TestSingleBitErrorCorrectedEverywhere(t *testing.T) {
	// Every single data-bit error in every position must be repaired.
	const n = 130
	code := NewBlockCode(64)
	mk := func() *bitstream.Array {
		data := bitstream.New(n)
		src := stats.NewSource(7)
		for i := 0; i < n; i++ {
			if src.Bernoulli(0.4) {
				data.SetBit(i, 1)
			}
		}
		return data
	}
	for pos := 0; pos < n; pos++ {
		data := mk()
		ref := data.Clone()
		p := code.Protect(data)
		data.FlipBit(pos)
		st := p.Correct()
		if st.Corrected != 1 || st.Detected != 0 {
			t.Fatalf("pos %d: stats %+v", pos, st)
		}
		if !data.Equal(ref) {
			t.Fatalf("pos %d: data not restored", pos)
		}
	}
}

func TestSingleParityBitErrorCorrected(t *testing.T) {
	data := bitstream.New(64)
	data.SetBits(0, 64, 0xDEADBEEFCAFE)
	ref := data.Clone()
	code := NewBlockCode(64)
	for j := 0; j < code.ParityBitsPerBlock(); j++ {
		p := code.Protect(data)
		p.Parity.Set(j, p.Parity.Get(j)^1)
		st := p.Correct()
		if st.Corrected != 1 || st.Detected != 0 {
			t.Fatalf("parity bit %d: stats %+v", j, st)
		}
		if !data.Equal(ref) {
			t.Fatalf("parity bit %d: data corrupted", j)
		}
		// Parity restored: a second pass sees a clean block.
		if st2 := p.Correct(); st2.Corrected != 0 || st2.Detected != 0 {
			t.Fatalf("parity bit %d: not clean after repair: %+v", j, st2)
		}
	}
}

func TestDoubleErrorDetected(t *testing.T) {
	data := bitstream.New(64)
	data.SetBits(0, 40, 0xABCDEF)
	p := NewBlockCode(64).Protect(data)
	data.FlipBit(3)
	data.FlipBit(17)
	st := p.Correct()
	if st.Detected != 1 {
		t.Errorf("double error not detected: %+v", st)
	}
	if st.Corrected != 0 {
		t.Errorf("double error miscorrected: %+v", st)
	}
}

func TestMultiBlockIndependence(t *testing.T) {
	// Errors in different blocks are corrected independently.
	data := bitstream.New(64 * 4)
	p := NewBlockCode(64).Protect(data)
	data.FlipBit(10)       // block 0
	data.FlipBit(64 + 20)  // block 1
	data.FlipBit(192 + 63) // block 3
	st := p.Correct()
	if st.Corrected != 3 || st.Detected != 0 {
		t.Errorf("stats %+v, want 3 corrections", st)
	}
	if data.PopCount() != 0 {
		t.Error("data not fully restored")
	}
}

func TestTruncatedFinalBlock(t *testing.T) {
	// Data length not a multiple of the block size.
	data := bitstream.New(100) // blocks of 64: one full + one 36-bit block
	data.SetBits(70, 20, 0x5A5A5)
	ref := data.Clone()
	p := NewBlockCode(64).Protect(data)
	data.FlipBit(90)
	st := p.Correct()
	if st.Corrected != 1 {
		t.Fatalf("stats %+v", st)
	}
	if !data.Equal(ref) {
		t.Error("truncated block not restored")
	}
}

func TestCorrectRandomSingleErrorsProperty(t *testing.T) {
	code := NewBlockCode(128)
	f := func(seed uint16, posSeed uint16) bool {
		src := stats.NewSource(uint64(seed))
		data := bitstream.New(500)
		for i := 0; i < 500; i++ {
			if src.Bernoulli(0.5) {
				data.SetBit(i, 1)
			}
		}
		ref := data.Clone()
		p := code.Protect(data)
		pos := int(posSeed) % 500
		data.FlipBit(pos)
		p.Correct()
		return data.Equal(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOverheadScalesInversely(t *testing.T) {
	small := NewBlockCode(512)
	large := NewBlockCode(paperBlockBits)
	if small.ParityBits(1<<20) <= large.ParityBits(1<<20) {
		t.Error("smaller blocks should cost more overhead")
	}
}

func TestBlockCodeString(t *testing.T) {
	c := NewBlockCode(64)
	if c.String() != "SEC-DED(64+8)" {
		t.Errorf("String = %q", c.String())
	}
}

func TestParityBitsTotal(t *testing.T) {
	c := NewBlockCode(64)
	if c.Blocks(0) != 0 || c.ParityBits(0) != 0 {
		t.Error("zero-length data should need no parity")
	}
	if c.Blocks(65) != 2 {
		t.Errorf("Blocks(65) = %d, want 2", c.Blocks(65))
	}
	if c.ParityBits(65) != int64(2*c.ParityBitsPerBlock()) {
		t.Error("ParityBits wrong")
	}
}

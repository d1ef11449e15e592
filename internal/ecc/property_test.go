package ecc

// Property tests for the protection primitives, exhaustive over their
// whole input domains: Gray bijectivity at every MLC width the cell
// model supports, and SEC-DED behaviour under every possible single and
// double bit flip of a codeword (data and parity alike).

import (
	"testing"

	"repro/internal/bitstream"
	"repro/internal/stats"
)

// TestGrayBijectivityPerBPC checks that for every supported cell width
// (1..4 bits per cell) Gray is a bijection of [0, 2^bpc) onto itself,
// GrayInv is its exact inverse, and adjacent levels map to codewords at
// Hamming distance one — the property that turns an adjacent-level
// misread into a single correctable bit flip.
func TestGrayBijectivityPerBPC(t *testing.T) {
	for bpc := 1; bpc <= 4; bpc++ {
		n := uint64(1) << uint(bpc)
		seen := make(map[uint64]bool, n)
		for x := uint64(0); x < n; x++ {
			g := Gray(x)
			if g >= n {
				t.Fatalf("bpc=%d: Gray(%d) = %d escapes the symbol range", bpc, x, g)
			}
			if seen[g] {
				t.Fatalf("bpc=%d: Gray collision at %d", bpc, x)
			}
			seen[g] = true
			if inv := GrayInv(g); inv != x {
				t.Fatalf("bpc=%d: GrayInv(Gray(%d)) = %d", bpc, x, inv)
			}
			if x > 0 {
				diff := g ^ Gray(x-1)
				if diff == 0 || diff&(diff-1) != 0 {
					t.Fatalf("bpc=%d: levels %d and %d differ in != 1 bit", bpc, x-1, x)
				}
			}
		}
	}
}

// flipCodewordBit flips bit i of the (data || parity) codeword view:
// positions [0, dataLen) hit the data array, the rest the parity
// stream.
func flipCodewordBit(p *Protected, i int) {
	if i < p.Data.Len() {
		p.Data.FlipBit(i)
		return
	}
	j := i - p.Data.Len()
	p.Parity.Set(j, p.Parity.Get(j)^1)
}

// TestSECDEDExhaustiveSingleFlips flips every single bit of a one-block
// codeword — all data positions and all parity positions — and requires
// each flip to be corrected, restoring the data exactly.
func TestSECDEDExhaustiveSingleFlips(t *testing.T) {
	const dataBits = 64
	code := NewBlockCode(dataBits)
	src := stats.NewSource(41)
	data := bitstream.New(dataBits)
	for i := 0; i < dataBits; i++ {
		if src.Bernoulli(0.5) {
			data.SetBit(i, 1)
		}
	}
	ref := data.Clone()
	total := dataBits + code.ParityBitsPerBlock()
	for i := 0; i < total; i++ {
		p := code.Protect(data)
		flipCodewordBit(p, i)
		st := p.CorrectReport().CorrectionStats
		if st.Corrected != 1 || st.Detected != 0 {
			t.Fatalf("flip %d: stats %+v, want exactly one correction", i, st)
		}
		if !data.Equal(ref) {
			t.Fatalf("flip %d: data not restored", i)
		}
		if st2 := p.CorrectReport().CorrectionStats; st2.Corrected != 0 || st2.Detected != 0 {
			t.Fatalf("flip %d: codeword not clean after repair: %+v", i, st2)
		}
	}
}

// TestSECDEDExhaustiveDoubleFlips flips every pair of distinct codeword
// bits and requires each pair to be flagged as an uncorrectable double
// error — never silently accepted, never "corrected" into a third
// state.
func TestSECDEDExhaustiveDoubleFlips(t *testing.T) {
	const dataBits = 64
	code := NewBlockCode(dataBits)
	src := stats.NewSource(43)
	data := bitstream.New(dataBits)
	for i := 0; i < dataBits; i++ {
		if src.Bernoulli(0.5) {
			data.SetBit(i, 1)
		}
	}
	ref := data.Clone()
	total := dataBits + code.ParityBitsPerBlock()
	for i := 0; i < total; i++ {
		for j := i + 1; j < total; j++ {
			p := code.Protect(data)
			flipCodewordBit(p, i)
			flipCodewordBit(p, j)
			st := p.CorrectReport().CorrectionStats
			if st.Detected != 1 || st.Corrected != 0 {
				t.Fatalf("flips (%d,%d): stats %+v, want one detection and no correction", i, j, st)
			}
			// Undo so the shared data array is pristine for the next pair.
			flipCodewordBit(p, i)
			flipCodewordBit(p, j)
			if !data.Equal(ref) {
				t.Fatalf("flips (%d,%d): correction mutated data on a detected double error", i, j)
			}
		}
	}
}

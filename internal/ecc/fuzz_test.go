package ecc

import (
	"slices"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/stats"
)

// FuzzECCCorrect drives Protect, CorrectReport, CorrectBlocks and ZeroBlock over random
// codewords, block sizes, and flip patterns (data and parity bits alike).
// It is differential against the bit-serial reference (reference_test.go)
// and also checks invariants:
//
//   - Protect's parity, CorrectReport's outcome and the corrected data
//     and parity equal the reference's, whatever the flip pattern, and
//     so do CorrectBlocks' over a random sub-range of the blocks;
//   - len(Bad) == Detected, indices in range and ascending;
//   - when every block holds <= 2 flips the counts are exact: one flip is
//     corrected (and the data restored), two flips are detected;
//   - zeroing every reported-bad block leaves only valid codewords — the
//     degraded decode path cannot itself trip the checker.
func FuzzECCCorrect(f *testing.F) {
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef}, uint16(64), uint64(2), uint64(1))
	f.Add([]byte{0x00}, uint16(1), uint64(7), uint64(42))
	f.Add([]byte{0xff, 0x0f, 0x33, 0x55, 0xaa, 0x01}, uint16(13), uint64(3), uint64(99))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint16(512), uint64(5), uint64(7))
	f.Add([]byte{0x81, 0x42, 0x24, 0x18, 0xff, 0x00, 0x7e, 0xe7, 0x3c, 0xc3, 0x99, 0x66, 0x5a, 0xa5, 0x0f, 0xf0, 0x11}, uint16(99), uint64(6), uint64(3))
	f.Fuzz(func(t *testing.T, raw []byte, blockBits uint16, nflips, seed uint64) {
		if len(raw) == 0 || len(raw) > 2048 {
			return
		}
		checkCodec(t, raw, len(raw)*8, int(blockBits)%512+1, nflips, seed)
	})
}

// checkCodec protects the first nbits bits of raw in db-bit blocks, flips
// up to 7 distinct codeword bits, and checks the correction against the
// reference and the invariants listed on FuzzECCCorrect.
func checkCodec(t *testing.T, raw []byte, nbits, db int, nflips, seed uint64) {
	t.Helper()
	data := bitstream.New(nbits)
	for i := 0; i < nbits; i++ {
		if raw[i/8]>>(uint(i)%8)&1 == 1 {
			data.SetBit(i, 1)
		}
	}
	orig := data.Clone()
	code := NewBlockCode(db)
	prot := code.Protect(data)
	nBlocks := code.Blocks(nbits)
	ppb := code.ParityBitsPerBlock()
	refData, refPar := data.Clone(), refProtect(code, data)
	if !slices.Equal(parityBits(prot.Parity), refPar) {
		t.Fatalf("Protect parity %v, reference %v", parityBits(prot.Parity), refPar)
	}

	// Flip up to 7 distinct positions across data + parity.
	src := stats.NewSource(seed)
	total := nbits + prot.Parity.Bits.Len()
	perBlock := make(map[int]int)
	flipped := make(map[int]bool)
	for i := uint64(0); i < nflips%8; i++ {
		pos := src.Intn(total)
		if flipped[pos] {
			continue
		}
		flipped[pos] = true
		if pos < nbits {
			data.FlipBit(pos)
			refData.FlipBit(pos)
			perBlock[pos/db]++
		} else {
			p := pos - nbits
			prot.Parity.Bits.FlipBit(p)
			refPar[p] ^= 1
			perBlock[p/ppb]++
		}
	}

	// A sub-range correction, on copies, repairs exactly the blocks in
	// its range as the reference does and leaves the rest as flipped.
	rsrc := stats.NewSource(seed).Fork(1)
	lo := rsrc.Intn(nBlocks + 1)
	hi := lo + rsrc.Intn(nBlocks-lo+1)
	sub := &Protected{Code: code, Data: data.Clone(), Parity: prot.Parity.Clone()}
	subRefData, subRefPar := refData.Clone(), slices.Clone(refPar)
	subRep := sub.CorrectBlocks(lo, hi)
	subWant := refCorrectBlocks(code, subRefData, subRefPar, lo, hi)
	if subRep.CorrectionStats != subWant.CorrectionStats || !slices.Equal(subRep.Bad, subWant.Bad) {
		t.Fatalf("CorrectBlocks(%d, %d) %+v, reference %+v", lo, hi, subRep, subWant)
	}
	if !sub.Data.Equal(subRefData) || !slices.Equal(parityBits(sub.Parity), subRefPar) {
		t.Fatalf("CorrectBlocks(%d, %d): data or parity differs from the reference", lo, hi)
	}

	rep := prot.CorrectReport()
	want := refCorrect(code, refData, refPar)
	if rep.CorrectionStats != want.CorrectionStats || !slices.Equal(rep.Bad, want.Bad) {
		t.Fatalf("CorrectReport %+v, reference %+v", rep, want)
	}
	if !data.Equal(refData) || !slices.Equal(parityBits(prot.Parity), refPar) {
		t.Fatal("corrected data or parity differs from the reference")
	}
	if len(rep.Bad) != rep.Detected {
		t.Fatalf("len(Bad)=%d != Detected=%d", len(rep.Bad), rep.Detected)
	}
	prev := -1
	for _, b := range rep.Bad {
		if b <= prev || b >= nBlocks {
			t.Fatalf("Bad=%v not ascending in [0,%d)", rep.Bad, nBlocks)
		}
		prev = b
	}
	if rep.Corrected+rep.Detected > nBlocks {
		t.Fatalf("corrected %d + detected %d exceeds %d blocks",
			rep.Corrected, rep.Detected, nBlocks)
	}

	// Exact accounting when no block saw more than two flips.
	exact := true
	wantCorrected, wantDetected := 0, 0
	for _, k := range perBlock {
		switch {
		case k == 1:
			wantCorrected++
		case k == 2:
			wantDetected++
		case k > 2:
			exact = false
		}
	}
	if exact {
		if rep.Corrected != wantCorrected || rep.Detected != wantDetected {
			t.Fatalf("got %d corrected / %d detected, want %d / %d (flips per block: %v)",
				rep.Corrected, rep.Detected, wantCorrected, wantDetected, perBlock)
		}
		// Blocks with <= 1 flip are restored exactly.
		for b := 0; b < nBlocks; b++ {
			if perBlock[b] >= 2 {
				continue
			}
			lo, hi := prot.blockRange(b)
			for i := lo; i < hi; i++ {
				if data.Bit(i) != orig.Bit(i) {
					t.Fatalf("block %d (%d flips) not restored at bit %d", b, perBlock[b], i)
				}
			}
		}
	}

	// Graceful degradation: zero every uncorrectable block; the result
	// must be all valid codewords with those data ranges cleared.
	for _, b := range rep.Bad {
		prot.ZeroBlock(b)
	}
	if st := prot.CorrectReport().CorrectionStats; st.Detected != 0 {
		t.Fatalf("degraded codeword still has %d uncorrectable blocks", st.Detected)
	}
	for _, b := range rep.Bad {
		lo, hi := prot.blockRange(b)
		for i := lo; i < hi; i++ {
			if data.Bit(i) != 0 {
				t.Fatalf("degraded block %d bit %d not zero", b, i)
			}
		}
	}
}

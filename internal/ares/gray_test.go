package ares

import (
	"testing"

	"repro/internal/bitstream"
	"repro/internal/ecc"
	"repro/internal/envm"
	"repro/internal/stats"
)

// TestGrayCodingNecessity is the design ablation from Section 3.3: "if
// values are binary-encoded in a MLC, a level-to-level fault is not
// equivalent to a single bit flip, so Gray coding is used for
// ECC-protected values in MLCs to enable correction."
//
// Storing SEC-DED-protected data with a *binary* level mapping lets a
// single level fault flip several bits at once (e.g. level 3->4 is
// 011->100), which SEC cannot correct and may even miscorrect; the Gray
// mapping turns every adjacent-level fault into exactly one bit flip.
func TestGrayCodingNecessity(t *testing.T) {
	const nCells = 60000
	const bpc = 3
	run := func(gray bool) (residualBits int) {
		dataSrc := stats.NewSource(7)
		a := bitstream.New(nCells * bpc)
		for i := 0; i < nCells; i++ {
			a.SetBits(i*bpc, bpc, uint64(dataSrc.Intn(8)))
		}
		ref := a.Clone()
		code := ecc.NewBlockCode(ECCDataBits)
		prot := code.Protect(a)
		cfg := envm.StoreConfig{Tech: envm.CTT, BPC: bpc, Gray: gray}
		faults := envm.InjectArray(a, cfg, stats.NewSource(99))
		if faults == 0 {
			t.Fatal("no faults injected")
		}
		prot.CorrectReport()
		return a.DiffBits(ref)
	}
	grayResidual := run(true)
	binaryResidual := run(false)
	if grayResidual*3 > binaryResidual {
		t.Errorf("gray residual %d bits vs binary %d: Gray coding should enable most corrections",
			grayResidual, binaryResidual)
	}
}

// TestECCWithoutGrayMiscorrects demonstrates the sharper failure mode: a
// multi-bit flip within one codeword can produce a syndrome that points
// at an innocent bit, so correction *adds* damage.
func TestECCWithoutGrayMiscorrects(t *testing.T) {
	const bpc = 3
	// One 512-bit block; force a binary-mapped level fault that flips
	// multiple bits (level 3 -> 4 flips 3 bits).
	a := bitstream.New(ECCDataBits)
	for i := 0; i < ECCDataBits/bpc; i++ {
		a.SetBits(i*bpc, bpc, 3) // 011
	}
	ref := a.Clone()
	code := ecc.NewBlockCode(ECCDataBits)
	prot := code.Protect(a)
	a.SetBits(0, bpc, 4) // level 3 -> 4 under binary mapping: 3 bit flips
	before := a.DiffBits(ref)
	st := prot.CorrectReport().CorrectionStats
	after := a.DiffBits(ref)
	if before != 3 {
		t.Fatalf("expected a 3-bit corruption, got %d", before)
	}
	// SEC-DED must NOT claim a clean single-bit correction here; any
	// "correction" it applies cannot restore the data.
	if after == 0 {
		t.Fatalf("3-bit corruption cannot be corrected by SEC-DED (stats %+v)", st)
	}
}

package ares

// The whole-stream reference probe: every trial clones the encoding,
// protects the whole stream, forces its faults, corrects every block and
// decodes in full, and the corruption statistics recompute the signal
// sum element by element. Prober is held to it bit for bit.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/ecc"
	"repro/internal/envm"
	"repro/internal/quant"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// referenceProbe forces fault events into clones of the encoding and
// measures the resulting corruption, averaged over trials. For
// ECC-protected streams the event is two faults in one block (the
// uncorrectable case); otherwise a single cell fault.
func referenceProbe(enc sparse.Encoding, streamIdx int, cl *quant.Clustered, p StreamPolicy, trials int, src *stats.Source) (dStruct, dNSR, dMismatch float64) {
	ref := enc.Decode()
	for t := 0; t < trials; t++ {
		clone := sparse.Must(sparse.CloneEncoding(enc))
		s := clone.Streams()[streamIdx]
		cells := int(envm.CellsFor(s.SizeBits(), p.BPC))
		if cells == 0 {
			return 0, 0, 0
		}
		if p.ECC {
			code := ecc.NewBlockCode(ECCDataBits)
			prot := code.Protect(s.Bits)
			// Two faults in one block: pick a block, then two distinct
			// cells inside it.
			blocks := code.Blocks(s.Bits.Len())
			b := src.Intn(blocks)
			cellsPerBlock := ECCDataBits / p.BPC
			lo := b * cellsPerBlock
			hi := lo + cellsPerBlock
			if hi > cells {
				hi = cells
			}
			if hi-lo < 2 {
				continue
			}
			c1 := lo + src.Intn(hi-lo)
			c2 := lo + src.Intn(hi-lo)
			for c2 == c1 {
				c2 = lo + src.Intn(hi-lo)
			}
			forceFault(s, c1, p, src)
			forceFault(s, c2, p, src)
			prot.CorrectReport()
		} else {
			forceFault(s, src.Intn(cells), p, src)
		}
		decoded := clone.Decode()
		var st TrialStats
		referenceFillCorruption(&st, ref, decoded, cl.Centroids)
		dStruct += st.StructFrac
		dNSR += st.ValueNSR
		dMismatch += st.Mismatch
	}
	n := float64(trials)
	return dStruct / n, dNSR / n, dMismatch / n
}

// referenceFillCorruption computes the corruption statistics between
// original and decoded index matrices one element at a time.
func referenceFillCorruption(st *TrialStats, orig, decoded []uint8, centroids []float32) {
	if len(orig) != len(decoded) {
		panic("ares: index length mismatch")
	}
	n := len(orig)
	if n == 0 {
		return
	}
	var mismatch, structN int
	var deltaSS, signalSS float64
	for i := range orig {
		o, d := orig[i], decoded[i]
		wo := float64(centroids[o])
		signalSS += wo * wo
		if o == d {
			continue
		}
		mismatch++
		if (o == 0) != (d == 0) {
			structN++
		}
		wd := float64(centroids[d])
		deltaSS += (wd - wo) * (wd - wo)
	}
	st.Mismatch = float64(mismatch) / float64(n)
	st.StructFrac = float64(structN) / float64(n)
	if signalSS > 0 {
		st.ValueNSR = deltaSS / signalSS
	} else if deltaSS > 0 {
		st.ValueNSR = 1
	}
}

// checkProbe runs one probe on pb and on the reference from the same
// seed, fails unless the three results match bit for bit, and then
// fails unless pb's working copy (data and parity) is pristine again.
func checkProbe(t *testing.T, pb *Prober, kind sparse.Kind, enc sparse.Encoding, cl *quant.Clustered, si int, p StreamPolicy, trials int, seed uint64) {
	t.Helper()
	name := fmt.Sprintf("%v stream %s policy %v seed %d", kind, enc.Streams()[si].Name, p, seed)
	gS, gN, gM := pb.Probe(si, p, trials, stats.NewSource(seed))
	wS, wN, wM := referenceProbe(enc, si, cl, p, trials, stats.NewSource(seed))
	for _, c := range [][2]float64{{gS, wS}, {gN, wN}, {gM, wM}} {
		if math.Float64bits(c[0]) != math.Float64bits(c[1]) {
			t.Fatalf("%s: prober (%v, %v, %v), reference (%v, %v, %v)", name, gS, gN, gM, wS, wN, wM)
		}
	}
	for i, s := range pb.work {
		if !s.Bits.Equal(pb.pristine[i].Bits) {
			t.Fatalf("%s: working stream %s not restored", name, s.Name)
		}
		if pb.prot[i] != nil && !pb.prot[i].Parity.Bits.Equal(pb.par[i]) {
			t.Fatalf("%s: working parity of stream %s not restored", name, s.Name)
		}
	}
}

// TestProberMatchesReference pins Prober to the whole-stream reference:
// every format (2:4 included), every stream, BPC 1-3, with and without
// ECC, over several seeds, on a layer whose stream lengths are not
// multiples of 512 or of the BPC (a partial last cell and last block)
// and on one with enough ECC blocks that BPC-3 probe blocks straddle
// two of them. Each probe must leave the working copy pristine.
func TestProberMatchesReference(t *testing.T) {
	layers := []*quant.Clustered{testLayer(23, 37, 0.6, 4, 3), testLayer(64, 96, 0.5, 4, 8)}
	ragged := 0
	for _, cl := range layers {
		for _, kind := range append(slices.Clone(sparse.Kinds), sparse.Kind24) {
			enc := sparse.Must(EncodeLayer(cl, Config{Encoding: kind}))
			pb := NewProber(enc, cl)
			for si, s := range enc.Streams() {
				n := s.Bits.Len()
				if n%ECCDataBits != 0 && n%2 != 0 && n%3 != 0 {
					ragged++
				}
				for bpc := 1; bpc <= 3; bpc++ {
					for _, eccOn := range []bool{false, true} {
						for seed := uint64(1); seed <= 3; seed++ {
							checkProbe(t, pb, kind, enc, cl, si, StreamPolicy{BPC: bpc, ECC: eccOn}, 6, seed*1000+uint64(si*10+bpc))
						}
					}
				}
			}
		}
	}
	if ragged == 0 {
		t.Fatal("no probed stream has a partial last cell and block")
	}
}

// TestProberStraddlingBlocks pins the BPC-3 ECC event whose two forced
// cells fall in different ECC blocks: both blocks must be corrected, so
// each single error is repaired and the event does no damage. It finds
// such seeds by replaying the first trial's placement draws (block,
// then two distinct cells).
func TestProberStraddlingBlocks(t *testing.T) {
	cl := testLayer(64, 96, 0.5, 4, 8)
	enc := sparse.Must(EncodeLayer(cl, Config{Encoding: sparse.KindDense}))
	pb := NewProber(enc, cl)
	p := StreamPolicy{BPC: 3, ECC: true}
	nbits := enc.Streams()[0].Bits.Len()
	cells := int(envm.CellsFor(int64(nbits), p.BPC))
	blocks := ecc.NewBlockCode(ECCDataBits).Blocks(nbits)
	cellsPerBlock := ECCDataBits / p.BPC
	found := 0
	for seed := uint64(1); found < 8 && seed < 2000; seed++ {
		src := stats.NewSource(seed)
		lo := src.Intn(blocks) * cellsPerBlock
		hi := min(lo+cellsPerBlock, cells)
		if hi-lo < 2 {
			continue
		}
		c1 := lo + src.Intn(hi-lo)
		c2 := lo + src.Intn(hi-lo)
		for c2 == c1 {
			c2 = lo + src.Intn(hi-lo)
		}
		// Each cell whole inside one block, the two blocks different.
		b1, b2 := c1*p.BPC/ECCDataBits, c2*p.BPC/ECCDataBits
		if b1 == b2 || b1 != (c1*p.BPC+p.BPC-1)/ECCDataBits || b2 != (c2*p.BPC+p.BPC-1)/ECCDataBits {
			continue
		}
		found++
		checkProbe(t, pb, sparse.KindDense, enc, cl, 0, p, 1, seed)
		if _, _, dM := pb.Probe(0, p, 1, stats.NewSource(seed)); dM != 0 {
			t.Fatalf("seed %d: cells %d and %d in different blocks left mismatch %v, want both repaired", seed, c1, c2, dM)
		}
	}
	if found == 0 {
		t.Fatal("no seed placed the two forced cells in different ECC blocks")
	}
}

package sparse

// Bit-serial reference codecs: one element at a time, each element read
// one bit at a time through Array.Bit, and the per-width BestIndexBits
// sweep. The production decoders read whole words through cursors and
// mask walks; the differential tests and fuzz targets hold them to these
// references bit for bit, overrun counts included.

import (
	"testing"

	"repro/internal/bitstream"
	"repro/internal/stats"
)

// refGet reads element i of s bit by bit; elements past N read as zero.
func refGet(s *bitstream.Stream, i int) uint64 {
	var v uint64
	for k := 0; k < s.ElemBits; k++ {
		if j := i*s.ElemBits + k; i < s.N && j < s.Bits.Len() {
			v |= s.Bits.Bit(j) << uint(k)
		}
	}
	return v
}

// refDecodeBitMask walks the mask one bit at a time, resetting the value
// cursor to the counter prefix at every IdxSync block boundary.
func refDecodeBitMask(e *BitMask) (out []uint8, overruns int64) {
	n := e.RowsN * e.ColsN
	out = make([]uint8, n)
	cursor := 0
	var prefix uint64
	for i := 0; i < n; i++ {
		if e.Counters != nil && i%e.MaskBlockBits == 0 && i > 0 {
			prefix += refGet(e.Counters, i/e.MaskBlockBits-1)
			cursor = int(prefix)
		}
		if refGet(e.Mask, i) == 1 {
			if cursor < e.Values.N {
				out[i] = uint8(refGet(e.Values, cursor))
			} else {
				overruns++
			}
			cursor++
		}
	}
	return out, overruns
}

// refDecodeCSR consumes RowCount[r] entries per row, one Values and one
// ColIndex element at a time.
func refDecodeCSR(e *CSR) (out []uint8, overruns int64) {
	out = make([]uint8, e.RowsN*e.ColsN)
	pos := 0
	for r := 0; r < e.RowsN; r++ {
		n := int(refGet(e.RowCount, r))
		prev := -1
		for k := 0; k < n; k++ {
			var v, gap uint64
			if pos < e.Values.N {
				v, gap = refGet(e.Values, pos), refGet(e.ColIndex, pos)
			} else {
				overruns++
			}
			pos++
			col := prev + int(gap) + 1
			prev = col
			if col >= 0 && col < e.ColsN && v != 0 {
				out[r*e.ColsN+col] = uint8(v)
			}
		}
	}
	return out, overruns
}

// refWindows24 rebuilds every group's 4-slot window with the 2:4
// collision and edge rules, one entry at a time.
func refWindows24(e *E24) (wins [][4]uint8, overruns int64) {
	gpr := groupsPerRow(e.ColsN)
	wins = make([][4]uint8, e.RowsN*gpr)
	for ent := 0; ent < Entries24(e.RowsN, e.ColsN); ent++ {
		if ent >= e.Values.N || ent >= e.Meta.N {
			overruns++
			continue
		}
		v, p := uint8(refGet(e.Values, ent)), int(refGet(e.Meta, ent))
		if g := ent / 2; v != 0 && (g%gpr)*4+p < e.ColsN {
			wins[g][p] = v
		}
	}
	return wins, overruns
}

func refDecode24(e *E24) (out []uint8, overruns int64) {
	wins, overruns := refWindows24(e)
	gpr := groupsPerRow(e.ColsN)
	out = make([]uint8, e.RowsN*e.ColsN)
	for g, win := range wins {
		r, c0 := g/gpr, (g%gpr)*4
		for p, v := range win {
			if c0+p < e.ColsN {
				out[r*e.ColsN+c0+p] = v
			}
		}
	}
	return out, overruns
}

func refCompact24(e *E24) (vals, pos []uint8, overruns int64) {
	wins, overruns := refWindows24(e)
	for _, win := range wins {
		k := 0
		for p, v := range win {
			if v != 0 && k < 2 {
				vals, pos = append(vals, v), append(pos, uint8(p))
				k++
			}
		}
		for ; k < 2; k++ {
			vals, pos = append(vals, 0), append(pos, 0)
		}
	}
	return vals, pos, overruns
}

// refBestIndexBits is the per-width sweep: encode at every width and keep
// the first smallest encoding.
func refBestIndexBits(t *testing.T, indices []uint8, rows, cols, valueBits int) int {
	t.Helper()
	bestBits, bestSize := 0, int64(-1)
	maxBits := 2
	if cols > 1 {
		maxBits = max(2, bitstream.BitsFor(cols-1))
	}
	for b := 2; b <= maxBits; b++ {
		enc, err := EncodeCSR(indices, rows, cols, valueBits, b)
		if err != nil {
			t.Fatal(err)
		}
		if sz := enc.SizeBits(); bestSize < 0 || sz < bestSize {
			bestBits, bestSize = b, sz
		}
	}
	return bestBits
}

// TestBestIndexBitsMatchesSweep pins the one-pass width pricing to the
// per-width encode sweep, ties included.
func TestBestIndexBitsMatchesSweep(t *testing.T) {
	type shape struct {
		name       string
		rows, cols int
		sparsity   float64
	}
	shapes := []shape{
		{"random", 20, 64, 0.8},
		{"dense", 8, 50, 0},
		{"padding-heavy", 10, 700, 0.99},
		{"very-sparse-wide", 4, 5000, 0.999},
		{"single-column", 30, 1, 0.5},
		{"two-column", 30, 2, 0.5},
		{"zero-column", 3, 0, 0.5},
		{"zero-row", 0, 12, 0.5},
		{"empty-rows", 12, 40, 1},
	}
	for _, sh := range shapes {
		for seed := uint64(1); seed <= 8; seed++ {
			for _, vb := range []int{1, 4, 8} {
				idx := randomIndices(sh.rows, sh.cols, sh.sparsity, vb, seed)
				if sh.name == "empty-rows" {
					// Every other row empty, the rest random.
					idx = randomIndices(sh.rows, sh.cols, 0.7, vb, seed)
					for r := 0; r < sh.rows; r += 2 {
						clear(idx[r*sh.cols : (r+1)*sh.cols])
					}
				}
				got, err := BestIndexBits(idx, sh.rows, sh.cols, vb)
				if err != nil {
					t.Fatalf("%s: %v", sh.name, err)
				}
				if want := refBestIndexBits(t, idx, sh.rows, sh.cols, vb); got != want {
					t.Fatalf("%s seed %d valueBits %d: BestIndexBits = %d, sweep = %d",
						sh.name, seed, vb, got, want)
				}
			}
		}
	}
	if _, err := BestIndexBits(make([]uint8, 5), 2, 3, 4); err == nil {
		t.Error("shape mismatch accepted by BestIndexBits")
	}
}

// TestEncodeZeroColumns: a matrix with no columns encodes to an empty
// encoding under every kind, CSR included, and decodes to nothing.
func TestEncodeZeroColumns(t *testing.T) {
	for _, kind := range []Kind{KindDense, KindCSR, KindBitMask, KindBitMaskIdxSync, Kind24} {
		enc, err := Encode(kind, nil, 3, 0, 4)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if dec := enc.Decode(); len(dec) != 0 {
			t.Fatalf("%v: decoded %d weights from a zero-column matrix", kind, len(dec))
		}
	}
}

// overrunDelta runs decode and returns how far it moved counter c.
func overrunDelta(c interface{ Value() int64 }, decode func()) int64 {
	before := c.Value()
	decode()
	return c.Value() - before
}

// checkBitMaskMatchesRef compares BitMask.Decode with the bit-serial
// reference, output and overrun count alike.
func checkBitMaskMatchesRef(t *testing.T, e *BitMask) {
	t.Helper()
	want, wantOver := refDecodeBitMask(e)
	var got []uint8
	if d := overrunDelta(met.bitmaskOverruns, func() { got = e.Decode() }); d != wantOver {
		t.Fatalf("overruns %d, reference %d", d, wantOver)
	}
	if !equalU8(got, want) {
		t.Fatalf("Decode differs from the bit-serial reference:\n got %v\nwant %v", got, want)
	}
}

func checkCSRMatchesRef(t *testing.T, e *CSR) {
	t.Helper()
	want, wantOver := refDecodeCSR(e)
	var got []uint8
	if d := overrunDelta(met.csrOverruns, func() { got = e.Decode() }); d != wantOver {
		t.Fatalf("overruns %d, reference %d", d, wantOver)
	}
	if !equalU8(got, want) {
		t.Fatalf("Decode differs from the bit-serial reference:\n got %v\nwant %v", got, want)
	}
}

func check24MatchesRef(t *testing.T, e *E24) {
	t.Helper()
	want, wantOver := refDecode24(e)
	var got []uint8
	if d := overrunDelta(met.e24Overruns, func() { got = e.Decode() }); d != wantOver {
		t.Fatalf("Decode overruns %d, reference %d", d, wantOver)
	}
	if !equalU8(got, want) {
		t.Fatalf("Decode differs from the bit-serial reference:\n got %v\nwant %v", got, want)
	}
	wantV, wantP, wantOver := refCompact24(e)
	n := Entries24(e.RowsN, e.ColsN)
	vals, pos := make([]uint8, n), make([]uint8, n)
	if d := overrunDelta(met.e24Overruns, func() { e.CompactInto(vals, pos) }); d != wantOver {
		t.Fatalf("CompactInto overruns %d, reference %d", d, wantOver)
	}
	if !equalU8(vals, wantV) || !equalU8(pos, wantP) {
		t.Fatalf("CompactInto differs from the reference:\n got %v %v\nwant %v %v", vals, pos, wantV, wantP)
	}
}

// TestDecodersMatchReferenceUnderCorruption batters every kind with
// random flips at several shapes and block sizes and compares each
// decoder with its bit-serial reference.
func TestDecodersMatchReferenceUnderCorruption(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rows, cols := 3+int(seed%7), 1+int(seed*13%150)
		idx := randomIndices(rows, cols, 0.3+float64(seed%6)/10, 4, seed)
		csr := Must(EncodeCSR(idx, rows, cols, 4, 1+int(seed%4)))
		bm := Must(EncodeBitMask(idx, rows, cols, 4,
			BitMaskOptions{IdxSync: seed%3 != 0, MaskBlockBits: []int{1, 7, 64, 100, 128, 1024}[seed%6]}))
		e24 := Must(Encode24(idx, rows, cols, 4, nil))
		for _, e := range []Encoding{csr, bm, e24} {
			corruptRandomly(e, stats.NewSource(seed+100), int(seed%9))
		}
		checkCSRMatchesRef(t, csr)
		checkBitMaskMatchesRef(t, bm)
		check24MatchesRef(t, e24)
	}
}

package sparse

// 2:4 structured-sparse format tests: golden wire-format vectors,
// exhaustive group-pattern round-trips, the lossy-projection rules
// (magnitude selection, leftmost tie-break), canonical compact-form
// equivalence, fault blast radius, and decoder robustness to corrupted
// or truncated streams.

import (
	"bytes"
	"testing"

	"repro/internal/bitstream"
)

// Test24GoldenVectors encodes the 2x6 matrix
//
//	[0 3 0 5 | 2 7]
//	[1 2 3 0 | 0 0]
//
// with 4-bit values and nil centroids (index value = magnitude proxy).
//
// Row 0 group 0 holds {3@p1, 5@p3}; group 1 (cols 4-5) holds
// {2@p0, 7@p1}. Row 1 group 0 violates 2:4 with three nonzeros
// {1@p0, 2@p1, 3@p2}: the projection keeps the two largest magnitudes
// (2, 3) and drops the 1. Row 1 group 1 is empty -> two (0, 0) pads.
//
// Streams (little-endian bit packing):
//
//	values [3,5, 2,7, 2,3, 0,0] @4b: 0x53, 0x72, 0x32, 0x00
//	meta24 [1,3, 0,1, 1,2, 0,0] @2b: 0x4D, 0x09
func Test24GoldenVectors(t *testing.T) {
	indices := []uint8{
		0, 3, 0, 5, 2, 7,
		1, 2, 3, 0, 0, 0,
	}
	enc, err := Encode24(indices, 2, 6, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := Entries24(2, 6); enc.Values.N != n || enc.Meta.N != n {
		t.Fatalf("stream lengths %d/%d, want %d", enc.Values.N, enc.Meta.N, n)
	}
	check := func(name string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s stream = %x, want %x", name, got, want)
		}
	}
	check("values", packed(enc.Values.Bits), []byte{0x53, 0x72, 0x32, 0x00})
	check("meta24", packed(enc.Meta.Bits), []byte{0x4D, 0x09})
	if enc.Meta.ElemBits != 2 {
		t.Errorf("meta width = %d bits, want 2", enc.Meta.ElemBits)
	}
	if got, want := enc.SizeBits(), int64(8*4+8*2); got != want {
		t.Errorf("SizeBits = %d, want %d", got, want)
	}

	// The projection drops exactly the weakest entry of the violating
	// group; everything else round-trips.
	want := []uint8{
		0, 3, 0, 5, 2, 7,
		0, 2, 3, 0, 0, 0,
	}
	if !equalU8(enc.Decode(), want) {
		t.Errorf("decode = %v, want %v", enc.Decode(), want)
	}
}

// Test24GroupPatternsRoundTrip exhausts every 2:4-conforming group
// pattern — all 6 two-nonzero position pairs, all 4 singletons, and the
// empty group — and demands an exact round-trip for each.
func Test24GroupPatternsRoundTrip(t *testing.T) {
	var patterns [][]int
	for a := 0; a < 4; a++ {
		patterns = append(patterns, []int{a})
		for b := a + 1; b < 4; b++ {
			patterns = append(patterns, []int{a, b})
		}
	}
	patterns = append(patterns, nil)
	if len(patterns) != 11 {
		t.Fatalf("%d patterns enumerated, want 11 (6 pairs + 4 singletons + empty)", len(patterns))
	}
	for _, pat := range patterns {
		group := make([]uint8, 4)
		for i, p := range pat {
			group[p] = uint8(5 + 4*i) // distinct values 5, 9
		}
		enc, err := Encode24(group, 1, 4, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := enc.Decode(); !equalU8(got, group) {
			t.Errorf("pattern %v: decode = %v, want %v", pat, got, group)
		}
	}
}

// Test24MagnitudeSelection pins the projection rule: survivors are the
// two largest |centroid| magnitudes, NOT the two largest indices (the
// k-means centroid table is sorted by value, so index order says
// nothing about magnitude).
func Test24MagnitudeSelection(t *testing.T) {
	// centroids[1] = -8 is the strongest weight despite the lowest index.
	centroids := []float32{0, -8, 1, 2}
	group := []uint8{1, 2, 3, 0}
	enc, err := Encode24(group, 1, 4, 2, centroids)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{1, 0, 3, 0} // keep |-8| and |2|, drop |1|
	if got := enc.Decode(); !equalU8(got, want) {
		t.Errorf("decode = %v, want %v", got, want)
	}
}

// Test24LeftmostTieBreak: equal magnitudes keep the leftmost entries,
// deterministically.
func Test24LeftmostTieBreak(t *testing.T) {
	centroids := []float32{0, 4, -4, 4}
	group := []uint8{1, 2, 3, 0}
	enc, err := Encode24(group, 1, 4, 2, centroids)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{1, 2, 0, 0}
	if got := enc.Decode(); !equalU8(got, want) {
		t.Errorf("decode = %v, want %v", got, want)
	}
}

// Test24RoundTripConforming: a random matrix projected once is 2:4
// conforming, so re-encoding its decode is the identity from then on.
func Test24RoundTripConforming(t *testing.T) {
	idx := randomIndices(20, 50, 0.7, 4, 21)
	first := Must(Encode(Kind24, idx, 20, 50, 4)).Decode()
	second := Must(Encode(Kind24, first, 20, 50, 4)).Decode()
	if !equalU8(first, second) {
		t.Error("projection is not idempotent")
	}
}

// Test24CompactCanonical: compacting a corrupted encoding's decoded
// rows equals the compact form Encode24 emits for its decoded matrix —
// compact equality is decoded-matrix equality, the evaluator's
// fast-path invariant. It holds for CompactInto over the whole matrix,
// in every row's partial trailing group (33 columns), for a group whose
// two entries collide on one position (the second wins), and for a row
// subset compacted row by row through a centroid table, as the
// evaluator's row patch compacts it.
func Test24CompactCanonical(t *testing.T) {
	const rows, cols = 9, 33
	idx := randomIndices(rows, cols, 0.6, 4, 22)
	enc := Must(Encode24(idx, rows, cols, 4, nil))
	// Corrupt a handful of value and position elements, including ones
	// that force in-group collisions and edge overflows.
	for i := 0; i < enc.Meta.N; i += 7 {
		enc.Meta.Set(i, (enc.Meta.Get(i)+3)%4)
	}
	for i := 0; i < enc.Values.N; i += 5 {
		enc.Values.Set(i, (enc.Values.Get(i)+9)%16)
	}
	// Row 0, group 0: both entries at position 2, the second wins.
	enc.Values.Set(0, 5)
	enc.Values.Set(1, 9)
	enc.Meta.Set(0, 2)
	enc.Meta.Set(1, 2)
	// Row 1's trailing group holds column 32 alone: an entry at
	// position 3 is dropped, one at position 0 kept.
	ne := 2 * groupsPerRow(cols)
	last := 2*ne - 2
	enc.Values.Set(last, 7)
	enc.Meta.Set(last, 3)
	enc.Values.Set(last+1, 3)
	enc.Meta.Set(last+1, 0)

	dec := enc.Decode()
	if !bytes.Equal(dec[:4], []uint8{0, 0, 9, 0}) || dec[cols+32] != 3 {
		t.Fatalf("decode missed the planted collision or edge drop: %v, %d", dec[:4], dec[cols+32])
	}
	re := Must(Encode24(dec, rows, cols, 4, nil))
	wantV, wantP := re.Values.Values8(), re.Meta.Values8()
	n := Entries24(rows, cols)
	vals, pos := make([]uint8, n), make([]uint8, n)
	enc.CompactInto(vals, pos)
	if !bytes.Equal(vals, wantV) || !bytes.Equal(pos, wantP) {
		t.Error("CompactInto is not the canonical form of the decoded matrix")
	}
	cents := make([]float32, 16)
	for i := range cents {
		cents[i] = float32(i) - 7.5
	}
	val, p := make([]float32, 4*ne), make([]uint8, 4*ne)
	for j, r := range []int{1, 8, 0, 4} {
		Compact24Row(dec[r*cols:][:cols], cents, val[j*ne:][:ne], p[j*ne:][:ne])
		for k := 0; k < ne; k++ {
			if w := wantV[r*ne+k]; val[j*ne+k] != cents[w] || p[j*ne+k] != wantP[r*ne+k] {
				t.Fatalf("row %d entry %d: compacted (%v, %d), canonical (%v, %d)",
					r, k, val[j*ne+k], p[j*ne+k], cents[w], wantP[r*ne+k])
			}
		}
	}
}

// Test24BlastRadius: any single corrupted stream element damages at
// most its own group of 4 columns — the fixed-rate format has no
// misalignment cascade (contrast TestCSRRowCounterFaultCascades).
func Test24BlastRadius(t *testing.T) {
	idx := randomIndices(8, 32, 0.5, 4, 23)
	pristine := Must(Encode24(idx, 8, 32, 4, nil))
	base := pristine.Decode()
	gpr := (32 + 3) / 4
	for ent := 0; ent < pristine.Values.N; ent++ {
		for _, stream := range []int{0, 1} {
			enc := Must(CloneEncoding(pristine)).(*E24)
			if stream == 0 {
				enc.Values.Set(ent, (enc.Values.Get(ent)+5)%16)
			} else {
				enc.Meta.Set(ent, (enc.Meta.Get(ent)+1)%4)
			}
			dec := enc.Decode()
			group := ent / 2 // entry pair -> flat group ordinal
			r, g := group/gpr, group%gpr
			for i := range dec {
				if dec[i] == base[i] {
					continue
				}
				if i/32 != r || (i%32)/4 != g {
					t.Fatalf("entry %d stream %d: damage leaked to weight %d (own group r%d g%d)",
						ent, stream, i, r, g)
				}
			}
		}
	}
}

// Test24CloneIsolation: mutating a clone must not reach the original.
func Test24CloneIsolation(t *testing.T) {
	idx := randomIndices(6, 20, 0.6, 4, 24)
	enc := Must(Encode24(idx, 6, 20, 4, nil))
	want := enc.Decode()
	clone := Must(CloneEncoding(enc)).(*E24)
	for i := 0; i < clone.Values.N; i++ {
		clone.Values.Set(i, 15)
		clone.Meta.Set(i, 3)
	}
	if !equalU8(enc.Decode(), want) {
		t.Error("clone mutation reached the original encoding")
	}
}

// Test24TruncatedStreams: a metadata stream shorter than the entry
// count (a corrupted header, in hardware terms) must not panic or read
// out of bounds — short reads are skipped and counted.
func Test24TruncatedStreams(t *testing.T) {
	idx := randomIndices(4, 16, 0.5, 4, 25)
	enc := Must(Encode24(idx, 4, 16, 4, nil))
	enc.Meta = bitstream.NewStream("meta24", 2, 3) // far too short
	dec := enc.Decode()                            // must not panic
	if len(dec) != 4*16 {
		t.Fatalf("decode length %d, want %d", len(dec), 4*16)
	}
	n := Entries24(4, 16)
	vals, pos := make([]uint8, n), make([]uint8, n)
	enc.CompactInto(vals, pos) // must not panic either
}

func Test24ErrorPaths(t *testing.T) {
	idx := make([]uint8, 12)
	if _, err := Encode24(idx, 3, 5, 4, nil); err == nil {
		t.Error("shape mismatch accepted by Encode24")
	}
	if _, err := Encode24(idx, 3, 4, 0, nil); err == nil {
		t.Error("valueBits 0 accepted")
	}
	if _, err := Encode24(idx, 3, 4, 9, nil); err == nil {
		t.Error("valueBits 9 accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("CompactInto should panic on wrong buffer length")
		}
	}()
	enc := Must(Encode24(idx, 3, 4, 4, nil))
	enc.CompactInto(make([]uint8, 1), make([]uint8, 1))
}

// FuzzDecode24 is differential: Decode, CompactInto and their overrun
// counts must match the bit-serial reference, and the compact form,
// whole or row by row, must be the canonical one. cut%3 truncates
// nothing, the values or the metadata, to the entry count cut/3 at most.
func FuzzDecode24(f *testing.F) {
	f.Add(uint16(1), uint8(0), []byte{0x00})
	f.Add(uint16(7), uint8(0), []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(uint16(42), uint8(0), []byte{0xa5, 0x0f, 0x3c, 0x81, 0x7e})
	f.Add(uint16(99), uint8(0), []byte{0x01, 0x80, 0x40, 0x02, 0x20, 0x04})
	f.Add(uint16(3), uint8(31), []byte{0x6d, 0x12})
	f.Add(uint16(4), uint8(92), []byte{0x6d, 0x12, 0xf0})
	f.Fuzz(func(t *testing.T, seed uint16, cut uint8, data []byte) {
		const rows, cols, valueBits = 9, 33, 4
		idx := randomIndices(rows, cols, 0.7, valueBits, uint64(seed))
		enc, err := Encode24(idx, rows, cols, valueBits, nil)
		if err != nil {
			t.Fatal(err)
		}
		stuffBits(enc, data)
		switch n := int(cut) / 3; cut % 3 {
		case 1:
			enc.Values = truncated(enc.Values, n)
		case 2:
			enc.Meta = truncated(enc.Meta, n)
		}
		checkDecode(t, enc, rows, cols, valueBits)
		// The compact form must stay in range and canonical too.
		n := Entries24(rows, cols)
		vals, pos := make([]uint8, n), make([]uint8, n)
		enc.CompactInto(vals, pos)
		for i := range vals {
			if vals[i] >= 1<<valueBits || pos[i] >= 4 {
				t.Fatalf("compact entry %d out of range: (%d, %d)", i, vals[i], pos[i])
			}
		}
		// Canonical, whole and over a row subset (as the row patch
		// compacts): the compact form Encode24 gives the decoded matrix.
		dec := enc.Decode()
		re := Must(Encode24(dec, rows, cols, valueBits, nil))
		wantV, wantP := re.Values.Values8(), re.Meta.Values8()
		if !bytes.Equal(vals, wantV) || !bytes.Equal(pos, wantP) {
			t.Fatal("CompactInto is not the canonical form of the decoded matrix")
		}
		ne := 2 * groupsPerRow(cols)
		v, p := make([]uint8, ne), make([]uint8, ne)
		for r := int(seed) % rows; r < rows; r += 1 + int(cut)%rows {
			Compact24Row(dec[r*cols:][:cols], identity8[:], v, p)
			if !bytes.Equal(v, wantV[r*ne:][:ne]) || !bytes.Equal(p, wantP[r*ne:][:ne]) {
				t.Fatalf("row %d compacts to %v %v, canonical %v %v", r, v, p, wantV[r*ne:][:ne], wantP[r*ne:][:ne])
			}
		}
		check24MatchesRef(t, enc)
	})
}

// truncated copies the first min(n, s.N) elements of s, bit by bit.
func truncated(s *bitstream.Stream, n int) *bitstream.Stream {
	out := bitstream.NewStream(s.Name, s.ElemBits, min(n, s.N))
	for i := 0; i < out.Bits.Len(); i++ {
		out.Bits.SetBit(i, s.Bits.Bit(i))
	}
	return out
}

package sparse

// Golden-vector tests: tiny matrices encoded by hand, bit by bit, and
// compared against the exact bytes the encoders must produce. Unlike
// the round-trip tests these pin the *wire format* — a change to
// element packing, padding-entry insertion, or counter width breaks
// them even if encode/decode still invert each other, which matters
// because the stored layout is what the fault injector and the storage
// cost model both consume.

import (
	"bytes"
	"testing"

	"repro/internal/bitstream"
)

// TestCSRGoldenVectors encodes the 2x6 matrix
//
//	[0 0 3 0 0 5]
//	[7 0 0 0 0 2]
//
// with 4-bit values and 2-bit relative column indices (max gap 3).
//
// Row 0: entry (3, gap 2) then (5, gap 2)                 -> count 2.
// Row 1: entry (7, gap 0); the next non-zero sits 4 zeros
// later, beyond the 2-bit gap range, so a padding entry
// (0, gap 3) is inserted before (2, gap 0)                -> count 3.
//
// Streams (little-endian bit packing):
//
//	values  [3,5,7,0,2] @4b: 0x53 (3|5<<4), 0x07, 0x02
//	colidx  [2,2,0,3,0] @2b: 0xCA (2|2<<2|0<<4|3<<6), 0x00
//	rowcount[2,3]       @3b: 0x1A (2|3<<3)
func TestCSRGoldenVectors(t *testing.T) {
	indices := []uint8{
		0, 0, 3, 0, 0, 5,
		7, 0, 0, 0, 0, 2,
	}
	enc, err := EncodeCSR(indices, 2, 6, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Values.N != 5 {
		t.Fatalf("values = %d entries, want 5", enc.Values.N)
	}
	check := func(name string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s stream = %x, want %x", name, got, want)
		}
	}
	check("values", packed(enc.Values.Bits), []byte{0x53, 0x07, 0x02})
	check("colidx", packed(enc.ColIndex.Bits), []byte{0xCA, 0x00})
	check("rowcount", packed(enc.RowCount.Bits), []byte{0x1A})
	if enc.RowCount.ElemBits != 3 {
		t.Errorf("rowcount width = %d bits, want 3 (BitsFor(6))", enc.RowCount.ElemBits)
	}

	decoded := enc.Decode()
	for i := range indices {
		if decoded[i] != indices[i] {
			t.Fatalf("decode mismatch at %d: got %d want %d", i, decoded[i], indices[i])
		}
	}
}

// TestBitMaskGoldenVectors encodes the 2x4 matrix
//
//	[0 6 0 3]
//	[5 0 0 1]
//
// with 3-bit values and IdxSync counters over 4-bit mask blocks.
//
// Streams (little-endian bit packing):
//
//	bitmask: set bits 1,3,4,7                  -> 0x9A
//	values  [6,3,5,1] @3b: 6|3<<3|5<<6|1<<9 = 0x35E -> 0x5E, 0x03
//	idxsync [2,2]     @3b (BitsFor(4)): 2|2<<3 -> 0x12
//
// SizeBits: 8 mask + 1024 (12 value bits padded to one 128-byte NVDLA
// group) + 6 counter bits = 1038.
func TestBitMaskGoldenVectors(t *testing.T) {
	indices := []uint8{
		0, 6, 0, 3,
		5, 0, 0, 1,
	}
	enc, err := EncodeBitMask(indices, 2, 4, 3, BitMaskOptions{IdxSync: true, MaskBlockBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s stream = %x, want %x", name, got, want)
		}
	}
	check("bitmask", packed(enc.Mask.Bits), []byte{0x9A})
	check("values", packed(enc.Values.Bits), []byte{0x5E, 0x03})
	if enc.Counters == nil {
		t.Fatal("IdxSync counters missing")
	}
	check("idxsync", packed(enc.Counters.Bits), []byte{0x12})
	if enc.Counters.ElemBits != 3 {
		t.Errorf("counter width = %d bits, want 3 (BitsFor(4))", enc.Counters.ElemBits)
	}
	if got := enc.SizeBits(); got != 1038 {
		t.Errorf("SizeBits = %d, want 1038 (8 mask + 1024 padded values + 6 counters)", got)
	}

	decoded := enc.Decode()
	for i := range indices {
		if decoded[i] != indices[i] {
			t.Fatalf("decode mismatch at %d: got %d want %d", i, decoded[i], indices[i])
		}
	}
}

// TestBitMaskGoldenNoIdxSync pins the plain NVDLA layout: same matrix,
// no counter stream, and the mask/value bytes unchanged.
func TestBitMaskGoldenNoIdxSync(t *testing.T) {
	indices := []uint8{
		0, 6, 0, 3,
		5, 0, 0, 1,
	}
	enc, err := EncodeBitMask(indices, 2, 4, 3, BitMaskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if enc.Counters != nil {
		t.Fatal("unexpected IdxSync counters")
	}
	if !bytes.Equal(packed(enc.Mask.Bits), []byte{0x9A}) {
		t.Errorf("bitmask = %x, want 9a", packed(enc.Mask.Bits))
	}
	if !bytes.Equal(packed(enc.Values.Bits), []byte{0x5E, 0x03}) {
		t.Errorf("values = %x, want 5e03", packed(enc.Values.Bits))
	}
	if got := enc.SizeBits(); got != 1032 {
		t.Errorf("SizeBits = %d, want 1032 (8 mask + 1024 padded values)", got)
	}
}

// packed is a's bits as ceil(Len/8) bytes, bit i of the array in bit
// i%8 of byte i/8, with zero padding: a stable view for golden vectors.
func packed(a *bitstream.Array) []byte {
	out := make([]byte, (a.Len()+7)/8)
	for i := range out {
		out[i] = byte(a.GetBits(8*i, min(8, a.Len()-8*i)))
	}
	return out
}

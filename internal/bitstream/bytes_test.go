package bitstream

import (
	"bytes"
	"testing"
)

// TestBytesLayout pins the byte view GetBits gives: bit i of the array
// is bit i%8 of byte i/8, and pad bits are zero.
func TestBytesLayout(t *testing.T) {
	a := New(12)
	for _, i := range []int{0, 3, 8, 11} {
		a.SetBit(i, 1)
	}
	// Bits 0,3 -> byte0 = 0x09; bits 8,11 -> byte1 = 0x09 (pad high bits zero).
	if got := packed(a); !bytes.Equal(got, []byte{0x09, 0x09}) {
		t.Errorf("packed = %x, want 0909", got)
	}
}

// TestBytesWordBoundary checks bytes spanning the 64-bit word seams.
func TestBytesWordBoundary(t *testing.T) {
	a := New(128)
	a.SetBits(56, 16, 0xABCD) // straddles the word 0 / word 1 seam
	got := packed(a)
	if len(got) != 16 {
		t.Fatalf("len = %d, want 16", len(got))
	}
	if got[7] != 0xCD || got[8] != 0xAB {
		t.Errorf("bytes[7:9] = %x %x, want cd ab", got[7], got[8])
	}
	for i, b := range got {
		if i != 7 && i != 8 && b != 0 {
			t.Errorf("byte %d = %x, want 0", i, b)
		}
	}
}

// TestBytesEmpty checks the zero-length array yields an empty slice.
func TestBytesEmpty(t *testing.T) {
	if got := packed(New(0)); len(got) != 0 {
		t.Errorf("packed empty array has %d bytes", len(got))
	}
}

// packed is a's bits as ceil(Len/8) bytes read through GetBits.
func packed(a *Array) []byte {
	out := make([]byte, (a.Len()+7)/8)
	for i := range out {
		out[i] = byte(a.GetBits(8*i, min(8, a.Len()-8*i)))
	}
	return out
}

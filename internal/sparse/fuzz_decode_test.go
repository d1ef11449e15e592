package sparse

import (
	"testing"
)

// Native fuzz targets (go test -fuzz=FuzzCSRDecode ./internal/sparse).
// The fuzzer controls the raw stored bits of every stream; the decoders
// must uphold the hardware contract no matter what is stored: output
// length is exactly rows*cols, every value fits in valueBits, and no
// read escapes the stream bounds (a violation panics, which the fuzzer
// reports). Without -fuzz the seed corpus runs as a regression test.

// stuffBits overwrites an encoding's stored bits with fuzzer-chosen
// data, cycling through the input so short inputs still touch every
// stream.
func stuffBits(e Encoding, data []byte) {
	if len(data) == 0 {
		return
	}
	pos := 0
	for _, s := range e.Streams() {
		n := s.Bits.Len()
		for i := 0; i < n; i++ {
			b := data[pos%len(data)]
			s.Bits.SetBit(i, uint64((b>>(pos%8))&1))
			pos++
		}
	}
}

func checkDecode(t *testing.T, e Encoding, rows, cols, valueBits int) {
	t.Helper()
	dec := e.Decode()
	if len(dec) != rows*cols {
		t.Fatalf("decode length %d, want %d", len(dec), rows*cols)
	}
	limit := uint8(1) << uint(valueBits)
	for i, v := range dec {
		if v >= limit {
			t.Fatalf("decoded value %d at %d exceeds %d-bit range", v, i, valueBits)
		}
	}
}

// FuzzCSRDecode is differential: Decode and its overrun count must
// match the bit-serial reference on whatever bits the fuzzer stores. The
// seed's high byte picks the relative index width (1..4 bits).
func FuzzCSRDecode(f *testing.F) {
	f.Add(uint16(1), []byte{0x00})
	f.Add(uint16(7), []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(uint16(42), []byte{0xa5, 0x0f, 0x3c, 0x81, 0x7e})
	f.Add(uint16(99), []byte{0x01, 0x80, 0x40, 0x02, 0x20, 0x04})
	f.Add(uint16(0x0305), []byte{0x10, 0x00, 0x00, 0x80})
	f.Fuzz(func(t *testing.T, seed uint16, data []byte) {
		const rows, cols, valueBits = 9, 33, 4
		idx := randomIndices(rows, cols, 0.7, valueBits, uint64(seed))
		enc, err := EncodeCSR(idx, rows, cols, valueBits, 1+int(seed>>8)%4)
		if err != nil {
			t.Fatal(err)
		}
		stuffBits(enc, data)
		checkDecode(t, enc, rows, cols, valueBits)
		checkCSRMatchesRef(t, enc)
	})
}

// FuzzBitMaskDecode is differential like FuzzCSRDecode. The fuzzer also
// picks the IdxSync block size, 1..300 mask bits, so block boundaries
// fall inside mask words as well as on them.
func FuzzBitMaskDecode(f *testing.F) {
	f.Add(uint16(1), true, uint16(63), []byte{0x00})
	f.Add(uint16(7), false, uint16(63), []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(uint16(42), true, uint16(63), []byte{0xa5, 0x0f, 0x3c, 0x81, 0x7e})
	f.Add(uint16(99), false, uint16(63), []byte{0x01, 0x80, 0x40, 0x02, 0x20, 0x04})
	f.Add(uint16(5), true, uint16(0), []byte{0x5a, 0xc3})
	f.Add(uint16(11), true, uint16(99), []byte{0xfe, 0x01, 0x77})
	f.Add(uint16(13), true, uint16(299), []byte{0x00, 0xff})
	f.Fuzz(func(t *testing.T, seed uint16, idxSync bool, blockBits uint16, data []byte) {
		const rows, cols, valueBits = 7, 41, 4
		idx := randomIndices(rows, cols, 0.6, valueBits, uint64(seed))
		enc, err := EncodeBitMask(idx, rows, cols, valueBits,
			BitMaskOptions{IdxSync: idxSync, MaskBlockBits: 1 + int(blockBits)%300})
		if err != nil {
			t.Fatal(err)
		}
		stuffBits(enc, data)
		checkDecode(t, enc, rows, cols, valueBits)
		checkBitMaskMatchesRef(t, enc)
	})
}

func TestEncodeErrorPaths(t *testing.T) {
	idx := make([]uint8, 12)
	if _, err := EncodeCSR(idx, 3, 5, 4, 4); err == nil {
		t.Error("shape mismatch accepted by EncodeCSR")
	}
	if _, err := EncodeCSR(idx, 3, 4, 4, 0); err == nil {
		t.Error("indexBits 0 accepted")
	}
	if _, err := EncodeCSR(idx, 3, 4, 4, 32); err == nil {
		t.Error("indexBits 32 accepted")
	}
	if _, err := EncodeBitMask(idx, 5, 5, 4, BitMaskOptions{}); err == nil {
		t.Error("shape mismatch accepted by EncodeBitMask")
	}
	if _, err := EncodeBitMask(idx, 3, 4, 4, BitMaskOptions{MaskBlockBits: -1}); err == nil {
		t.Error("negative block size accepted")
	}
	if _, err := EncodeDense(idx, 5, 5, 4); err == nil {
		t.Error("shape mismatch accepted by EncodeDense")
	}
	if _, err := Encode(Kind(99), idx, 3, 4, 4); err == nil {
		t.Error("unknown kind accepted by Encode")
	}
	if _, err := CloneEncoding(nil); err == nil {
		t.Error("nil encoding accepted by CloneEncoding")
	}
	defer func() {
		if recover() == nil {
			t.Error("Must should panic on error")
		}
	}()
	Must(Encode(Kind(99), idx, 3, 4, 4))
}

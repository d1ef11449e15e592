package sparse

import (
	"slices"
	"testing"

	"repro/internal/telemetry"
)

// overrunCounter returns the overrun counter a decode of e moves (nil
// for the dense format, which counts none).
func overrunCounter(e Encoding) *telemetry.Counter {
	switch e.(type) {
	case *CSR:
		return met.csrOverruns
	case *BitMask:
		return met.bitmaskOverruns
	case *E24:
		return met.e24Overruns
	}
	return nil
}

// checkRedecode changes bits [lo, hi) of stream s of a copy of enc by
// XOR with pattern (cycled; bits past the stream are left alone), then
// fails unless Checkpoints.Redecode into enc's decode equals a full
// DecodeInto of the copy element for element, with the same overrun
// reads.
func checkRedecode(t *testing.T, enc Encoding, s, lo, hi int, pattern []byte) {
	t.Helper()
	n := len(enc.Decode())
	ref := make([]uint8, n)
	ck := DecodeCheckpoints(enc, ref)
	if !slices.Equal(ref, enc.Decode()) {
		t.Fatal("DecodeCheckpoints differs from Decode")
	}
	work := Must(CloneEncoding(enc))
	bits := work.Streams()[s].Bits
	for i := lo; i < min(hi, bits.Len()) && len(pattern) > 0; i++ {
		b := pattern[(i-lo)/8%len(pattern)]
		bits.SetBit(i, bits.Bit(i)^uint64(b>>uint((i-lo)%8)&1))
	}
	c := overrunCounter(enc)
	want := make([]uint8, n)
	wantOver := int64(0)
	if c != nil {
		wantOver = overrunDelta(c, func() { work.DecodeInto(want) })
	} else {
		work.DecodeInto(want)
	}
	got := slices.Clone(ref)
	var from, to int
	redecode := func() { from, to = ck.Redecode(work, got, s, lo, hi) }
	gotOver := int64(0)
	if c != nil {
		gotOver = overrunDelta(c, redecode)
	} else {
		redecode()
	}
	if from < 0 || from > to || to > n {
		t.Fatalf("stream %d bits [%d, %d): re-decoded range [%d, %d) outside [0, %d)", s, lo, hi, from, to, n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stream %d bits [%d, %d): element %d re-decodes to %d, full decode %d (re-decoded [%d, %d))",
				s, lo, hi, i, got[i], want[i], from, to)
		}
	}
	if gotOver != wantOver {
		t.Fatalf("stream %d bits [%d, %d): re-decode overran %d reads, full decode %d", s, lo, hi, gotOver, wantOver)
	}
}

// FuzzRedecode holds the bounded re-decode to a full decode over
// random shapes, densities, formats (IdxSync block sizes included),
// streams and changed bit ranges. The range may run past the end of the
// stream, as an ECC block's does.
func FuzzRedecode(f *testing.F) {
	f.Add(uint16(1), uint8(1), uint8(9), uint8(33), uint8(70), uint8(0), uint16(5), uint8(1), []byte{0x01})
	f.Add(uint16(2), uint8(2), uint8(40), uint8(61), uint8(50), uint8(0), uint16(1500), uint8(3), []byte{0x05})
	f.Add(uint16(3), uint8(3), uint8(40), uint8(61), uint8(50), uint8(2), uint16(9), uint8(11), []byte{0xff})
	f.Add(uint16(4), uint8(4), uint8(23), uint8(37), uint8(40), uint8(1), uint16(30), uint8(64), []byte{0xa5, 0x3c})
	f.Add(uint16(5), uint8(0), uint8(23), uint8(37), uint8(40), uint8(0), uint16(100), uint8(200), []byte{0x0f})
	f.Add(uint16(6), uint8(2), uint8(3), uint8(250), uint8(95), uint8(1), uint16(700), uint8(255), []byte{0x80, 0x01})
	f.Add(uint16(7), uint8(3), uint8(30), uint8(99), uint8(60), uint8(0), uint16(2900), uint8(2), []byte{0x02})
	f.Fuzz(func(t *testing.T, seed uint16, kind, rows, cols, sparsity uint8, stream uint8, lo uint16, width uint8, pattern []byte) {
		r, c := 1+int(rows)%48, 1+int(cols)%300
		idx := randomIndices(r, c, float64(sparsity%100)/100, 4, uint64(seed))
		var enc Encoding
		switch kind % 5 {
		case 0:
			enc = Must(EncodeDense(idx, r, c, 4))
		case 1:
			enc = Must(EncodeCSR(idx, r, c, 4, 1+int(seed>>8)%5))
		case 2, 3:
			opt := BitMaskOptions{IdxSync: kind%5 == 3}
			if seed&1 == 1 {
				opt.MaskBlockBits = 1 + int(seed>>1)%1500
			}
			enc = Must(EncodeBitMask(idx, r, c, 4, opt))
		case 4:
			enc = Must(Encode24(idx, r, c, 4, nil))
		}
		streams := enc.Streams()
		s := int(stream) % len(streams)
		nbits := streams[s].Bits.Len()
		if nbits == 0 {
			return
		}
		l := int(lo) % nbits
		checkRedecode(t, enc, s, l, l+1+int(width), pattern)
	})
}

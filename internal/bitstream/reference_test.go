package bitstream

// Property tests of the word-level accessors against bit-serial
// references that touch one bit at a time through Bit and SetBit.

import (
	"testing"

	"repro/internal/stats"
)

// refGetBits reads n bits at off one bit at a time, zero past Len.
func refGetBits(a *Array, off, n int) uint64 {
	var v uint64
	for k := 0; k < n && off+k < a.Len(); k++ {
		v |= a.Bit(off+k) << uint(k)
	}
	return v
}

// refSetBits writes the low n bits of v at off one bit at a time,
// dropping bits past Len.
func refSetBits(a *Array, off, n int, v uint64) {
	for k := 0; k < n && off+k < a.Len(); k++ {
		a.SetBit(off+k, (v>>uint(k))&1)
	}
}

func randomArray(nbits int, src *stats.Source) *Array {
	a := New(nbits)
	for i := 0; i < nbits; i++ {
		if src.Bernoulli(0.5) {
			a.SetBit(i, 1)
		}
	}
	return a
}

// TestGetSetBitsMatchReference checks every offset 0..129 and every width
// 0..64 on arrays whose end falls inside, at and past the accessed range,
// so zero-filled reads and dropped writes at the tail are covered. Equal
// compares whole words, so it also checks that writes keep the padding
// past Len zero.
func TestGetSetBitsMatchReference(t *testing.T) {
	src := stats.NewSource(11)
	for _, nbits := range []int{1, 63, 64, 100, 128, 130, 194} {
		a := randomArray(nbits, src)
		for off := 0; off <= 129; off++ {
			for n := 0; n <= 64; n++ {
				if got, want := a.GetBits(off, n), refGetBits(a, off, n); got != want {
					t.Fatalf("len %d GetBits(%d, %d) = %#x, want %#x", nbits, off, n, got, want)
				}
				v := src.Uint64()
				got, want := a.Clone(), a.Clone()
				got.SetBits(off, n, v)
				refSetBits(want, off, n, v)
				if !got.Equal(want) {
					t.Fatalf("len %d SetBits(%d, %d, %#x) differs from the bit-serial write", nbits, off, n, v)
				}
			}
		}
	}
}

// TestStreamCursorsMatchReference: FromValues (uint32 and uint8), Values,
// Values8, Values8From (from every kind of start offset) and Reader
// agree with element-by-element bit-serial packing at every element
// width.
func TestStreamCursorsMatchReference(t *testing.T) {
	src := stats.NewSource(12)
	for w := 1; w <= 32; w++ {
		for _, n := range []int{0, 1, 5, 63, 64, 65, 200} {
			vals := make([]uint32, n)
			for i := range vals {
				vals[i] = uint32(src.Uint64() & (1<<uint(w) - 1))
			}
			s := FromValues("s", w, vals)
			want := New(n * w)
			for i, v := range vals {
				refSetBits(want, i*w, w, uint64(v))
			}
			if !s.Bits.Equal(want) {
				t.Fatalf("width %d n %d: FromValues packs differently", w, n)
			}
			got := s.Values()
			r := s.Reader(0)
			for i, v := range vals {
				if got[i] != v || r.Next() != uint64(v) {
					t.Fatalf("width %d n %d: element %d reads %d, want %d", w, n, i, got[i], v)
				}
			}
			if r.Next() != 0 {
				t.Fatalf("width %d n %d: read past N is not zero", w, n)
			}
			if w > 8 {
				continue
			}
			v8 := make([]uint8, n)
			for i, v := range vals {
				v8[i] = uint8(v)
			}
			s8 := FromValues("s", w, v8)
			if !s8.Bits.Equal(want) || string(s8.Values8()) != string(v8) {
				t.Fatalf("width %d n %d: uint8 FromValues/Values8 round trip differs", w, n)
			}
			for first := 0; first <= n; first += 1 + first/3 {
				for _, m := range []int{0, 1, 7, 64, n - first} {
					if m < 0 || first+m > n {
						continue
					}
					part := make([]uint8, m)
					s8.Values8From(first, part)
					if string(part) != string(v8[first:first+m]) {
						t.Fatalf("width %d n %d: Values8From(%d) of %d elements differs", w, n, first, m)
					}
				}
			}
		}
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	a := New(100)
	mustPanic("GetBits width 65", func() { a.GetBits(0, 65) })
	mustPanic("GetBits width -1", func() { a.GetBits(0, -1) })
	mustPanic("GetBits negative offset", func() { a.GetBits(-1, 3) })
	mustPanic("SetBits width 65", func() { a.SetBits(0, 65, 0) })
	mustPanic("SetBits negative offset", func() { a.SetBits(-1, 3, 0) })
	mustPanic("FromValues too wide", func() { FromValues("s", 3, []uint32{1, 8}) })
	mustPanic("uint8 FromValues too wide", func() { FromValues("s", 2, []uint8{4}) })
	s := NewStream("s", 9, 4)
	mustPanic("Values8 on 9-bit stream", func() { s.Values8() })
	mustPanic("Values8From past N", func() { NewStream("s", 4, 4).Values8From(3, make([]uint8, 2)) })
	mustPanic("Get past N", func() { s.Get(4) })
	mustPanic("Set too wide", func() { s.Set(0, 512) })
	mustPanic("Reader negative element", func() { s.Reader(-1) })
}

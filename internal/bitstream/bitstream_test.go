package bitstream

import (
	"testing"
	"testing/quick"
)

func TestBitSetGet(t *testing.T) {
	a := New(130) // crosses word boundaries
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		a.SetBit(i, 1)
		if a.Bit(i) != 1 {
			t.Fatalf("bit %d not set", i)
		}
		a.SetBit(i, 0)
		if a.Bit(i) != 0 {
			t.Fatalf("bit %d not cleared", i)
		}
	}
}

func TestFlipBit(t *testing.T) {
	a := New(10)
	a.FlipBit(3)
	if a.Bit(3) != 1 {
		t.Fatal("flip 0->1 failed")
	}
	a.FlipBit(3)
	if a.Bit(3) != 0 {
		t.Fatal("flip 1->0 failed")
	}
}

func TestGetSetBitsCrossWord(t *testing.T) {
	a := New(200)
	// Write a 13-bit value straddling the 64-bit boundary.
	a.SetBits(58, 13, 0x1ABC&0x1FFF)
	if got := a.GetBits(58, 13); got != 0x1ABC&0x1FFF {
		t.Fatalf("cross-word roundtrip = %#x", got)
	}
	// Neighbors untouched.
	if a.GetBits(0, 58) != 0 {
		t.Error("low bits disturbed")
	}
	if a.GetBits(71, 64) != 0 {
		t.Error("high bits disturbed")
	}
}

func TestGetBitsZeroFillTail(t *testing.T) {
	a := New(10)
	a.SetBits(0, 10, 0x3FF)
	// Reading 16 bits from offset 6: only 4 real bits, rest zero.
	if got := a.GetBits(6, 16); got != 0xF {
		t.Fatalf("tail read = %#x, want 0xF", got)
	}
}

func TestSetBitsDropsTail(t *testing.T) {
	a := New(8)
	a.SetBits(4, 8, 0xFF) // only 4 bits land
	if got := a.GetBits(0, 8); got != 0xF0 {
		t.Fatalf("got %#x, want 0xF0", got)
	}
}

func TestCloneEqualDiff(t *testing.T) {
	a := New(100)
	a.SetBits(10, 20, 0xABCDE)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.FlipBit(50)
	if a.Equal(b) {
		t.Fatal("equal after mutation")
	}
	if d := a.DiffBits(b); d != 1 {
		t.Fatalf("DiffBits = %d, want 1", d)
	}
}

func TestPopCount(t *testing.T) {
	a := New(70)
	for i := 0; i < 70; i += 7 {
		a.SetBit(i, 1)
	}
	if a.PopCount() != 10 {
		t.Fatalf("popcount = %d, want 10", a.PopCount())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	a := New(8)
	for _, f := range []func(){
		func() { a.Bit(8) },
		func() { a.Bit(-1) },
		func() { a.SetBit(8, 1) },
		func() { New(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestStreamRoundTrip(t *testing.T) {
	s := NewStream("test", 5, 20)
	for i := 0; i < 20; i++ {
		s.Set(i, uint64(i%32))
	}
	for i := 0; i < 20; i++ {
		if s.Get(i) != uint64(i%32) {
			t.Fatalf("element %d = %d", i, s.Get(i))
		}
	}
}

func TestStreamPropertyRoundTrip(t *testing.T) {
	f := func(vals []uint16, widthSeed uint8) bool {
		if len(vals) == 0 {
			return true
		}
		width := int(widthSeed%16) + 1
		s := NewStream("p", width, len(vals))
		mask := uint64(1)<<uint(width) - 1
		for i, v := range vals {
			s.Set(i, uint64(v)&mask)
		}
		for i, v := range vals {
			if s.Get(i) != uint64(v)&mask {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStreamFromValues(t *testing.T) {
	s := FromValues("v", 4, []uint32{1, 15, 0, 7})
	got := values(s)
	want := []uint32{1, 15, 0, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("values = %v", got)
		}
	}
	if s.SizeBits() != 16 {
		t.Errorf("SizeBits = %d", s.SizeBits())
	}
}

func TestStreamSetRejectsOversized(t *testing.T) {
	s := NewStream("x", 3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Set(0, 8)
}

func TestStreamCloneIndependent(t *testing.T) {
	s := FromValues("v", 8, []uint32{1, 2, 3})
	c := s.Clone()
	c.Set(0, 99)
	if s.Get(0) != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 255: 8, 256: 9, 1024: 11}
	for in, want := range cases {
		if got := BitsFor(in); got != want {
			t.Errorf("BitsFor(%d) = %d, want %d", in, got, want)
		}
	}
}

// values extracts all elements of s into a fresh slice.
func values(s *Stream) []uint32 {
	out := make([]uint32, s.N)
	unpack(s, out, 0)
	return out
}

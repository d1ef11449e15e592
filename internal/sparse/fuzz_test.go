package sparse

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// Decoders must behave like hardware: any corruption of the stored
// structures yields a well-formed (if wrong) reconstruction — correct
// length, in-range values, no panic. These property tests batter every
// encoding with random bit garbage.

func corruptRandomly(e Encoding, src *stats.Source, flips int) {
	streams := e.Streams()
	for f := 0; f < flips; f++ {
		s := streams[src.Intn(len(streams))]
		if s.Bits.Len() == 0 {
			continue
		}
		s.Bits.FlipBit(src.Intn(s.Bits.Len()))
	}
}

func TestDecodersSurviveRandomCorruption(t *testing.T) {
	f := func(seed uint16, sp uint8, flipSeed uint8) bool {
		src := stats.NewSource(uint64(seed)*97 + 1)
		sparsity := float64(sp%100) / 100
		idx := randomIndices(12, 40, sparsity, 4, uint64(seed))
		flips := int(flipSeed%64) + 1
		for _, kind := range Kinds {
			enc := Must(Encode(kind, idx, 12, 40, 4))
			corruptRandomly(enc, src, flips)
			dec := enc.Decode()
			if len(dec) != len(idx) {
				return false
			}
			for _, v := range dec {
				if v >= 16 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// DecodeInto must equal Decode whatever the buffer held before: one
// buffer is reused, dirty, across every kind and corruption.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	src := stats.NewSource(5)
	buf := make([]uint8, 12*40)
	for trial := 0; trial < 40; trial++ {
		idx := randomIndices(12, 40, float64(trial%10)/10, 4, uint64(trial))
		for _, kind := range Kinds {
			enc := Must(Encode(kind, idx, 12, 40, 4))
			corruptRandomly(enc, src, trial%8)
			for i := range buf {
				buf[i] = uint8(src.Intn(256))
			}
			enc.DecodeInto(buf)
			if want := enc.Decode(); string(buf) != string(want) {
				t.Fatalf("trial %d, %v: DecodeInto differs from Decode", trial, kind)
			}
		}
	}
	for _, kind := range Kinds {
		enc := Must(Encode(kind, make([]uint8, 12*40), 12, 40, 4))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: DecodeInto accepted a buffer of the wrong length", kind)
				}
			}()
			enc.DecodeInto(make([]uint8, 12*40-1))
		}()
	}
}

func TestDecodersSurviveTotalGarbage(t *testing.T) {
	// Saturate every structure with all-ones: the worst possible stored
	// state.
	idx := randomIndices(10, 30, 0.5, 4, 3)
	for _, kind := range Kinds {
		enc := Must(Encode(kind, idx, 10, 30, 4))
		for _, s := range enc.Streams() {
			for i := 0; i < s.N; i++ {
				s.Set(i, uint64(1)<<uint(s.ElemBits)-1)
			}
		}
		dec := enc.Decode() // must not panic
		if len(dec) != len(idx) {
			t.Fatalf("%v: garbage decode length %d", kind, len(dec))
		}
	}
}

func TestCloneEncodingIsolation(t *testing.T) {
	f := func(seed uint16) bool {
		idx := randomIndices(8, 24, 0.6, 4, uint64(seed))
		for _, kind := range Kinds {
			enc := Must(Encode(kind, idx, 8, 24, 4))
			clone := Must(CloneEncoding(enc))
			src := stats.NewSource(uint64(seed) + 5)
			corruptRandomly(clone, src, 16)
			// The original must still decode perfectly.
			if !equalU8(enc.Decode(), idx) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

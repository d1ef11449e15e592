package bitstream

import (
	"math/rand"
	"testing"
)

// TestPopCountDiffBitsMatchBitSerial checks the word-at-a-time PopCount
// and DiffBits against a bit-by-bit count on random arrays of random
// lengths, partial final words included, after random bit-level and
// element-level writes (which must leave the padding bits zero).
func TestPopCountDiffBitsMatchBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fill := func(a *Array) {
		for k := 0; k < a.Len()/3; k++ {
			a.FlipBit(rng.Intn(a.Len()))
		}
		if a.Len() > 0 {
			a.SetBits(rng.Intn(a.Len()), 1+rng.Intn(64), rng.Uint64())
		}
	}
	for iter := 0; iter < 500; iter++ {
		n := rng.Intn(700)
		if iter < 130 {
			n = iter // every tail length from an empty array to two words
		}
		a, b := New(n), New(n)
		fill(a)
		fill(b)
		wantPop, wantDiff := 0, 0
		for i := 0; i < n; i++ {
			wantPop += int(a.Bit(i))
			if a.Bit(i) != b.Bit(i) {
				wantDiff++
			}
		}
		if got := a.PopCount(); got != wantPop {
			t.Fatalf("len %d: PopCount = %d, bit-serial %d", n, got, wantPop)
		}
		if got := a.DiffBits(b); got != wantDiff {
			t.Fatalf("len %d: DiffBits = %d, bit-serial %d", n, got, wantDiff)
		}
	}
}

package ecc

// Bit-serial SEC-DED reference: one data bit at a time, each mapped to
// its codeword position by walking the powers of two. The production
// codec reads 64-bit words and uses the closed-form position; the
// differential tests hold it to this reference bit for bit.

import (
	"testing"

	"repro/internal/bitstream"
)

// refDataPosition maps the k-th data bit of a block (0-based) to its
// 1-based codeword position, skipping the power-of-two parity slots.
func refDataPosition(k int) int {
	pos := k + 1
	for pow := 1; pow <= pos; pow <<= 1 {
		pos++
	}
	return pos
}

// refSyndrome is the syndrome and overall parity of block b, given the
// block's stored parity bits (r Hamming bits, then the overall bit).
func refSyndrome(c BlockCode, data *bitstream.Array, par []uint64, b int) (syndrome, overall uint64) {
	lo, hi := b*c.DataBits, min((b+1)*c.DataBits, data.Len())
	for i := lo; i < hi; i++ {
		if data.Bit(i) == 1 {
			syndrome ^= uint64(refDataPosition(i - lo))
			overall ^= 1
		}
	}
	for j := 0; j < c.hammingBits; j++ {
		if par[j] == 1 {
			syndrome ^= 1 << uint(j)
			overall ^= 1
		}
	}
	return syndrome, overall ^ par[c.hammingBits]
}

// refProtect returns the parity bits of every block, one bit per element.
func refProtect(c BlockCode, data *bitstream.Array) []uint64 {
	ppb := c.ParityBitsPerBlock()
	par := make([]uint64, c.Blocks(data.Len())*ppb)
	for b := 0; b < c.Blocks(data.Len()); b++ {
		blk := par[b*ppb : (b+1)*ppb]
		syndrome, overall := refSyndrome(c, data, blk, b)
		for j := 0; j < c.hammingBits; j++ {
			blk[j] = (syndrome >> uint(j)) & 1
			overall ^= blk[j]
		}
		blk[c.hammingBits] = overall
	}
	return par
}

// refCorrect corrects data and par in place, block by block.
func refCorrect(c BlockCode, data *bitstream.Array, par []uint64) CorrectOutcome {
	return refCorrectBlocks(c, data, par, 0, c.Blocks(data.Len()))
}

// refCorrectBlocks is refCorrect over blocks [lo, hi) only.
func refCorrectBlocks(c BlockCode, data *bitstream.Array, par []uint64, lo, hi int) CorrectOutcome {
	var out CorrectOutcome
	ppb := c.ParityBitsPerBlock()
	for b := lo; b < hi; b++ {
		blk := par[b*ppb : (b+1)*ppb]
		syndrome, overall := refSyndrome(c, data, blk, b)
		switch {
		case syndrome == 0 && overall == 0:
		case overall == 1:
			out.Corrected++
			if syndrome == 0 {
				blk[c.hammingBits] ^= 1
				break
			}
			if syndrome&(syndrome-1) == 0 {
				j := 0
				for uint64(1)<<uint(j) != syndrome {
					j++
				}
				blk[j] ^= 1
				break
			}
			// Invert refDataPosition: find k with position == syndrome.
			lo, hi := b*c.DataBits, min((b+1)*c.DataBits, data.Len())
			for k := 0; lo+k < hi; k++ {
				if uint64(refDataPosition(k)) == syndrome {
					data.FlipBit(lo + k)
					break
				}
			}
		default:
			out.Detected++
			out.Bad = append(out.Bad, b)
		}
	}
	return out
}

// parityBits reads a parity stream one element at a time.
func parityBits(s *bitstream.Stream) []uint64 {
	out := make([]uint64, s.N)
	for i := range out {
		out[i] = s.Bits.Bit(i)
	}
	return out
}

// TestClosedFormPosition: the closed-form codeword position used by
// syndromeOf and correctPosition equals the power-of-two walk. The
// inverse (correctPosition) is checked for every data bit below 2^22;
// the forward map (syndromeOf, on a block truncated just past the bit)
// for every bit below 2^12 and around every power of two up to 2^22,
// where the closed form's bit lengths change.
func TestClosedFormPosition(t *testing.T) {
	const kMax = 1 << 22
	code := NewBlockCode(kMax)
	parity := bitstream.NewStream("ecc-parity", 1, code.ParityBitsPerBlock())
	big := &Protected{Code: code, Data: bitstream.New(kMax), Parity: parity}
	for k := 0; k < kMax; k++ {
		big.correctPosition(0, uint64(refDataPosition(k)))
		if big.Data.Bit(k) != 1 {
			t.Fatalf("correctPosition(%d) missed data bit %d", refDataPosition(k), k)
		}
		big.Data.FlipBit(k)
	}
	forward := func(k int) {
		p := &Protected{Code: code, Data: bitstream.New(k + 1), Parity: parity}
		p.Data.SetBit(k, 1)
		if s, _ := p.syndromeOf(0); s != uint64(refDataPosition(k)) {
			t.Fatalf("data bit %d: syndrome %d, want position %d", k, s, refDataPosition(k))
		}
	}
	for k := 0; k < 1<<12; k++ {
		forward(k)
	}
	for j := 12; j <= 22; j++ {
		for k := 1<<j - 2*j - 4; k <= 1<<j+4 && k < kMax; k++ {
			forward(k)
		}
	}
}

// TestProtectCorrectMatchReference: parity, correction outcome and the
// corrected data/parity match the bit-serial reference over block sizes
// that are and are not multiples of 64, truncated last blocks included.
func TestProtectCorrectMatchReference(t *testing.T) {
	for _, db := range []int{1, 2, 5, 63, 64, 65, 100, 128, 512, 1000} {
		for _, nbits := range []int{1, 7, 64, 200, 1024, 3001} {
			raw := make([]byte, (nbits+7)/8)
			for i := range raw {
				raw[i] = byte(i*73 + db*31 + nbits)
			}
			for flips := uint64(0); flips < 8; flips++ {
				checkCodec(t, raw, nbits, db, flips, uint64(db*nbits)+flips)
			}
		}
	}
}

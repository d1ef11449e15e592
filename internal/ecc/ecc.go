// Package ecc implements the error-protection machinery from Section 3.3
// of the paper: reflected Gray coding (so that an adjacent-level MLC
// fault flips exactly one stored bit) and Hamming single-error-correct /
// double-error-detect (SEC-DED) block codes, including the paper's
// lightweight configuration of ~24 parity bits per 4 KB data block.
package ecc

import (
	"fmt"
	"math/bits"

	"repro/internal/bitstream"
)

// Gray returns the reflected Gray code of x: adjacent integers map to
// codewords differing in exactly one bit. MLC storage uses this mapping
// so a level-to-level misread is a single correctable bit flip.
func Gray(x uint64) uint64 { return x ^ (x >> 1) }

// GrayInv inverts Gray: GrayInv(Gray(x)) == x.
func GrayInv(g uint64) uint64 {
	x := g
	for shift := uint(1); shift < 64; shift <<= 1 {
		x ^= x >> shift
	}
	return x
}

// BlockCode describes a Hamming SEC-DED code applied independently to
// fixed-size blocks of a data bit array.
type BlockCode struct {
	// DataBits is the number of data bits per block.
	DataBits int
	// hammingBits is the number of Hamming parity bits r
	// (2^r >= DataBits + r + 1).
	hammingBits int
}

// NewBlockCode returns a SEC-DED code over dataBits-bit blocks.
func NewBlockCode(dataBits int) BlockCode {
	if dataBits < 1 {
		panic("ecc: block must have at least 1 data bit")
	}
	r := 2
	for (1 << uint(r)) < dataBits+r+1 {
		r++
	}
	return BlockCode{DataBits: dataBits, hammingBits: r}
}

// ParityBitsPerBlock returns the stored parity bits per block: r Hamming
// bits plus 1 overall parity (SEC-DED).
func (c BlockCode) ParityBitsPerBlock() int { return c.hammingBits + 1 }

// Blocks returns the number of blocks needed to cover dataBits bits.
func (c BlockCode) Blocks(dataBits int) int {
	if dataBits == 0 {
		return 0
	}
	return (dataBits + c.DataBits - 1) / c.DataBits
}

// ParityBits returns the total parity storage for dataBits data bits.
func (c BlockCode) ParityBits(dataBits int) int64 {
	return int64(c.Blocks(dataBits)) * int64(c.ParityBitsPerBlock())
}

// Protected couples a data bit array with its parity storage. The parity
// lives in its own stream so fault injection can target it like any other
// stored structure.
type Protected struct {
	Code BlockCode
	// Data is the protected bit array (owned by the caller; corrected in
	// place by Correct).
	Data *bitstream.Array
	// Parity holds ParityBitsPerBlock bits per block.
	Parity *bitstream.Stream
}

// Protect computes parity over data using code c. The returned Protected
// references data directly.
func (c BlockCode) Protect(data *bitstream.Array) *Protected {
	nBlocks := c.Blocks(data.Len())
	parity := bitstream.NewStream("ecc-parity", 1, nBlocks*c.ParityBitsPerBlock())
	p := &Protected{Code: c, Data: data, Parity: parity}
	for b := 0; b < nBlocks; b++ {
		p.writeParity(b)
	}
	return p
}

// blockRange returns the data bit range [lo, hi) of block b.
func (p *Protected) blockRange(b int) (lo, hi int) {
	lo = b * p.Code.DataBits
	hi = lo + p.Code.DataBits
	if hi > p.Data.Len() {
		hi = p.Data.Len()
	}
	return lo, hi
}

// syndromeOf computes the Hamming syndrome and overall parity of block b
// from the current data and given parity bits. It reads the data 64 bits
// at a time and walks the set bits: data bit k of a block sits at
// codeword position m + bits.Len(m + bits.Len(m)) for m = k+1, the k-th
// position that is not a power of two (those hold the parity bits).
func (p *Protected) syndromeOf(b int) (syndrome uint64, overall uint64) {
	lo, hi := p.blockRange(b)
	ones := 0
	for i := lo; i < hi; i += 64 {
		w := p.Data.GetBits(i, min(64, hi-i))
		ones += bits.OnesCount64(w)
		for ; w != 0; w &= w - 1 {
			m := uint(i - lo + bits.TrailingZeros64(w) + 1)
			syndrome ^= uint64(m + uint(bits.Len(m+uint(bits.Len(m)))))
		}
	}
	// Hamming parity bit j sits at position 2^j, so the stored parity
	// bits XOR into the syndrome as one word; the overall bit sits above.
	r := p.Code.hammingBits
	par := p.Parity.Bits.GetBits(b*(r+1), r+1)
	syndrome ^= par &^ (1 << r)
	overall = uint64(ones+bits.OnesCount64(par)) & 1
	return syndrome, overall
}

// writeParity recomputes and stores the parity of block b so that the
// syndrome and overall parity are zero.
func (p *Protected) writeParity(b int) {
	r := p.Code.hammingBits
	p.Parity.Bits.SetBits(b*(r+1), r+1, 0)
	syndrome, overall := p.syndromeOf(b)
	overall ^= uint64(bits.OnesCount64(syndrome)) & 1
	p.Parity.Bits.SetBits(b*(r+1), r+1, syndrome|overall<<r)
}

// CorrectionStats summarizes a Correct pass.
type CorrectionStats struct {
	// Corrected counts blocks where a single-bit error was repaired.
	Corrected int
	// Detected counts blocks with an uncorrectable (>=2 bit) error.
	Detected int
}

// Correct scans every block, repairs single-bit errors in place (in data
// or parity), and reports double-error detections. It mirrors the decode
// path of a memory controller: correction happens before the data is
// handed to the consumer.
func (p *Protected) Correct() CorrectionStats {
	return p.CorrectReport().CorrectionStats
}

// CorrectOutcome extends CorrectionStats with the identities of the
// uncorrectable blocks, so a decoder can degrade them (see ZeroBlock)
// instead of consuming corrupt bits. CorrectionStats itself stays a
// plain comparable pair.
type CorrectOutcome struct {
	CorrectionStats
	// Bad lists the indices of blocks left with an uncorrectable
	// (>= 2 bit) error, in ascending order; len(Bad) == Detected.
	Bad []int
}

// CorrectReport is Correct plus the list of uncorrectable blocks.
func (p *Protected) CorrectReport() CorrectOutcome {
	return p.CorrectBlocks(0, p.Code.Blocks(p.Data.Len()))
}

// CorrectBlocks is CorrectReport over blocks [lo, hi) only: blocks
// outside the range are neither read nor repaired. A caller that knows
// which blocks can hold errors corrects just those; a clean block has a
// zero syndrome, so leaving it out changes no bit.
func (p *Protected) CorrectBlocks(lo, hi int) CorrectOutcome {
	var out CorrectOutcome
	for b := lo; b < hi; b++ {
		syndrome, overall := p.syndromeOf(b)
		switch {
		case syndrome == 0 && overall == 0:
			// Clean block.
		case overall == 1:
			// Single error (correctable). syndrome==0 means the overall
			// parity bit itself flipped — nothing to repair in data.
			if syndrome != 0 {
				p.correctPosition(b, syndrome)
			} else {
				p.Parity.Bits.FlipBit(b*p.Code.ParityBitsPerBlock() + p.Code.hammingBits)
			}
			out.Corrected++
		default:
			// syndrome != 0 with even overall parity: double error.
			out.Detected++
			out.Bad = append(out.Bad, b)
		}
	}
	return out
}

// ZeroBlock clears every data bit of block b and rewrites its parity.
// This is the graceful-degradation primitive: an uncorrectable block is
// forced to a known state — all-zero symbols, which decode to the zero
// centroid / empty mask — instead of cascading corrupt bits through the
// decoder.
func (p *Protected) ZeroBlock(b int) {
	lo, hi := p.blockRange(b)
	for i := lo; i < hi; i += 64 {
		n := hi - i
		if n > 64 {
			n = 64
		}
		p.Data.SetBits(i, n, 0)
	}
	p.writeParity(b)
}

// correctPosition flips the codeword bit at 1-based position pos of block
// b (a parity position if pos is a power of two, else a data bit).
func (p *Protected) correctPosition(b int, pos uint64) {
	if pos&(pos-1) == 0 {
		// Parity bit 2^j.
		p.Parity.Bits.FlipBit(b*p.Code.ParityBitsPerBlock() + bits.TrailingZeros64(pos))
		return
	}
	// Data bit: pos is preceded by bits.Len(pos) parity positions.
	lo, hi := p.blockRange(b)
	if i := lo + int(pos) - 1 - bits.Len64(pos); i < hi {
		p.Data.FlipBit(i)
	}
	// Out-of-range positions (syndrome corrupted by multi-bit faults that
	// alias to an unused position) are silently ignored, as hardware
	// would either ignore or miscorrect; ignoring is the conservative
	// faithful choice for a truncated final block.
}

// String implements fmt.Stringer.
func (c BlockCode) String() string {
	return fmt.Sprintf("SEC-DED(%d+%d)", c.DataBits, c.ParityBitsPerBlock())
}

// Package bitstream provides a packed bit array with arbitrary-width
// element access. It is the shared storage substrate between the sparse
// encoders (internal/sparse), the error-protection codecs (internal/ecc),
// and the eNVM cell model (internal/envm): encoders serialize their data
// structures into bit arrays, the cell model views the same bits as
// bits-per-cell-wide symbols, and fault injection mutates them in place.
package bitstream

import (
	"fmt"
	"math/bits"
	"slices"
)

// Array is a fixed-length bit array packed into 64-bit words
// (little-endian bit order within each word).
type Array struct {
	nbits int
	words []uint64
}

// New returns a zeroed array of nbits bits.
func New(nbits int) *Array {
	if nbits < 0 {
		panic("bitstream: negative length")
	}
	return &Array{nbits: nbits, words: make([]uint64, (nbits+63)/64)}
}

// Len returns the length in bits.
func (a *Array) Len() int { return a.nbits }

// Clone returns a deep copy.
func (a *Array) Clone() *Array {
	out := &Array{nbits: a.nbits, words: make([]uint64, len(a.words))}
	copy(out.words, a.words)
	return out
}

// Equal reports whether two arrays have identical length and contents.
func (a *Array) Equal(b *Array) bool {
	return a.nbits == b.nbits && slices.Equal(a.words, b.words)
}

// Bit returns bit i (0 or 1).
func (a *Array) Bit(i int) uint64 {
	a.check(i, 1)
	return (a.words[i>>6] >> (uint(i) & 63)) & 1
}

// SetBit assigns bit i.
func (a *Array) SetBit(i int, v uint64) {
	a.check(i, 1)
	w := i >> 6
	sh := uint(i) & 63
	a.words[w] = (a.words[w] &^ (1 << sh)) | ((v & 1) << sh)
}

// FlipBit inverts bit i.
func (a *Array) FlipBit(i int) {
	a.check(i, 1)
	a.words[i>>6] ^= 1 << (uint(i) & 63)
}

// GetBits reads n bits (n in [0,64]) starting at bit offset off, returning
// them as the low bits of a uint64. Reads beyond Len are zero-filled,
// which lets callers view a stream as fixed-width symbols with implicit
// zero padding in the final partial symbol.
func (a *Array) GetBits(off, n int) uint64 {
	if n == 0 {
		return 0
	}
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bitstream: GetBits width %d", n))
	}
	if off < 0 {
		panic("bitstream: negative offset")
	}
	if off >= a.nbits {
		return 0
	}
	// One or two word reads; the padding past Len is zero, so the tail
	// comes zero-filled.
	w, sh := off>>6, uint(off)&63
	v := a.words[w] >> sh
	if sh+uint(n) > 64 && w+1 < len(a.words) {
		v |= a.words[w+1] << (64 - sh)
	}
	return v & (^uint64(0) >> (64 - uint(n)))
}

// SetBits writes the low n bits of v starting at bit offset off. Writes
// beyond Len are silently dropped (the zero-padding region).
func (a *Array) SetBits(off, n int, v uint64) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bitstream: SetBits width %d", n))
	}
	if off < 0 {
		panic("bitstream: negative offset")
	}
	n = min(n, a.nbits-off)
	if n <= 0 {
		return
	}
	m := ^uint64(0) >> (64 - uint(n))
	w, sh := off>>6, uint(off)&63
	a.words[w] = a.words[w]&^(m<<sh) | (v&m)<<sh
	if sh+uint(n) > 64 {
		a.words[w+1] = a.words[w+1]&^(m>>(64-sh)) | (v&m)>>(64-sh)
	}
}

// PopCount returns the number of set bits. The padding bits past Len
// are always zero, so whole words can be counted.
func (a *Array) PopCount() int {
	n := 0
	for _, w := range a.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// DiffBits returns the number of bit positions where a and b differ.
// Arrays must have equal length.
func (a *Array) DiffBits(b *Array) int {
	if a.nbits != b.nbits {
		panic("bitstream: DiffBits length mismatch")
	}
	n := 0
	for i := range a.words {
		n += bits.OnesCount64(a.words[i] ^ b.words[i])
	}
	return n
}

func (a *Array) check(i, n int) {
	if i < 0 || i+n > a.nbits {
		panic(fmt.Sprintf("bitstream: index %d (+%d) out of range [0,%d)", i, n, a.nbits))
	}
}

// Stream is a named sequence of fixed-width elements stored in a packed
// bit array. It is the unit of fault injection: each DNN data structure
// (weight indices, bitmask, CSR row counters, ECC parity, ...) is one
// Stream, and each Stream can be assigned its own eNVM bits-per-cell.
type Stream struct {
	// Name identifies the structure (e.g. "values", "bitmask",
	// "rowcount") in experiment output.
	Name string
	// ElemBits is the element width in bits (1..32).
	ElemBits int
	// N is the number of elements.
	N int
	// Bits is the underlying packed storage; its length is N*ElemBits.
	Bits *Array
}

// NewStream allocates a zeroed stream.
func NewStream(name string, elemBits, n int) *Stream {
	if elemBits < 1 || elemBits > 32 {
		panic(fmt.Sprintf("bitstream: element width %d out of range [1,32]", elemBits))
	}
	if n < 0 {
		panic("bitstream: negative element count")
	}
	return &Stream{Name: name, ElemBits: elemBits, N: n, Bits: New(elemBits * n)}
}

// FromValues builds a stream from a value slice (uint8 for the
// cluster-index matrix representation), written front to back. Values
// must fit in elemBits; out-of-range values panic.
func FromValues[T uint8 | uint32](name string, elemBits int, values []T) *Stream {
	s := NewStream(name, elemBits, len(values))
	for i, v := range values {
		if uint64(v) >= 1<<uint(elemBits) {
			s.Set(i, uint64(v)) // panics with Set's message
		}
		s.Bits.SetBits(i*elemBits, elemBits, uint64(v))
	}
	return s
}

// Get returns element i.
func (s *Stream) Get(i int) uint64 {
	if i < 0 || i >= s.N {
		panic(fmt.Sprintf("bitstream: stream %q element %d out of range [0,%d)", s.Name, i, s.N))
	}
	return s.Bits.GetBits(i*s.ElemBits, s.ElemBits)
}

// Set assigns element i. v must fit in ElemBits.
func (s *Stream) Set(i int, v uint64) {
	if i < 0 || i >= s.N {
		panic(fmt.Sprintf("bitstream: stream %q element %d out of range [0,%d)", s.Name, i, s.N))
	}
	if s.ElemBits < 64 && v >= 1<<uint(s.ElemBits) {
		panic(fmt.Sprintf("bitstream: stream %q value %d exceeds %d bits", s.Name, v, s.ElemBits))
	}
	s.Bits.SetBits(i*s.ElemBits, s.ElemBits, v)
}

// Values8 extracts all elements into a byte slice; elements must fit in
// 8 bits.
func (s *Stream) Values8() []uint8 {
	out := make([]uint8, s.N)
	s.Values8From(0, out)
	return out
}

// Values8From fills out with the len(out) elements from element first
// on, which must not run past N; elements must fit in 8 bits.
func (s *Stream) Values8From(first int, out []uint8) {
	if s.ElemBits > 8 {
		panic(fmt.Sprintf("bitstream: Values8 on %d-bit stream %q", s.ElemBits, s.Name))
	}
	if first < 0 || first+len(out) > s.N {
		panic(fmt.Sprintf("bitstream: Values8From elements [%d, %d) of %d", first, first+len(out), s.N))
	}
	unpack(s, out, first)
}

// unpack fills out with the elements from element first on, with one
// word load per 64 bits; buf holds the avail unread bits of the current
// word.
func unpack[T uint8 | uint32](s *Stream, out []T, first int) {
	width, mask := uint(s.ElemBits), uint64(1)<<uint(s.ElemBits)-1
	var buf uint64
	avail, next := uint(0), first*s.ElemBits>>6
	if sh := uint(first*s.ElemBits) & 63; sh != 0 && len(out) > 0 {
		buf, avail, next = s.Bits.words[next]>>sh, 64-sh, next+1
	}
	for i := range out {
		if avail < width { // the element continues into the next word
			w := s.Bits.words[next]
			out[i], next = T((buf|w<<avail)&mask), next+1
			buf, avail = w>>(width-avail), 64-(width-avail)
			continue
		}
		out[i], buf, avail = T(buf&mask), buf>>width, avail-width
	}
}

// Reader reads a stream's elements front to back. It buffers unread bits
// and refills them 32 at a time, so an element (at most 32 bits) takes at
// most one refill. Elements past N read as zero.
type Reader struct {
	words        []uint64
	half         int    // next 32-bit half-word to load
	buf          uint64 // unread bits, low first
	avail, width uint
}

// Reader returns a cursor at element i >= 0.
func (s *Stream) Reader(i int) Reader {
	off := i * s.ElemBits
	r := Reader{words: s.Bits.words, half: off >> 5, width: uint(s.ElemBits)}
	r.buf, r.avail = r.load()>>(uint(off)&31), 32-uint(off)&31
	return r
}

// Next returns the element under the cursor and advances past it.
func (r *Reader) Next() uint64 {
	if r.avail < r.width {
		r.buf |= r.load() << r.avail
		r.avail += 32
	}
	v := r.buf & (1<<r.width - 1)
	r.buf >>= r.width
	r.avail -= r.width
	return v
}

// load returns the next 32-bit half-word, zero past the last word.
func (r *Reader) load() uint64 {
	h := r.half
	r.half++
	if h>>1 >= len(r.words) {
		return 0
	}
	return r.words[h>>1] >> (uint(h&1) * 32) & 0xffffffff
}

// SizeBits returns the raw storage size in bits.
func (s *Stream) SizeBits() int64 { return int64(s.N) * int64(s.ElemBits) }

// Clone returns a deep copy of the stream.
func (s *Stream) Clone() *Stream {
	return &Stream{Name: s.Name, ElemBits: s.ElemBits, N: s.N, Bits: s.Bits.Clone()}
}

// BitsFor returns the minimum number of bits needed to represent values
// in [0, maxValue]. BitsFor(0) == 1.
func BitsFor(maxValue int) int {
	if maxValue < 0 {
		panic("bitstream: BitsFor negative")
	}
	bits := 1
	for (1 << uint(bits)) <= maxValue {
		bits++
	}
	return bits
}

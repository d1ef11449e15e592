package sparse

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitstream"
)

// BlockBytes is the NVDLA sparse-format alignment unit: non-zero weight
// values are stored in packed, 128-byte aligned groups, and the IdxSync
// counters (Section 3.3) cover 128-byte aligned blocks of the bitmask.
const BlockBytes = 128

// BitMask is the NVDLA-compatible sparse encoding ("BitM" in the paper):
// a 1-bit-per-weight indicator mask plus the packed non-zero cluster
// indices. Optionally, IdxSync counters record the number of non-zero
// mask bits per 128-byte mask block so that decode misalignment caused by
// mask faults cannot propagate past a block boundary.
type BitMask struct {
	RowsN, ColsN int
	ValueBits    int
	// MaskBlockBits is the IdxSync block size in mask bits
	// (BlockBytes*8 by default; configurable for tests).
	MaskBlockBits int

	Mask   *bitstream.Stream // 1 bit per weight, row-major
	Values *bitstream.Stream // packed non-zero cluster indices
	// Counters is non-nil when IdxSync is enabled: one popcount per mask
	// block.
	Counters *bitstream.Stream
}

// BitMaskOptions tunes EncodeBitMask.
type BitMaskOptions struct {
	// IdxSync enables the per-block counter structure.
	IdxSync bool
	// MaskBlockBits overrides the IdxSync block size (default 1024 bits =
	// 128 bytes of mask).
	MaskBlockBits int
}

// EncodeBitMask encodes the cluster-index matrix (row-major, 0 = pruned)
// into the NVDLA bitmask format. It returns an error when the matrix
// shape or block size is invalid, so callers fed by untrusted
// configuration can recover.
func EncodeBitMask(indices []uint8, rows, cols, valueBits int, opt BitMaskOptions) (*BitMask, error) {
	if len(indices) != rows*cols {
		return nil, fmt.Errorf("sparse: EncodeBitMask: %d indices != %d x %d", len(indices), rows, cols)
	}
	if opt.MaskBlockBits < 0 {
		return nil, fmt.Errorf("sparse: EncodeBitMask: negative block size %d", opt.MaskBlockBits)
	}
	blockBits := opt.MaskBlockBits
	if blockBits == 0 {
		blockBits = BlockBytes * 8
	}
	n := rows * cols
	mask := bitstream.NewStream("bitmask", 1, n)
	var nz []uint32
	for i, v := range indices {
		if v != 0 {
			mask.Set(i, 1)
			nz = append(nz, uint32(v))
		}
	}
	e := &BitMask{
		RowsN: rows, ColsN: cols, ValueBits: valueBits,
		MaskBlockBits: blockBits,
		Mask:          mask,
		Values:        bitstream.FromValues("values", valueBits, nz),
	}
	if opt.IdxSync {
		nBlocks := (n + blockBits - 1) / blockBits
		counterBits := bitstream.BitsFor(blockBits)
		counters := bitstream.NewStream("idxsync", counterBits, nBlocks)
		for b := 0; b < nBlocks; b++ {
			lo := b * blockBits
			hi := lo + blockBits
			if hi > n {
				hi = n
			}
			count := 0
			for i := lo; i < hi; i += 64 {
				count += bits.OnesCount64(mask.Bits.GetBits(i, min(64, hi-i)))
			}
			counters.Set(b, uint64(count))
		}
		e.Counters = counters
	}
	return e, nil
}

// Decode reconstructs the cluster-index matrix from the (possibly
// corrupted) stored structures.
//
// Without IdxSync, the decoder walks the mask and consumes one packed
// value per set bit: a single mask-bit fault misaligns *every* subsequent
// value (Section 4.2's catastrophic case). With IdxSync, at each mask
// block boundary the value cursor is reset to the prefix sum of the
// stored counters, so corruption is confined to the faulty block
// (Figure 4). Reads past the end of Values yield zero. The mask is walked
// a word at a time; a set bit first applies every boundary before it.
func (e *BitMask) Decode() []uint8 {
	out := make([]uint8, e.RowsN*e.ColsN)
	e.decode(out, bitmaskState{}, nil)
	return out
}

// DecodeInto is Decode into out.
func (e *BitMask) DecodeInto(out []uint8) {
	checkOut("BitMask", out, e.RowsN*e.ColsN)
	e.decode(out, bitmaskState{}, nil)
}

// spanBits is the BitMask decoder's checkpoint spacing: one NVDLA block
// of mask bits, the IdxSync block at its default size.
const spanBits = BlockBytes * 8

// bitmaskState is the BitMask decoder's state at a checkpoint, the start
// of a spanBits stretch of the mask: the mask bit, the value cursor and,
// with IdxSync, the block whose counter it synchronized to last and the
// prefix sum of the counters before that block.
type bitmaskState struct {
	bit, cursor, block int
	prefix             uint64
}

// cursor returns the bit of stream s (Streams order) up to which a
// decode in state st has read it.
func (e *BitMask) cursor(st bitmaskState, s int) int {
	switch s {
	case 0:
		return st.bit
	case 1:
		return st.cursor * e.Values.ElemBits
	}
	return st.block * e.Counters.ElemBits
}

// sync applies the IdxSync boundaries up to mask bit i to a decoder
// synchronized to block, whose prefix sum is prefix. It returns the
// value cursor, block and prefix sum after them, and the next boundary.
func (e *BitMask) sync(i, block int, prefix uint64) (int, int, uint64, int) {
	for blk := i / e.MaskBlockBits; block < blk; block++ {
		prefix += e.Counters.Get(block)
	}
	return int(prefix), block, prefix, (block + 1) * e.MaskBlockBits
}

// decode is the BitMask decode loop. From st it decodes the mask a
// spanBits stretch at a time, clearing each stretch of out before it
// fills it, until stop (nil: never) accepts the state at the start of a
// later stretch. It returns the state it stopped in, at bit
// RowsN*ColsN when it ran to the end.
//
// A checkpoint applies every IdxSync boundary at or before it, ahead of
// the set bit that would have applied it, which changes no read. So the
// state there depends only on what the decode has read, and two decodes
// that agree on it continue alike.
func (e *BitMask) decode(out []uint8, st bitmaskState, stop func(bitmaskState) bool) bitmaskState {
	n := e.RowsN * e.ColsN
	cursor, block, prefix, next := st.cursor, st.block, st.prefix, math.MaxInt // next: the first unapplied IdxSync boundary
	if e.Counters != nil {
		next = (block + 1) * e.MaskBlockBits
	}
	vals := e.Values.Reader(cursor)
	overruns := int64(0)
	lo := st.bit
	for ; lo < n; lo += spanBits {
		if lo >= next {
			cursor, block, prefix, next = e.sync(lo, block, prefix)
			vals = e.Values.Reader(cursor)
		}
		if lo > st.bit && stop != nil && stop(bitmaskState{lo, cursor, block, prefix}) {
			break
		}
		hi := min(lo+spanBits, n)
		clear(out[lo:hi])
		for base := lo; base < hi; base += 64 {
			for w := e.Mask.Bits.GetBits(base, 64); w != 0; w &= w - 1 {
				i := base + bits.TrailingZeros64(w)
				if i >= next {
					cursor, block, prefix, next = e.sync(i, block, prefix)
					vals = e.Values.Reader(cursor)
				}
				if cursor < e.Values.N {
					out[i] = uint8(vals.Next())
				} else {
					overruns++
				}
				cursor++
			}
		}
	}
	met.bitmaskDecodes.Inc()
	met.bitmaskOverruns.Add(overruns)
	return bitmaskState{min(lo, n), cursor, block, prefix}
}

// Streams returns the fault-injection targets: mask, values, and (when
// IdxSync is enabled) the counters.
func (e *BitMask) Streams() []*bitstream.Stream {
	s := []*bitstream.Stream{e.Mask, e.Values}
	if e.Counters != nil {
		s = append(s, e.Counters)
	}
	return s
}

// SizeBits returns the total encoded size in bits, including the NVDLA
// 128-byte alignment padding of the packed value array.
func (e *BitMask) SizeBits() int64 {
	valueBits := e.Values.SizeBits()
	align := int64(BlockBytes * 8)
	valueBits = (valueBits + align - 1) / align * align
	total := e.Mask.SizeBits() + valueBits
	if e.Counters != nil {
		total += e.Counters.SizeBits()
	}
	return total
}

// NNZ returns the number of packed values.
func (e *BitMask) NNZ() int { return e.Values.N }

package sparse

import (
	"fmt"
	"sort"
)

// Bounded re-decodes. Each format has one decode loop that runs from a
// small value-type state until a stop rule accepts the state at one of
// the format's checkpoints: the start of every CSR row and of every
// spanBits stretch of a BitMask mask. DecodeInto runs it from the zero
// state with no stop rule. Dense and 2:4 are fixed-rate: the element or
// group index is their whole state, so they need no checkpoints.
//
// A decode of a faulted copy of an encoding reads the same bits as the
// pristine decode up to the first read of a changed bit, and once it is
// past the change and back in the pristine state it reads the same bits
// again. So a fault confined to bits [lo, hi) of one stream can change
// the output only between the last checkpoint that has not read bit lo
// and the first later one that has read past hi in the pristine state.
// A fault that shifts the state for good (a CSR row count, a plain
// bitmask mask bit, an IdxSync counter) decodes to the end.

// Checkpoints holds the decoder states a decode of an encoding passed
// through at the format's checkpoints, for Redecode.
type Checkpoints struct {
	csr     []csrState
	bitmask []bitmaskState
}

// DecodeCheckpoints is enc.DecodeInto(out) that also records the
// decoder's state at each of the format's checkpoints. enc must be as
// its encoder built it: along such a decode no stream cursor moves back
// and no read overruns, which Redecode relies on.
func DecodeCheckpoints(enc Encoding, out []uint8) *Checkpoints {
	c := &Checkpoints{}
	switch e := enc.(type) {
	case *CSR:
		checkOut("CSR", out, e.RowsN*e.ColsN)
		c.csr = make([]csrState, 1, max(e.RowsN, 1))
		e.decode(out, csrState{}, func(st csrState) bool {
			c.csr = append(c.csr, st)
			return false
		})
	case *BitMask:
		n := e.RowsN * e.ColsN
		checkOut("BitMask", out, n)
		c.bitmask = make([]bitmaskState, 1, max((n+spanBits-1)/spanBits, 1))
		e.decode(out, bitmaskState{}, func(st bitmaskState) bool {
			c.bitmask = append(c.bitmask, st)
			return false
		})
	default:
		enc.DecodeInto(out)
	}
	return c
}

// Redecode decodes into out the part of work that a change confined to
// bits [lo, hi) of work's stream s (Streams order) can reach, and
// returns the range [from, to) of out it rewrote. work must be a copy of
// the encoding c was recorded from, changed nowhere else, and out must
// hold that encoding's decode; out then equals work's full decode.
//
// It resumes at the last checkpoint whose cursor into stream s is at or
// before bit lo, and stops at the first later checkpoint whose cursor
// into s is at or past hi and whose state equals the recorded one. Both
// conditions are needed: a changed value leaves the state as recorded
// until the decode has read it. A re-decode counts as one decode, with
// the overrun reads of a full decode of work: those of the recorded
// decode are none, and from the stop on, work decodes as it did.
func (c *Checkpoints) Redecode(work Encoding, out []uint8, s, lo, hi int) (from, to int) {
	switch e := work.(type) {
	case *Dense:
		w, n := e.Values.ElemBits, e.Values.N
		from, to = min(lo/w, n), min((hi+w-1)/w, n)
		e.decode(out, from, to)
		return from, to
	case *E24:
		// An entry is one element of each stream; two make a group.
		w, groups := e.Streams()[s].ElemBits, e.RowsN*groupsPerRow(e.ColsN)
		g0, g1 := min(lo/w/2, groups), min(((hi+w-1)/w+1)/2, groups)
		e.decode(out, g0, g1)
		if g0 >= g1 {
			return 0, 0
		}
		return e.groupStart(g0), e.groupStart(g1)
	case *CSR:
		cursor := func(st csrState) int { return e.cursor(st, s) }
		st := c.csr[resumeAt(c.csr, cursor, lo)]
		end := e.decode(out, st, func(at csrState) bool {
			return cursor(at) >= hi && at == c.csr[at.row]
		})
		return st.row * e.ColsN, end.row * e.ColsN
	case *BitMask:
		cursor := func(st bitmaskState) int { return e.cursor(st, s) }
		st := c.bitmask[resumeAt(c.bitmask, cursor, lo)]
		end := e.decode(out, st, func(at bitmaskState) bool {
			return cursor(at) >= hi && at == c.bitmask[at.bit/spanBits]
		})
		return st.bit, end.bit
	}
	panic(fmt.Sprintf("sparse: Redecode: unknown encoding type %T", work))
}

// resumeAt returns the index of the last checkpoint in cks whose cursor
// is at or before bit lo >= 0. Cursors never decrease along the
// recorded decode, and the first checkpoint's is 0.
func resumeAt[S any](cks []S, cursor func(S) int, lo int) int {
	return sort.Search(len(cks), func(k int) bool { return cursor(cks[k]) > lo }) - 1
}

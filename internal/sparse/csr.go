// Package sparse implements the lossless sparse weight encodings from
// Section 3.2 of the paper — Compressed Sparse Row (CSR) and the NVDLA
// BitMask format — together with the proposed IdxSync error-mitigation
// counters (Section 3.3).
//
// Both encoders operate on *cluster index* matrices (the output of
// internal/quant): a row-major stream of small integers where 0 denotes a
// pruned (zero) weight. Decoders are written to faithfully reproduce what
// corrupted storage does to reconstruction — a misread row counter or
// bitmask bit causes exactly the misalignment cascade the paper analyzes —
// and never panic on corrupted inputs: they clamp reads and zero-fill, as
// a hardware decoder consuming a fixed-size stream would.
package sparse

import (
	"fmt"

	"repro/internal/bitstream"
)

// CSR is a compressed-sparse-row encoding of a cluster-index matrix.
//
// Three structures are stored (each becomes one fault-injection stream):
//
//   - Values: the non-zero cluster indices in row-major order, plus
//     padding entries (value 0) inserted wherever a column gap exceeds
//     the relative index range.
//   - ColIndex: for each entry, the *relative* column gap from the
//     previous entry in its row (number of skipped zeros), stored in
//     IndexBits bits.
//   - RowCount: for each matrix row, the number of entries (including
//     padding) belonging to that row.
type CSR struct {
	RowsN, ColsN int
	// ValueBits is the width of each value element (cluster index bits).
	ValueBits int
	// IndexBits is the width of each relative column index.
	IndexBits int

	Values   *bitstream.Stream
	ColIndex *bitstream.Stream
	RowCount *bitstream.Stream
}

// EncodeCSR encodes the cluster-index matrix indices (row-major,
// rows x cols, 0 = pruned weight) using relative column indices of
// indexBits bits. valueBits is the cluster index width. It returns an
// error when the matrix shape or index width is invalid, so callers fed
// by untrusted configuration (CLI flags, sweep specs) can recover.
func EncodeCSR(indices []uint8, rows, cols, valueBits, indexBits int) (*CSR, error) {
	if len(indices) != rows*cols {
		return nil, fmt.Errorf("sparse: EncodeCSR: %d indices != %d x %d", len(indices), rows, cols)
	}
	if indexBits < 1 || indexBits > 31 {
		return nil, fmt.Errorf("sparse: EncodeCSR: indexBits %d out of range [1, 31]", indexBits)
	}
	maxGap := (1 << uint(indexBits)) - 1

	var values, colGaps []uint32
	rowCounts := make([]uint32, rows)
	for r := 0; r < rows; r++ {
		prev := -1
		count := uint32(0)
		for c := 0; c < cols; c++ {
			v := indices[r*cols+c]
			if v == 0 {
				continue
			}
			gap := c - prev - 1
			// Insert padding entries until the gap is representable.
			for gap > maxGap {
				values = append(values, 0)
				colGaps = append(colGaps, uint32(maxGap))
				count++
				prev += maxGap + 1
				gap = c - prev - 1
			}
			values = append(values, uint32(v))
			colGaps = append(colGaps, uint32(gap))
			count++
			prev = c
		}
		rowCounts[r] = count
	}

	rowBits := bitstream.BitsFor(cols) // a row can hold at most cols entries
	return &CSR{
		RowsN: rows, ColsN: cols,
		ValueBits: valueBits, IndexBits: indexBits,
		Values:   bitstream.FromValues("values", valueBits, values),
		ColIndex: bitstream.FromValues("colidx", indexBits, colGaps),
		RowCount: bitstream.FromValues("rowcount", rowBits, rowCounts),
	}, nil
}

// Decode reconstructs the cluster-index matrix from the (possibly
// corrupted) stored structures. The decoder mirrors hardware behaviour:
//
//   - RowCount[r] determines how many entries are consumed for row r; a
//     corrupted count offsets every subsequent row's reads into Values
//     and ColIndex (the global misalignment cascade of Section 4.2).
//   - A corrupted relative ColIndex offsets the remaining entries of its
//     row only.
//   - Reads past the end of Values/ColIndex yield zeros; writes past the
//     row end are dropped.
func (e *CSR) Decode() []uint8 {
	out := make([]uint8, e.RowsN*e.ColsN)
	e.decode(out, csrState{}, nil)
	return out
}

// DecodeInto is Decode into out.
func (e *CSR) DecodeInto(out []uint8) {
	checkOut("CSR", out, e.RowsN*e.ColsN)
	e.decode(out, csrState{}, nil)
}

// csrState is the CSR decoder's state at the start of a row, its
// checkpoint: the row and the entry cursor into Values/ColIndex.
type csrState struct{ row, pos int }

// cursor returns the bit of stream s (Streams order) up to which a
// decode in state st has read it.
func (e *CSR) cursor(st csrState, s int) int {
	switch s {
	case 0:
		return st.pos * e.Values.ElemBits
	case 1:
		return st.pos * e.ColIndex.ElemBits
	}
	return st.row * e.RowCount.ElemBits
}

// decode is the CSR decode loop. From st it decodes whole rows into
// out, clearing each before it fills it, until stop (nil: never)
// accepts the state at the start of a later row. It returns the state
// it stopped in, at row RowsN when it ran to the end.
func (e *CSR) decode(out []uint8, st csrState, stop func(csrState) bool) csrState {
	pos, total := st.pos, e.Values.N
	counts, vals, gaps := e.RowCount.Reader(st.row), e.Values.Reader(min(pos, total)), e.ColIndex.Reader(min(pos, total))
	overruns := int64(0)
	r := st.row
	for ; r < e.RowsN; r++ {
		if r > st.row && stop != nil && stop(csrState{r, pos}) {
			break
		}
		row := out[r*e.ColsN : (r+1)*e.ColsN]
		clear(row)
		n := int(counts.Next())
		prev := -1
		for k := 0; k < n; k++ {
			var v, gap uint64
			if pos < total {
				v, gap = vals.Next(), gaps.Next()
			} else {
				overruns++
			}
			pos++
			col := prev + int(gap) + 1
			prev = col
			if col >= 0 && col < len(row) && v != 0 {
				row[col] = uint8(v)
			}
		}
	}
	met.csrDecodes.Inc()
	met.csrOverruns.Add(overruns)
	return csrState{r, pos}
}

// Streams returns the fault-injection targets in canonical order:
// values, column indices, row counters.
func (e *CSR) Streams() []*bitstream.Stream {
	return []*bitstream.Stream{e.Values, e.ColIndex, e.RowCount}
}

// SizeBits returns the total encoded size in bits.
func (e *CSR) SizeBits() int64 {
	return e.Values.SizeBits() + e.ColIndex.SizeBits() + e.RowCount.SizeBits()
}

// BestIndexBits returns the relative-index width in [2, bitsFor(cols-1)]
// minimizing total CSR size for the given matrix (narrow indices shrink
// ColIndex but add padding entries; wide ones waste index bits). Ties go
// to the narrowest width. One pass prices every width: a column gap g
// costs g>>bits padding entries at a given width.
func BestIndexBits(indices []uint8, rows, cols, valueBits int) (int, error) {
	if len(indices) != rows*cols {
		return 0, fmt.Errorf("sparse: BestIndexBits: %d indices != %d x %d", len(indices), rows, cols)
	}
	maxBits := max(2, bitstream.BitsFor(max(cols-1, 0)))
	pads := make([]int64, maxBits+1) // pads[b]: padding entries at width b
	nnz := int64(0)
	for r := 0; r < rows; r++ {
		prev := -1
		for c, v := range indices[r*cols : (r+1)*cols] {
			if v == 0 {
				continue
			}
			for b, g := 2, c-prev-1; g>>b != 0; b++ {
				pads[b] += int64(g >> b)
			}
			nnz++
			prev = c
		}
	}
	bestBits, bestSize := 0, int64(-1)
	for b := 2; b <= maxBits; b++ {
		// RowCount's size does not depend on the width.
		if sz := (nnz + pads[b]) * int64(valueBits+b); bestSize < 0 || sz < bestSize {
			bestBits, bestSize = b, sz
		}
	}
	return bestBits, nil
}

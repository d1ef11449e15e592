package sparse

import (
	"fmt"

	"repro/internal/bitstream"
)

// E24 is the fixed-rate 2:4 structured-sparse encoding: along each row,
// every group of 4 columns stores at most 2 nonzero cluster indices.
// Groups with more than 2 nonzeros are *projected* — the 2 largest-
// magnitude weights survive and the rest are dropped — so unlike CSR and
// BitMask this encoding is lossy on matrices that violate the 2:4
// pattern. The payoff is a fixed-rate layout a GEMM kernel can consume
// directly (see tensor.Sparse24) and, for fault tolerance, the absence
// of any misalignment cascade: a corrupted metadata element damages at
// most its own group of 4 weights.
//
// Two structures are stored (each becomes one fault-injection stream):
//
//   - Values: 2 cluster indices per group (ValueBits each), the kept
//     entries first in ascending-position order, then zero padding.
//   - Meta: 2 two-bit in-group positions per group, one per value
//     element, padding positions stored as 0.
//
// The canonical layout invariant (nonzero entries first, ascending
// position; pad entries are value 0, position 0) makes the compact form
// a unique function of the decoded group, so compact-form equality is
// equivalent to decoded-matrix equality — the property the evaluator's
// pristine fast path relies on.
type E24 struct {
	RowsN, ColsN int
	// ValueBits is the width of each value element (cluster index bits).
	ValueBits int

	Values *bitstream.Stream
	Meta   *bitstream.Stream
}

// groupsPerRow returns the number of 4-column groups per matrix row.
func groupsPerRow(cols int) int { return (cols + 3) / 4 }

// Entries24 returns the number of stored (value, position) entries for a
// rows x cols matrix: 2 per group of 4 columns, rows*ceil(cols/4)*2.
func Entries24(rows, cols int) int { return rows * groupsPerRow(cols) * 2 }

// Encode24 encodes the cluster-index matrix indices (row-major,
// rows x cols, 0 = pruned weight) into the 2:4 structured-sparse format.
// Groups holding more than 2 nonzeros keep the 2 entries with the
// largest weight magnitude |centroids[index]| (ties keep the leftmost).
// centroids may be nil, in which case the cluster index value itself is
// the magnitude proxy — adequate for format-level tests, but real
// callers should pass the layer's centroid table, since k-means
// centroids are sorted by value, not magnitude.
func Encode24(indices []uint8, rows, cols, valueBits int, centroids []float32) (*E24, error) {
	if len(indices) != rows*cols {
		return nil, fmt.Errorf("sparse: Encode24: %d indices != %d x %d", len(indices), rows, cols)
	}
	if valueBits < 1 || valueBits > 8 {
		return nil, fmt.Errorf("sparse: Encode24: valueBits %d out of range [1, 8]", valueBits)
	}
	mag := func(idx uint8) float64 {
		if centroids != nil && int(idx) < len(centroids) {
			m := float64(centroids[idx])
			if m < 0 {
				m = -m
			}
			return m
		}
		return float64(idx)
	}
	gpr := groupsPerRow(cols)
	vals := make([]uint8, 0, Entries24(rows, cols))
	meta := make([]uint8, 0, Entries24(rows, cols))
	for r := 0; r < rows; r++ {
		row := indices[r*cols : (r+1)*cols]
		for g := 0; g < gpr; g++ {
			// Pick the 2 largest-magnitude nonzeros in the group,
			// leftmost-wins on ties (strict > against the incumbent).
			p0, p1 := -1, -1 // winner, runner-up (positions in group)
			for p := 0; p < 4; p++ {
				c := g*4 + p
				if c >= cols || row[c] == 0 {
					continue
				}
				switch {
				case p0 < 0:
					p0 = p
				case p1 < 0:
					p1 = p
				case mag(row[c]) > mag(row[g*4+p1]):
					p1 = p
				}
				if p1 >= 0 && mag(row[g*4+p1]) > mag(row[g*4+p0]) {
					p0, p1 = p1, p0
				}
			}
			// Canonical order: kept entries ascending by position, pads last.
			if p0 >= 0 && p1 >= 0 && p1 < p0 {
				p0, p1 = p1, p0
			}
			for _, p := range [2]int{p0, p1} {
				if p < 0 {
					vals = append(vals, 0)
					meta = append(meta, 0)
				} else {
					vals = append(vals, row[g*4+p])
					meta = append(meta, uint8(p))
				}
			}
		}
	}
	return &E24{
		RowsN: rows, ColsN: cols, ValueBits: valueBits,
		Values: bitstream.FromValues("values", valueBits, vals),
		Meta:   bitstream.FromValues("meta24", 2, meta),
	}, nil
}

// Decode reconstructs the row-major cluster-index matrix. A corrupted
// value or position element damages at most its own group of 4 columns:
// the format is fixed-rate, so there is no misalignment cascade. When
// two entries of a group collide on one position (a position bit flip),
// the second entry wins, exactly as a hardware scatter into the group
// window would behave; positions pointing past the matrix edge in a
// partial trailing group are dropped. Reads never run past the stored
// streams even if their lengths are inconsistent (overruns are counted
// in sparse.e24.overrun_reads).
func (e *E24) Decode() []uint8 {
	out := make([]uint8, e.RowsN*e.ColsN)
	e.decode(out, 0, e.RowsN*groupsPerRow(e.ColsN))
	return out
}

// DecodeInto is Decode into out.
func (e *E24) DecodeInto(out []uint8) {
	checkOut("E24", out, e.RowsN*e.ColsN)
	e.decode(out, 0, e.RowsN*groupsPerRow(e.ColsN))
}

// groupStart returns where group g (row-major over the matrix) starts in
// the decoded matrix. Groups tile the rows, so groups [g0, g1) decode
// into out[groupStart(g0):groupStart(g1)].
func (e *E24) groupStart(g int) int {
	gpr := groupsPerRow(e.ColsN)
	return g/gpr*e.ColsN + g%gpr*4
}

// decode is the E24 decode loop: it clears the columns of groups
// [g0, g1) (row-major over the matrix) in out and decodes them. The
// format is fixed-rate, so the group index is its only state.
func (e *E24) decode(out []uint8, g0, g1 int) {
	met.e24Decodes.Inc()
	if g0 >= g1 {
		return
	}
	clear(out[e.groupStart(g0):e.groupStart(g1)])
	gpr := groupsPerRow(e.ColsN)
	overruns := 0
	ent := 2 * g0
	vals, meta := e.Values.Reader(ent), e.Meta.Reader(ent)
	for r, g := g0/gpr, g0%gpr; ent < 2*g1; r, g = r+1, 0 {
		for ; g < gpr && ent < 2*g1; g++ {
			for s := 0; s < 2; s++ {
				if ent >= e.Values.N || ent >= e.Meta.N {
					overruns++
					ent++
					continue
				}
				v, p := uint8(vals.Next()), int(meta.Next())
				ent++
				if v == 0 {
					continue
				}
				if c := g*4 + p; c < e.ColsN {
					out[r*e.ColsN+c] = v
				}
			}
		}
	}
	if overruns > 0 {
		met.e24Overruns.Add(int64(overruns))
	}
}

// CompactInto writes the *canonical* compact form of the (possibly
// corrupted) encoding into vals and pos, each Entries24(rows, cols)
// long: DecodeInto, then Compact24Row over each decoded row. Two
// encodings therefore have equal compact forms exactly when their
// decoded matrices are equal.
func (e *E24) CompactInto(vals, pos []uint8) {
	need := Entries24(e.RowsN, e.ColsN)
	if len(vals) != need || len(pos) != need {
		panic(fmt.Sprintf("sparse: CompactInto buffers %d/%d != %d entries", len(vals), len(pos), need))
	}
	dec := make([]uint8, e.RowsN*e.ColsN)
	e.DecodeInto(dec)
	ne := 2 * groupsPerRow(e.ColsN)
	for r := 0; r < e.RowsN; r++ {
		Compact24Row(dec[r*e.ColsN:][:e.ColsN], identity8[:], vals[r*ne:][:ne], pos[r*ne:][:ne])
	}
}

// identity8 maps every cluster index to itself: the table under which
// Compact24Row emits cluster indices.
var identity8 = func() (t [256]uint8) {
	for i := range t {
		t[i] = uint8(i)
	}
	return t
}()

// Compact24Row is the one compaction rule: it writes the canonical
// compact form of one decoded row into val and pos, 2 entries per group
// of 4 columns — the group's nonzero indices in ascending position,
// then pads of index 0 at position 0 — with each entry's index v
// written as table[v]. A
// caller maps indices to weights through a centroid table in the same
// pass, or keeps them through an identity table. A decoded 2:4 group
// holds at most 2 nonzeros; of a denser group the first 2 are kept.
func Compact24Row[V any](row []uint8, table []V, val []V, pos []uint8) {
	for g := 0; 2*g < len(val); g++ {
		k, end := 2*g, 2*g+2
		for p, v := range row[4*g : min(4*g+4, len(row))] {
			if v != 0 && k < end {
				val[k], pos[k] = table[v], uint8(p)
				k++
			}
		}
		for ; k < end; k++ {
			val[k], pos[k] = table[0], 0
		}
	}
}

// Streams returns the value and metadata streams.
func (e *E24) Streams() []*bitstream.Stream { return []*bitstream.Stream{e.Values, e.Meta} }

// SizeBits returns the stored size in bits: a fixed
// 2*(ValueBits+2)*ceil(cols/4) bits per row regardless of content.
func (e *E24) SizeBits() int64 { return e.Values.SizeBits() + e.Meta.SizeBits() }

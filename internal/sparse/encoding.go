package sparse

import (
	"fmt"
	"strings"

	"repro/internal/bitstream"
)

// Encoding is the common interface over weight storage formats: decode
// back to a cluster-index matrix, expose the constituent bit streams for
// fault injection, and report storage cost.
type Encoding interface {
	// Decode reconstructs the row-major cluster-index matrix, tolerating
	// corrupted structures (misalignment is reproduced, never panics).
	Decode() []uint8
	// DecodeInto is Decode into out, which must hold exactly rows x cols
	// indices; it overwrites every one of them.
	DecodeInto(out []uint8)
	// Streams returns the stored data structures, each independently
	// assignable to an eNVM bits-per-cell configuration.
	Streams() []*bitstream.Stream
	// SizeBits returns total stored bits including format overheads.
	SizeBits() int64
}

// checkOut panics unless out, a DecodeInto buffer, holds exactly n
// indices.
func checkOut(format string, out []uint8, n int) {
	if len(out) != n {
		panic(fmt.Sprintf("sparse: %s DecodeInto buffer of %d indices, want %d", format, len(out), n))
	}
}

// Kind selects a weight storage format.
type Kind int

const (
	// KindDense stores every cluster index (the "P+C" baseline row of
	// Table 2 / Figure 6).
	KindDense Kind = iota
	// KindCSR is compressed sparse row with relative column indices.
	KindCSR
	// KindBitMask is the NVDLA bitmask format without protection.
	KindBitMask
	// KindBitMaskIdxSync is bitmask plus the proposed IdxSync counters.
	KindBitMaskIdxSync
	// Kind24 is the fixed-rate 2:4 structured-sparse format (see E24).
	// Unlike the kinds above it is lossy on matrices that violate the
	// 2-of-4 pattern, so it is deliberately NOT part of Kinds: the
	// surrogate explorer's delta-error model does not account for the
	// projection loss, and letting it range over Kind24 would make the
	// lossy format look like free compression in Table 4 / Figure 6.
	Kind24
)

// format is one row of the encoding-format table.
type format struct {
	// label is the paper's name for the format, printed by Kind.String.
	label string
	// names are the accepted spellings, lower case; the label is one.
	names []string
	// streams are the stored structures, in Streams() order: each takes
	// its own cell policy (ares.Config.Overrides keys).
	streams []string
}

// formats is the one encoding-format table, indexed by Kind: which
// formats exist, what they are called and which structures they store.
// Every CLI -encoding flag, the server's request decoder and the
// design-space explorer resolve names and streams through it.
var formats = [...]format{
	KindDense:          {"P+C", []string{"dense", "p+c"}, []string{"values"}},
	KindCSR:            {"CSR", []string{"csr"}, []string{"values", "colidx", "rowcount"}},
	KindBitMask:        {"BitMask", []string{"bitmask"}, []string{"bitmask", "values"}},
	KindBitMaskIdxSync: {"BitM+IdxSync", []string{"idxsync", "bitmask+idxsync", "bitm+idxsync"}, []string{"bitmask", "values", "idxsync"}},
	Kind24:             {"2:4", []string{"24", "2:4"}, []string{"values", "meta24"}},
}

// String implements fmt.Stringer, matching the paper's labels.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(formats) {
		return formats[k].label
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// StreamNames returns the names of the structures an encoding of kind k
// stores, in stream order (nil for an unknown kind). The slice is the
// table's own: callers must not modify it.
func (k Kind) StreamNames() []string {
	if k >= 0 && int(k) < len(formats) {
		return formats[k].streams
	}
	return nil
}

// KindNames returns every accepted encoding name, in table order, for
// flag help text and error messages.
func KindNames() []string {
	var names []string
	for _, f := range formats {
		names = append(names, f.names...)
	}
	return names
}

// ParseKind resolves an encoding name (case-insensitive, surrounding
// space ignored). An unknown name returns an error that lists every
// accepted one.
func ParseKind(name string) (Kind, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	for k, f := range formats {
		for _, n := range f.names {
			if n == want {
				return Kind(k), nil
			}
		}
	}
	return 0, fmt.Errorf("sparse: unknown encoding %q (valid: %s)", name, strings.Join(KindNames(), ", "))
}

// Kinds lists the lossless encodings in Table 2 / Figure 6 order.
// Kind24 is excluded on purpose (see its doc comment); call sites that
// compare all formats name it explicitly.
var Kinds = []Kind{KindDense, KindCSR, KindBitMask, KindBitMaskIdxSync}

// Encode builds the requested encoding for a cluster-index matrix.
// CSR uses the size-optimal relative index width for the matrix. An
// unknown kind or an inconsistent shape is reported as an error rather
// than a panic: encoding kinds and layer shapes arrive from CLI flags
// and sweep configurations, which callers must be able to reject.
func Encode(kind Kind, indices []uint8, rows, cols, valueBits int) (Encoding, error) {
	switch kind {
	case KindDense:
		return EncodeDense(indices, rows, cols, valueBits)
	case KindCSR:
		ib, err := BestIndexBits(indices, rows, cols, valueBits)
		if err != nil {
			return nil, err
		}
		return EncodeCSR(indices, rows, cols, valueBits, ib)
	case KindBitMask:
		return EncodeBitMask(indices, rows, cols, valueBits, BitMaskOptions{})
	case KindBitMaskIdxSync:
		return EncodeBitMask(indices, rows, cols, valueBits, BitMaskOptions{IdxSync: true})
	case Kind24:
		// Index-value magnitude proxy; callers holding the layer's
		// centroid table should call Encode24 directly.
		return Encode24(indices, rows, cols, valueBits, nil)
	}
	return nil, fmt.Errorf("sparse: unknown encoding kind %d", int(kind))
}

// Must unwraps an (encoding, error) pair, panicking on error. It is for
// call sites whose inputs are compile-time constants or already
// validated — where an error truly is a programmer bug — mirroring
// template.Must:
//
//	enc := sparse.Must(sparse.Encode(kind, idx, rows, cols, bits))
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// Dense is the unencoded pruned+clustered baseline: one cluster index per
// weight in a single stream.
type Dense struct {
	RowsN, ColsN int
	ValueBits    int
	Values       *bitstream.Stream
}

// EncodeDense stores every index (including zeros) at valueBits each.
func EncodeDense(indices []uint8, rows, cols, valueBits int) (*Dense, error) {
	if len(indices) != rows*cols {
		return nil, fmt.Errorf("sparse: EncodeDense: %d indices != %d x %d", len(indices), rows, cols)
	}
	return &Dense{
		RowsN: rows, ColsN: cols, ValueBits: valueBits,
		Values: bitstream.FromValues("values", valueBits, indices),
	}, nil
}

// Decode returns the stored indices.
func (e *Dense) Decode() []uint8 { return e.Values.Values8() }

// DecodeInto copies the stored indices into out.
func (e *Dense) DecodeInto(out []uint8) {
	checkOut("Dense", out, e.Values.N)
	e.decode(out, 0, len(out))
}

// decode is the dense decode loop: it copies stored indices [lo, hi)
// into out[lo:hi]. The format is fixed-rate, so the index is its only
// state.
func (e *Dense) decode(out []uint8, lo, hi int) { e.Values.Values8From(lo, out[lo:hi]) }

// Streams returns the single dense stream.
func (e *Dense) Streams() []*bitstream.Stream { return []*bitstream.Stream{e.Values} }

// SizeBits returns the stored size in bits.
func (e *Dense) SizeBits() int64 { return e.Values.SizeBits() }

// CloneEncoding deep-copies an encoding so fault injection can mutate the
// copy while the pristine original is reused across trials. Encodings of
// a type this package does not know how to copy are reported as an
// error: a shallow copy would silently alias mutable streams across
// trials, which is worse than failing the trial.
func CloneEncoding(e Encoding) (Encoding, error) {
	switch enc := e.(type) {
	case *Dense:
		return &Dense{
			RowsN: enc.RowsN, ColsN: enc.ColsN, ValueBits: enc.ValueBits,
			Values: enc.Values.Clone(),
		}, nil
	case *CSR:
		return &CSR{
			RowsN: enc.RowsN, ColsN: enc.ColsN,
			ValueBits: enc.ValueBits, IndexBits: enc.IndexBits,
			Values:   enc.Values.Clone(),
			ColIndex: enc.ColIndex.Clone(),
			RowCount: enc.RowCount.Clone(),
		}, nil
	case *BitMask:
		out := &BitMask{
			RowsN: enc.RowsN, ColsN: enc.ColsN, ValueBits: enc.ValueBits,
			MaskBlockBits: enc.MaskBlockBits,
			Mask:          enc.Mask.Clone(),
			Values:        enc.Values.Clone(),
		}
		if enc.Counters != nil {
			out.Counters = enc.Counters.Clone()
		}
		return out, nil
	case *E24:
		return &E24{
			RowsN: enc.RowsN, ColsN: enc.ColsN, ValueBits: enc.ValueBits,
			Values: enc.Values.Clone(),
			Meta:   enc.Meta.Clone(),
		}, nil
	}
	return nil, fmt.Errorf("sparse: CloneEncoding: unknown encoding type %T", e)
}

var (
	_ Encoding = (*Dense)(nil)
	_ Encoding = (*CSR)(nil)
	_ Encoding = (*BitMask)(nil)
	_ Encoding = (*E24)(nil)
)

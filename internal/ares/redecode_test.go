package ares

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ecc"
	"repro/internal/envm"
	"repro/internal/quant"
	"repro/internal/sparse"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// decoderCounters returns the decode and overrun counters a decode of
// kind moves (nil for the dense format, which counts neither).
func decoderCounters(kind sparse.Kind) (decodes, overruns *telemetry.Counter) {
	prefix := map[sparse.Kind]string{
		sparse.KindCSR: "csr", sparse.KindBitMask: "bitmask", sparse.KindBitMaskIdxSync: "bitmask", sparse.Kind24: "e24",
	}[kind]
	if prefix == "" {
		return nil, nil
	}
	reg := telemetry.Default()
	return reg.Counter("sparse." + prefix + ".decodes"), reg.Counter("sparse." + prefix + ".overrun_reads")
}

// counted runs f and returns how far it moved each counter (0 for nil).
func counted(f func(), cs ...*telemetry.Counter) []int64 {
	before := make([]int64, len(cs))
	for i, c := range cs {
		if c != nil {
			before[i] = c.Value()
		}
	}
	f()
	for i, c := range cs {
		if c != nil {
			before[i] = c.Value() - before[i]
		}
	}
	return before
}

// TestRedecodeMatchesFullDecode holds the probe's bounded re-decode to a
// full decode: for every format (2:4 included), stream, BPC 1-3, with
// and without ECC, over several seeds, it forces fault events as Probe
// does and checks that the re-decode, with the untouched rest of the
// prober's buffer, equals DecodeInto of the faulted encoding element for
// element, with the same overrun reads, as one decode. The layers have
// a ragged last row (the matrix ends inside a mask word and inside a
// 2:4 group), a partial last IdxSync block, rows longer than a bitmask
// checkpoint stretch, and streams with a partial last cell.
func TestRedecodeMatchesFullDecode(t *testing.T) {
	layers := []*quant.Clustered{testLayer(61, 83, 0.6, 4, 3), testLayer(9, 701, 0.9, 4, 8)}
	partialCell := false
	var bounded, toEnd int
	for _, cl := range layers {
		n := len(cl.Indices)
		if n%64 == 0 || cl.Cols%4 == 0 || n <= sparse.BlockBytes*8 || n%(sparse.BlockBytes*8) == 0 {
			t.Fatalf("layer %dx%d lacks a ragged last row or a partial last IdxSync block", cl.Rows, cl.Cols)
		}
		for _, kind := range append(slices.Clone(sparse.Kinds), sparse.Kind24) {
			enc := sparse.Must(EncodeLayer(cl, Config{Encoding: kind}))
			pb := NewProber(enc, cl)
			decodes, overruns := decoderCounters(kind)
			want := make([]uint8, n)
			for si, s := range enc.Streams() {
				for bpc := 1; bpc <= 3; bpc++ {
					partialCell = partialCell || s.Bits.Len()%bpc != 0
					for _, eccOn := range []bool{false, true} {
						p := StreamPolicy{BPC: bpc, ECC: eccOn}
						cells := int(envm.CellsFor(s.SizeBits(), p.BPC))
						if cells == 0 {
							continue
						}
						code := ecc.NewBlockCode(ECCDataBits)
						for seed := uint64(1); seed <= 3; seed++ {
							src := stats.NewSource(seed*7919 + uint64(si*10+bpc))
							for trial := 0; trial < 25; trial++ {
								name := fmt.Sprintf("%dx%d %v stream %s policy %v seed %d trial %d",
									cl.Rows, cl.Cols, kind, s.Name, p, seed, trial)
								ev, ok := pb.force(si, p, cells, code, src)
								if !ok {
									continue
								}
								wantN := counted(func() { pb.clone.DecodeInto(want) }, overruns)
								var from, to int
								gotN := counted(func() { from, to = pb.ck.Redecode(pb.clone, pb.dec, si, ev.lo, ev.hi) }, decodes, overruns)
								for i := range want {
									if pb.dec[i] != want[i] {
										t.Fatalf("%s: element %d re-decodes to %d, full decode %d (re-decoded [%d, %d) for bits [%d, %d))",
											name, i, pb.dec[i], want[i], from, to, ev.lo, ev.hi)
									}
								}
								if gotN[1] != wantN[0] {
									t.Fatalf("%s: re-decode overran %d reads, full decode %d", name, gotN[1], wantN[0])
								}
								if decodes != nil && gotN[0] != 1 {
									t.Fatalf("%s: re-decode counted %d decodes, want 1", name, gotN[0])
								}
								if to < n {
									bounded++
								} else {
									toEnd++
								}
								copy(pb.dec[from:to], pb.ref[from:to])
								pb.undo(si, ev)
								if !slices.Equal(pb.dec, pb.ref) {
									t.Fatalf("%s: buffer not restored to the reference outside [%d, %d)", name, from, to)
								}
							}
						}
					}
				}
			}
		}
	}
	if !partialCell {
		t.Fatal("no stream has a partial last cell")
	}
	if bounded == 0 || toEnd == 0 {
		t.Fatalf("%d re-decodes stopped early and %d ran to the end; want both kinds", bounded, toEnd)
	}
}

package sparse

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// randomIndices builds a rows x cols cluster-index matrix with the given
// sparsity and valueBits-wide non-zero indices.
func randomIndices(rows, cols int, sparsity float64, valueBits int, seed uint64) []uint8 {
	src := stats.NewSource(seed)
	out := make([]uint8, rows*cols)
	maxIdx := (1 << uint(valueBits)) - 1
	for i := range out {
		if !src.Bernoulli(sparsity) {
			out[i] = uint8(1 + src.Intn(maxIdx))
		}
	}
	return out
}

func equalU8(a, b []uint8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCSRRoundTrip(t *testing.T) {
	idx := randomIndices(20, 50, 0.8, 4, 1)
	enc := Must(EncodeCSR(idx, 20, 50, 4, 4))
	if !equalU8(enc.Decode(), idx) {
		t.Fatal("CSR round trip failed")
	}
}

func TestCSRRoundTripPaddingHeavy(t *testing.T) {
	// 2-bit relative indices with long gaps force many padding entries.
	idx := randomIndices(10, 200, 0.97, 4, 2)
	enc := Must(EncodeCSR(idx, 10, 200, 4, 2))
	if !equalU8(enc.Decode(), idx) {
		t.Fatal("padded CSR round trip failed")
	}
	if enc.Values.N <= countNZ(idx) {
		t.Error("expected padding entries beyond nnz")
	}
}

func countNZ(idx []uint8) int {
	n := 0
	for _, v := range idx {
		if v != 0 {
			n++
		}
	}
	return n
}

func TestCSRRoundTripProperty(t *testing.T) {
	f := func(seed uint16, sp uint8, ibSeed uint8) bool {
		sparsity := float64(sp%90+5) / 100
		indexBits := int(ibSeed%5) + 2
		idx := randomIndices(8, 32, sparsity, 4, uint64(seed))
		enc := Must(EncodeCSR(idx, 8, 32, 4, indexBits))
		return equalU8(enc.Decode(), idx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCSRDenseMatrix(t *testing.T) {
	// Zero sparsity: every element non-zero.
	idx := randomIndices(5, 5, 0, 3, 2)
	enc := Must(EncodeCSR(idx, 5, 5, 3, 3))
	if !equalU8(enc.Decode(), idx) {
		t.Fatal("dense CSR round trip failed")
	}
	if enc.Values.N != 25 {
		t.Errorf("entries = %d, want 25", enc.Values.N)
	}
}

func TestCSREmptyMatrix(t *testing.T) {
	idx := make([]uint8, 30)
	enc := Must(EncodeCSR(idx, 5, 6, 4, 4))
	if enc.Values.N != 0 {
		t.Errorf("entries = %d, want 0", enc.Values.N)
	}
	if !equalU8(enc.Decode(), idx) {
		t.Fatal("all-zero decode failed")
	}
}

func TestCSRRowCounterFaultCascades(t *testing.T) {
	// A corrupted row counter must misalign all subsequent rows — the
	// paper's central vulnerability finding for CSR (Section 4.2).
	idx := randomIndices(10, 20, 0.5, 4, 3)
	enc := Must(EncodeCSR(idx, 10, 20, 4, 5))
	enc.RowCount.Set(2, enc.RowCount.Get(2)+1)
	dec := enc.Decode()
	// Rows 0-1 intact.
	for i := 0; i < 2*20; i++ {
		if dec[i] != idx[i] {
			t.Fatalf("row before fault corrupted at %d", i)
		}
	}
	// Some later row must differ.
	diff := 0
	for i := 3 * 20; i < len(idx); i++ {
		if dec[i] != idx[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("row counter fault did not cascade")
	}
}

func TestCSRColIndexFaultRowLocal(t *testing.T) {
	// A corrupted relative column index corrupts only its own row.
	idx := randomIndices(10, 20, 0.5, 4, 4)
	enc := Must(EncodeCSR(idx, 10, 20, 4, 5))
	// Find the first entry of row 5.
	pos := 0
	for r := 0; r < 5; r++ {
		pos += int(enc.RowCount.Get(r))
	}
	enc.ColIndex.Set(pos, enc.ColIndex.Get(pos)+1)
	dec := enc.Decode()
	for r := 0; r < 10; r++ {
		rowDiff := false
		for c := 0; c < 20; c++ {
			if dec[r*20+c] != idx[r*20+c] {
				rowDiff = true
			}
		}
		if r != 5 && rowDiff {
			t.Fatalf("col index fault leaked into row %d", r)
		}
		if r == 5 && !rowDiff {
			t.Error("col index fault had no effect on its row")
		}
	}
}

func TestCSRValueFaultSingleWeight(t *testing.T) {
	// A corrupted value affects exactly one reconstructed weight.
	idx := randomIndices(6, 10, 0.5, 4, 5)
	enc := Must(EncodeCSR(idx, 6, 10, 4, 4))
	orig := enc.Values.Get(0)
	repl := orig + 1
	if repl >= 16 {
		repl = orig - 1
	}
	enc.Values.Set(0, repl)
	dec := enc.Decode()
	if n := int(Mismatch(idx, dec) * float64(len(idx))); n > 1 {
		t.Errorf("value fault corrupted %d weights, want <= 1", n)
	}
}

func TestCSRDecodeRobustToGarbage(t *testing.T) {
	// Saturate every row counter: decoder must not panic and must
	// terminate.
	idx := randomIndices(5, 8, 0.5, 4, 6)
	enc := Must(EncodeCSR(idx, 5, 8, 4, 3))
	maxCount := uint64(1)<<uint(enc.RowCount.ElemBits) - 1
	for r := 0; r < 5; r++ {
		enc.RowCount.Set(r, maxCount)
	}
	_ = enc.Decode() // must not panic
}

func TestBestIndexBitsMinimizes(t *testing.T) {
	idx := randomIndices(20, 64, 0.9, 4, 7)
	best := Must(BestIndexBits(idx, 20, 64, 4))
	bestSize := Must(EncodeCSR(idx, 20, 64, 4, best)).SizeBits()
	for bits := 2; bits <= 7; bits++ {
		if sz := Must(EncodeCSR(idx, 20, 64, 4, bits)).SizeBits(); sz < bestSize {
			t.Errorf("bits=%d size %d beats best=%d size %d", bits, sz, best, bestSize)
		}
	}
}

func TestBitMaskRoundTrip(t *testing.T) {
	idx := randomIndices(16, 64, 0.7, 4, 8)
	for _, sync := range []bool{false, true} {
		enc := Must(EncodeBitMask(idx, 16, 64, 4, BitMaskOptions{IdxSync: sync}))
		if !equalU8(enc.Decode(), idx) {
			t.Fatalf("bitmask round trip failed (idxsync=%v)", sync)
		}
	}
}

func TestBitMaskRoundTripProperty(t *testing.T) {
	f := func(seed uint16, sp uint8, sync bool) bool {
		sparsity := float64(sp%100) / 100
		idx := randomIndices(8, 40, sparsity, 5, uint64(seed))
		enc := Must(EncodeBitMask(idx, 8, 40, 5, BitMaskOptions{IdxSync: sync, MaskBlockBits: 64}))
		return equalU8(enc.Decode(), idx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBitMaskFaultCascadesWithoutIdxSync(t *testing.T) {
	// One mask bit flipped 0->1 misaligns all subsequent values.
	idx := randomIndices(8, 64, 0.6, 4, 9)
	enc := Must(EncodeBitMask(idx, 8, 64, 4, BitMaskOptions{}))
	// Flip the first zero mask bit.
	flipAt := -1
	for i := 0; i < enc.Mask.N; i++ {
		if enc.Mask.Get(i) == 0 {
			flipAt = i
			break
		}
	}
	enc.Mask.Set(flipAt, 1)
	dec := enc.Decode()
	// Count mismatches among non-zero positions after the flip.
	diff := 0
	for i := flipAt; i < len(idx); i++ {
		if dec[i] != idx[i] {
			diff++
		}
	}
	nzAfter := 0
	for i := flipAt; i < len(idx); i++ {
		if idx[i] != 0 {
			nzAfter++
		}
	}
	// Misalignment shifts every subsequent value: expect widespread
	// corruption (at least half the subsequent non-zeros mis-assigned).
	if diff < nzAfter/2 {
		t.Errorf("mask fault corrupted only %d of %d subsequent nnz", diff, nzAfter)
	}
}

func TestBitMaskIdxSyncConfinesFault(t *testing.T) {
	// With IdxSync, corruption stops at the next block boundary
	// (Figure 4 of the paper).
	const blockBits = 64
	idx := randomIndices(8, 64, 0.6, 4, 10) // 512 weights = 8 blocks
	enc := Must(EncodeBitMask(idx, 8, 64, 4, BitMaskOptions{IdxSync: true, MaskBlockBits: blockBits}))
	// Flip a zero mask bit inside block 2.
	flipAt := -1
	for i := 2 * blockBits; i < 3*blockBits; i++ {
		if enc.Mask.Get(i) == 0 {
			flipAt = i
			break
		}
	}
	if flipAt < 0 {
		t.Skip("no zero bit in block 2")
	}
	enc.Mask.Set(flipAt, 1)
	dec := enc.Decode()
	for i := 0; i < 2*blockBits; i++ {
		if dec[i] != idx[i] {
			t.Fatalf("corruption before faulty block at %d", i)
		}
	}
	for i := 3 * blockBits; i < len(idx); i++ {
		if dec[i] != idx[i] {
			t.Fatalf("corruption leaked past block boundary at %d", i)
		}
	}
}

func TestBitMaskCounterFaultLocal(t *testing.T) {
	// A corrupted IdxSync counter corrupts from its block boundary on,
	// but blocks after the *next* boundary recover only if later
	// counters are intact — the prefix sum shifts. Verify the shift is
	// applied from the following block onward.
	const blockBits = 64
	idx := randomIndices(4, 64, 0.5, 4, 11)
	enc := Must(EncodeBitMask(idx, 4, 64, 4, BitMaskOptions{IdxSync: true, MaskBlockBits: blockBits}))
	enc.Counters.Set(0, enc.Counters.Get(0)+1)
	dec := enc.Decode()
	for i := 0; i < blockBits; i++ {
		if dec[i] != idx[i] {
			t.Fatalf("block 0 corrupted at %d", i)
		}
	}
	diff := 0
	for i := blockBits; i < len(idx); i++ {
		if dec[i] != idx[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("counter fault had no effect")
	}
}

func TestBitMaskSizeAccounting(t *testing.T) {
	idx := randomIndices(16, 64, 0.75, 4, 12)
	plain := Must(EncodeBitMask(idx, 16, 64, 4, BitMaskOptions{}))
	sync := Must(EncodeBitMask(idx, 16, 64, 4, BitMaskOptions{IdxSync: true}))
	if sync.SizeBits() <= plain.SizeBits() {
		t.Error("IdxSync must cost extra bits")
	}
	// Value array is 128-byte aligned.
	if plain.SizeBits()%8 != 0 {
		t.Error("size should be byte aligned")
	}
	nnz := int64(countNZ(idx))
	minBits := int64(len(idx)) + nnz*4
	if plain.SizeBits() < minBits {
		t.Errorf("size %d below raw content %d", plain.SizeBits(), minBits)
	}
}

func TestDenseRoundTrip(t *testing.T) {
	idx := randomIndices(10, 10, 0.5, 6, 13)
	enc := Must(EncodeDense(idx, 10, 10, 6))
	if !equalU8(enc.Decode(), idx) {
		t.Fatal("dense round trip failed")
	}
	if enc.SizeBits() != 600 {
		t.Errorf("size = %d, want 600", enc.SizeBits())
	}
}

func TestEncodeDispatch(t *testing.T) {
	idx := randomIndices(8, 16, 0.6, 4, 14)
	for _, k := range Kinds {
		enc := Must(Encode(k, idx, 8, 16, 4))
		if !equalU8(enc.Decode(), idx) {
			t.Errorf("%v round trip failed", k)
		}
		if enc.SizeBits() <= 0 {
			t.Errorf("%v size %d", k, enc.SizeBits())
		}
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindDense: "P+C", KindCSR: "CSR",
		KindBitMask: "BitMask", KindBitMaskIdxSync: "BitM+IdxSync",
		Kind24: "2:4",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

// allKinds is every row of the format table, Kind24 included.
var allKinds = append(append([]Kind{}, Kinds...), Kind24)

func TestParseKind(t *testing.T) {
	for _, k := range allKinds {
		if got, err := ParseKind(k.String()); err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	// Every spelling the CLI flag parser and the server decoder accepted
	// before they shared this table.
	spellings := map[string]Kind{
		"dense": KindDense, "p+c": KindDense, "csr": KindCSR, "bitmask": KindBitMask,
		"idxsync": KindBitMaskIdxSync, "bitmask+idxsync": KindBitMaskIdxSync,
		"bitm+idxsync": KindBitMaskIdxSync, "24": Kind24, "2:4": Kind24,
	}
	for name, want := range spellings {
		for _, in := range []string{name, strings.ToUpper(name), " " + name + "\t"} {
			if got, err := ParseKind(in); err != nil || got != want {
				t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, want)
			}
		}
	}
	_, err := ParseKind("wavelets")
	if err == nil {
		t.Fatal("ParseKind accepted an unknown name")
	}
	for _, name := range KindNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

func TestStreamNames(t *testing.T) {
	idx := randomIndices(8, 32, 0.6, 4, 3)
	for _, k := range allKinds {
		var got []string
		for _, s := range Must(Encode(k, idx, 8, 32, 4)).Streams() {
			got = append(got, s.Name)
		}
		if !slices.Equal(got, k.StreamNames()) {
			t.Errorf("%v: encoded streams %v, table %v", k, got, k.StreamNames())
		}
	}
	if n := Kind(99).StreamNames(); n != nil {
		t.Errorf("unknown kind streams %v", n)
	}
}

func TestSparseEncodingsCompress(t *testing.T) {
	// At high sparsity both sparse encodings beat dense storage — the
	// premise of Table 2.
	idx := randomIndices(64, 256, 0.9, 4, 15)
	dense := Must(Encode(KindDense, idx, 64, 256, 4)).SizeBits()
	csr := Must(Encode(KindCSR, idx, 64, 256, 4)).SizeBits()
	bm := Must(Encode(KindBitMask, idx, 64, 256, 4)).SizeBits()
	if csr >= dense {
		t.Errorf("CSR %d >= dense %d at 90%% sparsity", csr, dense)
	}
	if bm >= dense {
		t.Errorf("BitMask %d >= dense %d at 90%% sparsity", bm, dense)
	}
}

func TestMismatch(t *testing.T) {
	a := []uint8{1, 2, 3, 4}
	b := []uint8{1, 0, 3, 5}
	if m := Mismatch(a, b); m != 0.5 {
		t.Errorf("Mismatch = %v, want 0.5", m)
	}
	if m := Mismatch(a, a); m != 0 {
		t.Errorf("self mismatch = %v", m)
	}
}

package core

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/dnn"
	"repro/internal/envm"
	"repro/internal/sparse"
	"repro/internal/stats"
	"repro/internal/tensor"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// g renders a float at full precision (shortest round-trip form).
func g(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func goldenCandidate(b *bytes.Buffer, ex *Explorer, what string, c Candidate) {
	fmt.Fprintf(b, "%s %s %s label=%s policy=%s cells=%d bits=%d maxbpc=%d delta=%s accepted=%v layerbits=%v\n",
		what, c.Tech.Name, c.Kind, c.Label(), c.PolicyString(), c.TotalCells, c.TotalBits(),
		c.MaxBPC, g(c.DeltaErr), c.Accepted, ex.EncodedLayerBits(c))
}

func goldenPerLayer(b *bytes.Buffer, what string, pl PerLayerCandidate) {
	fmt.Fprintf(b, "%s %s summary=%q cells=%d bits=%d maxbpc=%d delta=%s accepted=%v\n",
		what, pl.Tech.Name, pl.Summary(), pl.TotalCells, pl.TotalBits, pl.MaxBPC, g(pl.DeltaErr), pl.Accepted)
}

// TestExplorerGolden pins the exact output of the design-space search on
// the shared LeNet5 explorer: the uniform search per technology x
// encoding, the per-technology winner, the per-layer search and one
// aged-device row, plus a few rows on a row-subsampled preparation. A
// refactor of the search must leave every digit unchanged; run with
// -update only when the science is meant to move.
func TestExplorerGolden(t *testing.T) {
	_, ex := getLeNetExplorer(t)
	var b bytes.Buffer
	for _, tech := range envm.Evaluated() {
		for _, kind := range sparse.Kinds {
			goldenCandidate(&b, ex, "best", ex.Best(tech, kind))
		}
		goldenCandidate(&b, ex, "overall", ex.BestOverall(tech))
		goldenPerLayer(&b, "perlayer", ex.BestPerLayer(tech))
	}
	goldenCandidate(&b, ex, "retention10", ex.WithRetention(10).BestOverall(envm.CTT))

	// Row-subsampled layers (fc1 at 10k weights) take the damage
	// dilution path, which full-fidelity LeNet5 never reaches.
	sub := NewExplorer(Prepare(dnn.LeNet5(), PrepareOptions{Seed: 3, MaxLayerWeights: 10000}),
		ProfileOptions{Seed: 5, DamageTrials: 4})
	goldenCandidate(&b, sub, "subsampled", sub.Best(envm.CTT, sparse.KindCSR))
	goldenCandidate(&b, sub, "subsampled", sub.BestOverall(envm.MLCRRAM))
	goldenPerLayer(&b, "subsampled-perlayer", sub.BestPerLayer(envm.CTT))

	golden := filepath.Join("testdata", "explorer.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("explorer output drifted from golden file (run with -update if intended)\n--- got ---\n%s--- want ---\n%s",
			b.Bytes(), want)
	}
}

// TestPrepareLayerGolden pins prepareLayer on a synthetic Gaussian
// layer of just over 2^21 weights, the size at which every sampled path
// runs: Prune estimates its threshold from a sample, k-means clusters a
// sample of the nonzeros, and at the capped size only strided rows are
// kept. The hashes cover the shape, the scale, every centroid's bits and
// every index; they were recorded before the sorted-sweep k-means,
// selected prune threshold and row-restricted assignment went in.
func TestPrepareLayerGolden(t *testing.T) {
	src := stats.NewSource(11)
	orig := tensor.NewMatrix(1025, 2048)
	for i := range orig.Data {
		orig.Data[i] = float32(src.Gaussian(0, 0.05))
	}
	for _, c := range []struct {
		maxWeights int
		rows, nnz  int
		hash       uint64
	}{
		{0, 1025, 211461, 0x5d710e5a34d34209},
		{1 << 18, 128, 26518, 0x2180a6b9fc6a0996},
	} {
		pl := prepareLayer("big", orig.Clone(), 0.9, 5, 7, c.maxWeights)
		h := fnv.New64a()
		var buf [8]byte
		put := func(v uint64) { binary.LittleEndian.PutUint64(buf[:], v); h.Write(buf[:]) }
		put(uint64(pl.CL.Rows))
		put(uint64(pl.CL.Cols))
		put(math.Float64bits(pl.Scale))
		for _, x := range pl.CL.Centroids {
			put(uint64(math.Float32bits(x)))
		}
		h.Write(pl.CL.Indices)
		if pl.CL.Rows != c.rows || pl.CL.NNZ() != c.nnz || h.Sum64() != c.hash {
			t.Errorf("cap %d: rows %d nnz %d hash %#016x, want rows %d nnz %d hash %#016x",
				c.maxWeights, pl.CL.Rows, pl.CL.NNZ(), h.Sum64(), c.rows, c.nnz, c.hash)
		}
		if pl.FullRows != 1025 || pl.FullCols != 2048 {
			t.Errorf("cap %d: full shape %dx%d, want 1025x2048", c.maxWeights, pl.FullRows, pl.FullCols)
		}
	}
}

package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/ares"
	"repro/internal/dnn"
	"repro/internal/envm"
	"repro/internal/sparse"
)

// Shared explorer over a LeNet5-class model: prepared and profiled once.
var (
	lenetOnce sync.Once
	lenetPM   *PreparedModel
	lenetEx   *Explorer
)

func getLeNetExplorer(t *testing.T) (*PreparedModel, *Explorer) {
	t.Helper()
	lenetOnce.Do(func() {
		m := dnn.LeNet5()
		lenetPM = Prepare(m, PrepareOptions{Seed: 3})
		lenetEx = NewExplorer(lenetPM, ProfileOptions{Seed: 5, DamageTrials: 4})
	})
	return lenetPM, lenetEx
}

func TestPrepareMatchesMeta(t *testing.T) {
	pm, _ := getLeNetExplorer(t)
	if len(pm.Layers) != 4 {
		t.Fatalf("LeNet5 prepared layers = %d, want 4", len(pm.Layers))
	}
	// Achieved sparsity near the Table 2 target.
	var nnz, total float64
	for _, pl := range pm.Layers {
		nnz += float64(pl.CL.NNZ())
		total += float64(len(pl.CL.Indices))
	}
	got := 1 - nnz/total
	if math.Abs(got-pm.Model.Meta.TargetSparsity) > 0.01 {
		t.Errorf("achieved sparsity %.3f, target %.3f", got, pm.Model.Meta.TargetSparsity)
	}
	// Float weights were released after clustering.
	if pm.Model.Materialized() {
		t.Error("prepare should release float weights")
	}
}

func TestPrepareSubsampling(t *testing.T) {
	m := dnn.LeNet5()
	pm := Prepare(m, PrepareOptions{Seed: 3, MaxLayerWeights: 10000})
	for _, pl := range pm.Layers {
		if len(pl.CL.Indices) > 2*10000 {
			t.Errorf("layer %s not capped: %d weights", pl.Name, len(pl.CL.Indices))
		}
		if pl.FullWeights() < int64(len(pl.CL.Indices)) {
			t.Error("full weights below subsample")
		}
		if pl.Scale < 1 {
			t.Errorf("scale %v < 1", pl.Scale)
		}
	}
	// fc1 (800x500 = 400k) must be subsampled.
	var fc1 *PreparedLayer
	for i := range pm.Layers {
		if pm.Layers[i].Name == "fc1" {
			fc1 = &pm.Layers[i]
		}
	}
	if fc1 == nil || fc1.Scale <= 1 {
		t.Fatal("fc1 should be subsampled")
	}
	// Subsample preserves sparsity statistics.
	if math.Abs(fc1.CL.Sparsity()-0.899) > 0.05 {
		t.Errorf("subsample sparsity %.3f drifted", fc1.CL.Sparsity())
	}
}

func TestPolicyChoices(t *testing.T) {
	c := PolicyChoices(3)
	if len(c) != 6 {
		t.Fatalf("choices = %d, want 6", len(c))
	}
	c1 := PolicyChoices(1)
	if len(c1) != 2 {
		t.Fatalf("SLC choices = %d, want 2", len(c1))
	}
}

// TestSearchedPoliciesAreProbed: every policy the search enumerates, on
// every evaluated technology and encoding, has a measured probe in every
// layer profile — an unprobed policy would read a zero probe and score
// as harmless.
func TestSearchedPoliciesAreProbed(t *testing.T) {
	_, ex := getLeNetExplorer(t)
	for _, tech := range envm.Evaluated() {
		for _, kind := range sparse.Kinds {
			t.Run(tech.Name+"/"+kind.String(), func(t *testing.T) {
				forEachSelection(tech, kind, func(policies map[string]ares.StreamPolicy) {
					for l, lp := range ex.Profiles[kind] {
						name := ex.PM.Layers[l].Name
						for _, sp := range lp.Streams {
							p, ok := policies[sp.Name]
							if !ok {
								t.Fatalf("%s: no policy for stream %q", name, sp.Name)
							}
							if _, ok := sp.Probes[p]; !ok {
								t.Fatalf("%s/%s: searched policy %s has no probe", name, sp.Name, p)
							}
						}
					}
				})
			})
		}
	}
}

func TestProfileLayerStructure(t *testing.T) {
	pm, ex := getLeNetExplorer(t)
	_ = pm
	profiles := ex.Profiles[sparse.KindCSR]
	if len(profiles) != 4 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	lp := profiles[2] // fc1
	if len(lp.Streams) != 3 {
		t.Fatalf("CSR streams = %d", len(lp.Streams))
	}
	// Rowcount cascades; values do not.
	byName := map[string]StreamProfile{}
	for _, sp := range lp.Streams {
		byName[sp.Name] = sp
	}
	key := ares.StreamPolicy{BPC: 3}
	if !byName["rowcount"].Probes[key].Catastrophic() {
		t.Errorf("rowcount probe %v should cascade", byName["rowcount"].Probes[key])
	}
	if byName["values"].Probes[key].Catastrophic() {
		t.Errorf("values probe %v should not cascade", byName["values"].Probes[key])
	}
}

func TestEvaluateCandidateBasics(t *testing.T) {
	_, ex := getLeNetExplorer(t)
	policies := map[string]ares.StreamPolicy{
		"values":   {BPC: 3},
		"colidx":   {BPC: 3, ECC: true},
		"rowcount": {BPC: 3, ECC: true},
	}
	c := ex.Evaluate(envm.CTT, sparse.KindCSR, policies)
	if c.TotalCells <= 0 || c.TotalDataBits <= 0 {
		t.Fatalf("bad cost: %+v", c)
	}
	if c.TotalParityBits <= 0 {
		t.Error("ECC policies should add parity")
	}
	if c.MaxBPC != 3 {
		t.Errorf("MaxBPC = %d", c.MaxBPC)
	}
	if c.Label() != "CSR+ECC" {
		t.Errorf("label = %q", c.Label())
	}
}

func TestUnprotectedMLC3CSRRejected(t *testing.T) {
	// The paper's core negative result: raw MLC3 CSR structures break
	// accuracy (Figure 5); the explorer must reject them for LeNet5.
	_, ex := getLeNetExplorer(t)
	raw := map[string]ares.StreamPolicy{
		"values":   {BPC: 3},
		"colidx":   {BPC: 3},
		"rowcount": {BPC: 3},
	}
	c := ex.Evaluate(envm.CTT, sparse.KindCSR, raw)
	if c.Accepted {
		t.Errorf("unprotected MLC3 CSR accepted with delta %.5f <= bound %.5f",
			c.DeltaErr, ex.PM.Model.Meta.ErrorBound)
	}
}

func TestSLCAlwaysAccepted(t *testing.T) {
	_, ex := getLeNetExplorer(t)
	for _, kind := range sparse.Kinds {
		names := kind.StreamNames()
		policies := map[string]ares.StreamPolicy{}
		for _, n := range names {
			policies[n] = ares.StreamPolicy{BPC: 1}
		}
		c := ex.Evaluate(envm.SLCRRAM, kind, policies)
		if !c.Accepted {
			t.Errorf("%v at SLC rejected (delta %.5g)", kind, c.DeltaErr)
		}
	}
}

func TestBestFindsAcceptedMinimum(t *testing.T) {
	_, ex := getLeNetExplorer(t)
	best := ex.Best(envm.CTT, sparse.KindCSR)
	if !best.Accepted {
		t.Fatalf("no accepted CSR config on CTT: delta %.5g", best.DeltaErr)
	}
	// MLC must beat an all-SLC assignment (otherwise MLC eNVM would be
	// pointless).
	slcPolicies := map[string]ares.StreamPolicy{
		"values": {BPC: 1}, "colidx": {BPC: 1}, "rowcount": {BPC: 1},
	}
	slc := ex.Evaluate(envm.CTT, sparse.KindCSR, slcPolicies)
	if best.TotalCells >= slc.TotalCells {
		t.Errorf("best (%d cells) does not beat all-SLC (%d cells)", best.TotalCells, slc.TotalCells)
	}
	if best.MaxBPC < 2 {
		t.Errorf("best CSR config uses MaxBPC %d; expected MLC", best.MaxBPC)
	}
}

func TestBestOverallBeatsSLCBaseline(t *testing.T) {
	// Abstract: optimal MLC designs provide large area (cell) reduction
	// relative to SLC eNVM.
	_, ex := getLeNetExplorer(t)
	best := ex.BestOverall(envm.CTT)
	if !best.Accepted {
		t.Fatal("no accepted config on CTT")
	}
	benefit := ex.AreaBenefit(best)
	if benefit < 3 {
		t.Errorf("cell reduction vs dense SLC = %.1fx, want >= 3x", benefit)
	}
}

func TestSparseEncodingBeatsDense(t *testing.T) {
	// LeNet5 is 90% sparse: sparse encodings must need fewer cells than
	// dense storage on the same technology.
	_, ex := getLeNetExplorer(t)
	dense := ex.Best(envm.CTT, sparse.KindDense)
	csr := ex.Best(envm.CTT, sparse.KindCSR)
	bm := ex.Best(envm.CTT, sparse.KindBitMaskIdxSync)
	if csr.TotalCells >= dense.TotalCells {
		t.Errorf("CSR %d cells >= dense %d", csr.TotalCells, dense.TotalCells)
	}
	if bm.TotalCells >= dense.TotalCells {
		t.Errorf("BitM+IdxSync %d cells >= dense %d", bm.TotalCells, dense.TotalCells)
	}
}

func TestSummarize(t *testing.T) {
	_, ex := getLeNetExplorer(t)
	sum := ex.Summarize(envm.CTT, 0)
	if sum.Array.AreaMM2 <= 0 || sum.CapacityMB <= 0 {
		t.Fatalf("bad summary: %+v", sum)
	}
	if sum.WriteTimeSec <= 0 {
		t.Error("write time missing")
	}
	// Consistency: the characterized array holds at least the cells.
	cells := envm.CellsFor(sum.Array.Capacity, sum.Array.BPC)
	if cells < sum.Candidate.TotalCells {
		t.Errorf("array %d cells < candidate %d", cells, sum.Candidate.TotalCells)
	}
}

func TestFigure6Rows(t *testing.T) {
	_, ex := getLeNetExplorer(t)
	rows := ex.Figure6([]envm.Tech{envm.CTT, envm.SLCRRAM})
	if len(rows) != 2*len(sparse.Kinds) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Every CTT row must use fewer cells than its SLC counterpart.
	byKey := map[string]Figure6Row{}
	for _, r := range rows {
		byKey[r.Tech+"/"+r.Encoding] = r
	}
	for _, kind := range []string{"P+C", "CSR", "BitMask"} {
		ctt, okC := byKey["MLC-CTT/"+kind]
		slc, okS := byKey["SLC-RRAM/"+kind]
		if !okC || !okS {
			continue // label may carry +ECC suffix
		}
		if ctt.Accepted && slc.Accepted && ctt.Cells >= slc.Cells {
			t.Errorf("%s: CTT %d cells >= SLC %d", kind, ctt.Cells, slc.Cells)
		}
	}
}

func TestEncodedLayerBits(t *testing.T) {
	_, ex := getLeNetExplorer(t)
	c := ex.BestOverall(envm.CTT)
	bits := ex.EncodedLayerBits(c)
	if len(bits) != 4 {
		t.Fatalf("layer bits = %d entries", len(bits))
	}
	var total int64
	for _, b := range bits {
		if b <= 0 {
			t.Error("non-positive layer bits")
		}
		total += b
	}
	if total != c.TotalBits() {
		t.Errorf("layer bits sum %d != candidate total %d", total, c.TotalBits())
	}
}

func TestTable2LeNetShape(t *testing.T) {
	pm, _ := getLeNetExplorer(t)
	row := Table2(pm)
	// Paper: 1.26MB 16-bit -> P+C 316KB -> CSR 84KB / BitMask 107KB.
	if row.Raw16MB < 0.6 || row.Raw16MB > 1.4 {
		t.Errorf("raw = %.2f MB", row.Raw16MB)
	}
	if row.PCMB >= row.Raw16MB {
		t.Error("P+C should compress the 16-bit baseline")
	}
	if row.CSRMB >= row.PCMB || row.BitMaskMB >= row.PCMB {
		t.Errorf("sparse encodings should beat P+C: csr=%.3f bm=%.3f pc=%.3f",
			row.CSRMB, row.BitMaskMB, row.PCMB)
	}
	// At 90% sparsity CSR lands near the paper's 84KB (within 2x).
	if row.CSRMB < 0.04 || row.CSRMB > 0.17 {
		t.Errorf("CSR = %.3f MB, paper 0.084", row.CSRMB)
	}
}

func TestCandidatePolicyString(t *testing.T) {
	_, ex := getLeNetExplorer(t)
	c := ex.Best(envm.CTT, sparse.KindCSR)
	s := c.PolicyString()
	if s == "" {
		t.Error("empty policy string")
	}
}

func TestWithRetentionSharesProfilesAndDegrades(t *testing.T) {
	_, ex := getLeNetExplorer(t)
	aged := ex.WithRetention(10)
	if &aged.Profiles == &ex.Profiles {
		t.Log("profiles shared by reference (expected)")
	}
	fresh := ex.Evaluate(envm.CTT, sparse.KindDense, map[string]ares.StreamPolicy{"values": {BPC: 3}})
	old := aged.Evaluate(envm.CTT, sparse.KindDense, map[string]ares.StreamPolicy{"values": {BPC: 3}})
	if old.DeltaErr <= fresh.DeltaErr {
		t.Errorf("retention should raise expected error: fresh %.4g aged %.4g", fresh.DeltaErr, old.DeltaErr)
	}
	// Costs are unaffected by age.
	if old.TotalCells != fresh.TotalCells {
		t.Error("retention must not change storage cost")
	}
	// The original explorer is untouched.
	if ex.Opt.RetentionYears != 0 {
		t.Error("WithRetention mutated the original explorer")
	}
}

// TestIdxSyncContainsBitmaskCascade pins the paper's bitmask ordering
// (Section 4.2) on the measured probes: one unprotected mask fault
// cascades without IdxSync, IdxSync never does worse, and on every layer
// whose mask spans more than one IdxSync block the counters contain the
// cascade. A decoder change that breaks containment fails here by name.
func TestIdxSyncContainsBitmaskCascade(t *testing.T) {
	_, ex := getLeNetExplorer(t)
	maskProbe := func(lp LayerProfile, p ares.StreamPolicy) DamageProbe {
		t.Helper()
		for _, sp := range lp.Streams {
			if sp.Name == "bitmask" {
				return sp.Probes[p]
			}
		}
		t.Fatal("no bitmask stream")
		return DamageProbe{}
	}
	plain, synced := ex.Profiles[sparse.KindBitMask], ex.Profiles[sparse.KindBitMaskIdxSync]
	multiBlock := 0
	for l, lp := range plain {
		sl := synced[l]
		name, weights := ex.PM.Layers[l].Name, len(ex.PM.Layers[l].CL.Indices)
		for _, p := range PolicyChoices(searchMaxBPC) {
			if p.ECC {
				continue
			}
			bm, is := maskProbe(lp, p), maskProbe(sl, p)
			if !bm.Catastrophic() {
				t.Errorf("%s %v: bitmask probe DMismatch %.4g is not catastrophic", name, p, bm.DMismatch)
			}
			if is.DMismatch > bm.DMismatch {
				t.Errorf("%s %v: IdxSync DMismatch %.4g above plain bitmask %.4g", name, p, is.DMismatch, bm.DMismatch)
			}
			if weights > sparse.BlockBytes*8 && is.Catastrophic() {
				t.Errorf("%s %v: IdxSync bitmask probe DMismatch %.4g still cascades over %d mask bits",
					name, p, is.DMismatch, weights)
			}
		}
		if weights > sparse.BlockBytes*8 {
			multiBlock++
		}
	}
	if multiBlock != 3 {
		t.Errorf("%d layers span more than one IdxSync block, want 3 (conv2, fc1, fc2)", multiBlock)
	}
}

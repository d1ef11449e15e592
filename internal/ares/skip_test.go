package ares

// The clean-layer skips of the hot storage step (cached pristine
// parity, no Correct on a stream that drew no fault, the route's
// reference instead of a decode) pinned against the full path, which
// protects afresh, corrects every block and decodes every layer.

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/ecc"
	"repro/internal/envm"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// skipGridConfigs is every Figure 5 isolated-stream config (each
// stream of CSR, bitmask, IdxSync and 2:4 at 1-3 bits per cell and at
// 3+ECC), the evaluation server's four benchmark tenants, 64-bit ECC
// blocks and graceful degradation.
func skipGridConfigs() []Config {
	var cfgs []Config
	for _, kind := range []sparse.Kind{sparse.KindCSR, sparse.KindBitMask, sparse.KindBitMaskIdxSync, sparse.Kind24} {
		for _, s := range kind.StreamNames() {
			for _, p := range []StreamPolicy{{BPC: 1}, {BPC: 2}, {BPC: 3}, {BPC: 3, ECC: true}} {
				cfgs = append(cfgs, IsolateStream(Config{Tech: envm.CTT, Encoding: kind}, s, p))
			}
		}
	}
	ecc3 := StreamPolicy{BPC: 3, ECC: true}
	return append(cfgs,
		Config{Tech: envm.CTT, Encoding: sparse.KindCSR, Default: StreamPolicy{BPC: 3}},
		Config{Tech: envm.CTT, Encoding: sparse.KindCSR, Default: StreamPolicy{BPC: 3},
			Overrides: map[string]StreamPolicy{"rowcount": ecc3, "colidx": ecc3}},
		Config{Tech: envm.MLCRRAM, Encoding: sparse.KindBitMask, Default: StreamPolicy{BPC: 2, ECC: true}},
		Config{Tech: envm.CTT, Encoding: sparse.KindBitMaskIdxSync, Default: StreamPolicy{BPC: 2}, RetentionYears: 3},
		Config{Tech: envm.CTT, Encoding: sparse.KindCSR, Default: ecc3, ECCBlockBits: 64},
		degradeCfg(sparse.KindBitMask),
	)
}

// hotLayer runs layer i of a trial on the hot storage step with layer
// seed seed, returning its statistics, its decoded indices and whether
// the decode was skipped (the indices are the route's shared
// reference).
func hotLayer(t *testing.T, ev *MeasuredEvaluator, cfg Config, i int, seed uint64) (st TrialStats, idx []uint8, skipped bool) {
	t.Helper()
	ctx := context.Background()
	encs, err := ev.encodings(cfg.Encoding)
	if err != nil {
		t.Fatal(err)
	}
	refs, sigs, _, err := ev.refFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := sparse.CloneEncoding(encs[i])
	if err != nil {
		t.Fatal(err)
	}
	st, idx, err = storageStep(ctx, storedOf(clone), &pristineLayer{ev, i, encs[i].Streams(), sigs[i]}, refs[i], ev.clustered[i].Centroids, cfg, stats.NewSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	return st, idx, &idx[0] == &refs[i][0]
}

// TestCleanLayerSkipMatchesFullDecode pins the hot storage step
// against the full path over the grid, layer by layer: the statistics
// and the decoded indices must equal RunTrialChecked's bit for bit. A
// trial with a layer whose faults ECC corrected in full, so that it
// took the skip, must measure the same delta on EvalTrial as on
// EvalTrialSerial.
func TestCleanLayerSkipMatchesFullDecode(t *testing.T) {
	ev := getMeasured(t)
	ctx := context.Background()
	seeds := uint64(200)
	var skips, eccSkips int
	for _, cfg := range skipGridConfigs() {
		encs, err := ev.encodings(cfg.Encoding)
		if err != nil {
			t.Fatal(err)
		}
		refs, _, _, err := ev.refFor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		measured := 0
		for seed := uint64(1); seed <= seeds; seed++ {
			tsrc := stats.NewSource(seed)
			corrected := false
			for i, cl := range ev.clustered {
				ls := tsrc.Uint64()
				st, idx, skipped := hotLayer(t, ev, cfg, i, ls)
				want, dec, err := RunTrialChecked(ctx, encs[i], refs[i], cl.Centroids, cfg, ls)
				if err != nil {
					t.Fatal(err)
				}
				if st != want {
					t.Fatalf("%v seed %d layer %d: hot stats %+v, full %+v", cfg, seed, i, st, want)
				}
				if !bytes.Equal(idx, dec) {
					t.Fatalf("%v seed %d layer %d: hot indices differ from the full decode", cfg, seed, i)
				}
				if skipped {
					skips++
					if st.Faults > 0 && st.Corrected > 0 {
						eccSkips++
						corrected = true
					}
				}
			}
			// Inference is the grid's dominant cost: measure the first
			// few such trials of each config.
			if corrected && measured < 3 {
				measured++
				dHot, sHot, err := ev.EvalTrial(ctx, cfg, seed)
				if err != nil {
					t.Fatal(err)
				}
				dSer, sSer, err := ev.EvalTrialSerial(ctx, cfg, seed)
				if err != nil {
					t.Fatal(err)
				}
				if dHot != dSer || sHot != sSer {
					t.Errorf("%v seed %d: EvalTrial (%v, %+v) != EvalTrialSerial (%v, %+v)", cfg, seed, dHot, sHot, dSer, sSer)
				}
			}
		}
	}
	if skips == 0 || eccSkips == 0 {
		t.Fatalf("grid took %d skips, %d after ECC corrected every fault; want both > 0", skips, eccSkips)
	}
}

// TestParityCache pins the cached pristine parity: it equals a fresh
// Protect of the pristine stream for every format, layer, stream and
// block size the grid uses, and 1000 concurrent trials of one config
// leave exactly one entry per (format, layer, ECC stream, block size).
func TestParityCache(t *testing.T) {
	ev := getMeasured(t)
	for _, kind := range []sparse.Kind{sparse.KindCSR, sparse.KindBitMask, sparse.KindBitMaskIdxSync, sparse.Kind24} {
		encs, err := ev.encodings(kind)
		if err != nil {
			t.Fatal(err)
		}
		for i, enc := range encs {
			pr := &pristineLayer{ev: ev, i: i, streams: enc.Streams()}
			for s, st := range enc.Streams() {
				for _, b := range []int{ECCDataBits, 64, 4096} {
					code := ecc.NewBlockCode(b)
					want := code.Protect(st.Bits).Parity.Bits
					key := parityKey{int(kind), i, s, b}
					for call := 0; call < 2; call++ {
						prot := pr.protect(kind, s, st.Bits.Clone(), code, nil)
						ev.encMu.Lock()
						cached := ev.parCache[key]
						ev.encMu.Unlock()
						if cached == nil || !cached.Bits.Equal(want) || !prot.Parity.Bits.Equal(want) {
							t.Fatalf("%v layer %d stream %s block %d: cached parity differs from Protect", kind, i, st.Name, b)
						}
						if prot.Parity == cached {
							t.Fatalf("%v layer %d stream %s block %d: protect hands out the cached parity itself", kind, i, st.Name, b)
						}
					}
				}
			}
		}
	}

	ecc3 := StreamPolicy{BPC: 3, ECC: true}
	cfg := Config{Tech: envm.CTT, Encoding: sparse.KindCSR, Default: StreamPolicy{BPC: 3},
		Overrides: map[string]StreamPolicy{"rowcount": ecc3, "colidx": ecc3}}
	ev.encMu.Lock()
	ev.parCache = make(map[parityKey]*bitstream.Stream)
	ev.encMu.Unlock()
	const workers, trials = 4, 1000
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seed := w; seed < trials; seed += workers {
				if _, err := ev.CorruptTrial(context.Background(), cfg, uint64(seed)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := map[parityKey]bool{}
	for i := range ev.clustered {
		for s, name := range cfg.Encoding.StreamNames() {
			if cfg.PolicyFor(name).ECC {
				want[parityKey{int(cfg.Encoding), i, s, cfg.BlockBits()}] = true
			}
		}
	}
	ev.encMu.Lock()
	defer ev.encMu.Unlock()
	if len(ev.parCache) != len(want) {
		t.Errorf("parity cache holds %d entries after %d trials, want %d", len(ev.parCache), trials, len(want))
	}
	for k := range ev.parCache {
		if !want[k] {
			t.Errorf("unexpected parity cache entry %+v", k)
		}
	}
}

// TestScrubbedResidualDamageReprotects drives persistent cells through
// two scrub epochs on the hot step and on the full path side by side.
// A layer the first epoch leaves damaged differs from its pristine
// encoding, so the second epoch must protect its rewritten bits afresh:
// stale pristine parity would make Correct "repair" the baked-in
// damage, and the two paths would part.
func TestScrubbedResidualDamageReprotects(t *testing.T) {
	ev := getMeasured(t)
	ctx := context.Background()
	cfg := Config{Tech: envm.CTT, Encoding: sparse.KindCSR, Default: StreamPolicy{BPC: 3, ECC: true}, RetentionYears: 10}
	encs, err := ev.encodings(cfg.Encoding)
	if err != nil {
		t.Fatal(err)
	}
	reprotected := 0
	for seed := uint64(1); seed <= 40; seed++ {
		for li, cl := range ev.clustered {
			pr := &pristineLayer{ev, li, encs[li].Streams(), ev.origSig[li]}
			hot := sparse.Must(sparse.CloneEncoding(encs[li]))
			full := sparse.Must(sparse.CloneEncoding(encs[li]))
			damaged := false
			for epoch := uint64(1); epoch <= 2; epoch++ {
				sH, dH, err := storageStep(ctx, storedOf(hot), pr, cl.Indices, cl.Centroids, cfg, stats.NewSource(seed).Fork(epoch))
				if err != nil {
					t.Fatal(err)
				}
				sF, dF, err := storageStep(ctx, storedOf(full), nil, cl.Indices, cl.Centroids, cfg, stats.NewSource(seed).Fork(epoch))
				if err != nil {
					t.Fatal(err)
				}
				if sH != sF || !bytes.Equal(dH, dF) {
					t.Fatalf("seed %d layer %d epoch %d: hot (%+v) != full (%+v)", seed, li, epoch, sH, sF)
				}
				if damaged && sF.Faults > 0 {
					reprotected++
				}
				damaged = !pr.clean(hot.Streams())
			}
		}
	}
	if reprotected == 0 {
		t.Fatal("no second epoch injected into a damaged layer: the test exercises nothing")
	}
}

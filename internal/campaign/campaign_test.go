package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/stats"
)

// detRun is a deterministic trial function: the sample is a pure
// function of the trial seed, like the real fault-injection path.
func detRun(ctx context.Context, t Trial) (Sample, error) {
	src := stats.NewSource(t.Seed)
	return Sample{
		Value: src.Gaussian(1, 0.25),
		Extra: map[string]float64{"faults": float64(src.Intn(100))},
	}, nil
}

func mustRun(t *testing.T, configs []string, run RunFunc, opt Options) *Result {
	t.Helper()
	c, err := New(configs, run, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameAggregates(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Configs) != len(b.Configs) {
		t.Fatalf("config count %d vs %d", len(a.Configs), len(b.Configs))
	}
	for i := range a.Configs {
		x, y := a.Configs[i], b.Configs[i]
		// Bit-identical comparison on purpose: == on float64, no epsilon.
		if x.Config != y.Config || x.N != y.N || x.Mean != y.Mean || x.Std != y.Std ||
			x.CIHalf != y.CIHalf || x.Min != y.Min || x.Max != y.Max ||
			x.EarlyStopped != y.EarlyStopped || len(x.Errors) != len(y.Errors) {
			t.Fatalf("aggregate mismatch for %q:\n  %+v\nvs\n  %+v", x.Config, x, y)
		}
		if len(x.Extra) != len(y.Extra) {
			t.Fatalf("extra key mismatch for %q", x.Config)
		}
		for k, v := range x.Extra {
			if y.Extra[k] != v {
				t.Fatalf("extra %q mismatch for %q: %v vs %v", k, x.Config, v, y.Extra[k])
			}
		}
	}
}

func TestAggregatesIndependentOfWorkerCount(t *testing.T) {
	configs := []string{"cfgA", "cfgB", "cfgC"}
	ref := mustRun(t, configs, detRun, Options{Seed: 42, MaxTrials: 25, Workers: 1})
	for _, workers := range []int{2, 8} {
		got := mustRun(t, configs, detRun, Options{Seed: 42, MaxTrials: 25, Workers: workers})
		sameAggregates(t, ref, got)
	}
}

func TestInterruptResumeBitIdentical(t *testing.T) {
	configs := []string{"cfgA", "cfgB"}
	const maxTrials = 30
	opt := Options{Seed: 7, MaxTrials: maxTrials, Workers: 4}

	// Reference: uninterrupted campaign, no checkpoint.
	ref := mustRun(t, configs, detRun, opt)

	// Interrupted campaign: cancel after 11 trials have completed.
	ckpt := filepath.Join(t.TempDir(), "campaign.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	killRun := func(ctx context.Context, tr Trial) (Sample, error) {
		s, err := detRun(ctx, tr)
		if done.Add(1) == 11 {
			cancel()
		}
		return s, err
	}
	iopt := opt
	iopt.CheckpointPath = ckpt
	c, err := New(configs, killRun, iopt)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := c.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run error = %v, want context.Canceled", err)
	}
	if !partial.Interrupted {
		t.Error("partial result should be marked interrupted")
	}
	covered := 0
	for _, cr := range partial.Configs {
		covered += int(cr.N)
	}
	if covered >= len(configs)*maxTrials {
		t.Fatalf("interruption did not interrupt: %d trials folded", covered)
	}

	// Resume from the checkpoint and compare against the reference.
	ropt := opt
	ropt.CheckpointPath = ckpt
	ropt.Resume = true
	resumed := mustRun(t, configs, detRun, ropt)
	if resumed.Reused == 0 {
		t.Error("resume reused no checkpointed trials")
	}
	if resumed.Executed >= len(configs)*maxTrials {
		t.Error("resume re-executed everything")
	}
	sameAggregates(t, ref, resumed)
}

func TestResumeOfCompleteCampaignExecutesNothing(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "campaign.jsonl")
	opt := Options{Seed: 3, MaxTrials: 10, CheckpointPath: ckpt}
	ref := mustRun(t, []string{"only"}, detRun, opt)
	opt.Resume = true
	again := mustRun(t, []string{"only"}, detRun, opt)
	if again.Executed != 0 {
		t.Errorf("complete campaign re-executed %d trials", again.Executed)
	}
	if again.Reused != 10 {
		t.Errorf("reused %d, want 10", again.Reused)
	}
	sameAggregates(t, ref, again)
}

func TestPanicFailsOneTrialNotCampaign(t *testing.T) {
	run := func(ctx context.Context, tr Trial) (Sample, error) {
		if tr.Config == "bad" && tr.Index == 3 {
			var s []int
			_ = s[7] // genuine runtime panic, as a library bug would produce
		}
		return detRun(ctx, tr)
	}
	res := mustRun(t, []string{"good", "bad"}, run, Options{Seed: 5, MaxTrials: 8, Workers: 4})
	good := res.Config("good")
	if good == nil || good.N != 8 || len(good.Errors) != 0 {
		t.Fatalf("good config disturbed: %+v", good)
	}
	bad := res.Config("bad")
	if bad == nil || bad.N != 7 {
		t.Fatalf("bad config: want 7 successes, got %+v", bad)
	}
	if len(bad.Errors) != 1 {
		t.Fatalf("want exactly one TrialError, got %d", len(bad.Errors))
	}
	te := bad.Errors[0]
	if te.Kind != KindPanic || te.Trial != 3 || te.Config != "bad" {
		t.Errorf("TrialError = %+v, want panic on bad/3", te)
	}
	if !strings.Contains(te.Msg, "index out of range") {
		t.Errorf("panic message lost: %q", te.Msg)
	}
	var err error = te
	var typed *TrialError
	if !errors.As(err, &typed) {
		t.Error("TrialError should satisfy errors.As")
	}
}

func TestTrialTimeout(t *testing.T) {
	run := func(ctx context.Context, tr Trial) (Sample, error) {
		if tr.Index == 2 {
			select {
			case <-time.After(5 * time.Second):
			case <-ctx.Done():
				return Sample{}, ctx.Err()
			}
		}
		return detRun(ctx, tr)
	}
	res := mustRun(t, []string{"cfg"}, run, Options{
		Seed: 9, MaxTrials: 5, Workers: 2, TrialTimeout: 30 * time.Millisecond,
	})
	cr := res.Config("cfg")
	if cr.N != 4 || len(cr.Errors) != 1 {
		t.Fatalf("want 4 successes + 1 timeout, got n=%d errors=%d", cr.N, len(cr.Errors))
	}
	if cr.Errors[0].Kind != KindTimeout || cr.Errors[0].Trial != 2 {
		t.Errorf("TrialError = %+v, want timeout on trial 2", cr.Errors[0])
	}
}

func TestNonTransientErrorIsTerminal(t *testing.T) {
	var calls atomic.Int64
	run := func(ctx context.Context, tr Trial) (Sample, error) {
		calls.Add(1)
		return Sample{}, fmt.Errorf("hard failure")
	}
	res := mustRun(t, []string{"cfg"}, run, Options{
		Seed: 1, MaxTrials: 1, Workers: 1,
	})
	if got := calls.Load(); got != 1 {
		t.Errorf("failed trial ran %d times, want once", got)
	}
	cr := res.Config("cfg")
	if len(cr.Errors) != 1 || cr.Errors[0].Kind != KindError {
		t.Fatalf("want one plain error, got %+v", cr)
	}
}

func TestEarlyStopping(t *testing.T) {
	// Tiny variance: the CI collapses almost immediately.
	run := func(ctx context.Context, tr Trial) (Sample, error) {
		src := stats.NewSource(tr.Seed)
		return Sample{Value: 0.5 + 1e-9*src.Float64()}, nil
	}
	res := mustRun(t, []string{"tight"}, run, Options{
		Seed: 21, MaxTrials: 1000, MinTrials: 6, CITarget: 1e-3, Workers: 4,
	})
	cr := res.Config("tight")
	if !cr.EarlyStopped {
		t.Fatal("config with negligible variance should early-stop")
	}
	if cr.N < 6 || cr.N >= 1000 {
		t.Fatalf("early stop folded n=%d, want 6 <= n << 1000", cr.N)
	}
	if res.Skipped == 0 {
		t.Error("early stop should report skipped trials")
	}

	// High variance with a tiny target must run to the full budget.
	full := mustRun(t, []string{"loose"}, detRun, Options{
		Seed: 21, MaxTrials: 12, MinTrials: 4, CITarget: 1e-12, Workers: 4,
	})
	if full.Configs[0].EarlyStopped || full.Configs[0].N != 12 {
		t.Fatalf("loose config stopped early: %+v", full.Configs[0])
	}
}

func TestEarlyStoppingDeterministicAcrossResume(t *testing.T) {
	// The stop decision must land on the same trial index in an
	// uninterrupted run and in an interrupted+resumed run.
	run := func(ctx context.Context, tr Trial) (Sample, error) {
		src := stats.NewSource(tr.Seed)
		return Sample{Value: src.Gaussian(2, 0.05)}, nil
	}
	opt := Options{Seed: 77, MaxTrials: 400, MinTrials: 8, CITarget: 0.02, Workers: 4}
	ref := mustRun(t, []string{"cfg"}, run, opt)
	if !ref.Configs[0].EarlyStopped {
		t.Fatal("test premise: reference run should early-stop")
	}

	ckpt := filepath.Join(t.TempDir(), "c.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	killRun := func(c context.Context, tr Trial) (Sample, error) {
		s, err := run(c, tr)
		if done.Add(1) == 5 {
			cancel()
		}
		return s, err
	}
	iopt := opt
	iopt.CheckpointPath = ckpt
	c, err := New([]string{"cfg"}, killRun, iopt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want cancellation, got %v", err)
	}
	ropt := opt
	ropt.CheckpointPath = ckpt
	ropt.Resume = true
	resumed := mustRun(t, []string{"cfg"}, run, ropt)
	sameAggregates(t, ref, resumed)
}

func TestCheckpointSeedMismatchRejected(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "c.jsonl")
	mustRun(t, []string{"cfg"}, detRun, Options{Seed: 1, MaxTrials: 3, CheckpointPath: ckpt})
	_, err := New([]string{"cfg"}, detRun, Options{
		Seed: 2, MaxTrials: 3, CheckpointPath: ckpt, Resume: true,
	})
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("seed mismatch not rejected: %v", err)
	}
}

func TestCheckpointRecordsErrors(t *testing.T) {
	// Terminal trial errors are checkpointed and replayed as errors, not
	// retried, so resumed aggregates match uninterrupted ones even in the
	// presence of failures.
	run := func(ctx context.Context, tr Trial) (Sample, error) {
		if tr.Index == 1 {
			return Sample{}, fmt.Errorf("deterministic failure")
		}
		return detRun(ctx, tr)
	}
	ckpt := filepath.Join(t.TempDir(), "c.jsonl")
	opt := Options{Seed: 4, MaxTrials: 4, CheckpointPath: ckpt}
	ref := mustRun(t, []string{"cfg"}, run, opt)
	if len(ref.Configs[0].Errors) != 1 {
		t.Fatalf("want one error, got %+v", ref.Configs[0])
	}

	// Checkpoints written before trials ran only once carry an
	// "attempts" count on their error records. Fleet shards in that
	// format must still resume, and fold as the fleet merge folds them,
	// to the same aggregates and the same errors.
	sr, err := durable.Scan(nil, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var old []byte
	for _, ln := range sr.Lines {
		p := ln.Payload
		if bytes.Contains(p, []byte(`"err_kind"`)) {
			p = append(bytes.TrimSuffix(p, []byte("}")), `,"attempts":3}`...)
		}
		old = durable.AppendFrame(old, p)
	}
	oldCkpt := filepath.Join(t.TempDir(), "old.jsonl")
	if err := os.WriteFile(oldCkpt, old, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{ckpt, oldCkpt} {
		ropt := opt
		ropt.CheckpointPath = path
		ropt.Resume = true
		var calls atomic.Int64
		resumed := mustRun(t, []string{"cfg"}, func(ctx context.Context, tr Trial) (Sample, error) {
			calls.Add(1)
			return detRun(ctx, tr)
		}, ropt)
		if calls.Load() != 0 {
			t.Errorf("%s: resume re-executed %d trials (errors must replay, not rerun)", path, calls.Load())
		}
		recs, _, err := ReadCheckpoint(nil, path, opt.Seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		folded, err := Fold([]string{"cfg"}, opt, recs)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []*Result{resumed, folded} {
			sameAggregates(t, ref, got)
			if !reflect.DeepEqual(got.Configs[0].Errors, ref.Configs[0].Errors) {
				t.Fatalf("%s: errors = %+v, want %+v", path, got.Configs[0].Errors, ref.Configs[0].Errors)
			}
		}
	}
}

func TestTrialSeedProperties(t *testing.T) {
	// Deterministic.
	if TrialSeed(1, "a", 0) != TrialSeed(1, "a", 0) {
		t.Fatal("TrialSeed not deterministic")
	}
	// Distinct across configs, trials, and base seeds (collision over a
	// small set would indicate a broken mixer).
	seen := map[uint64]string{}
	for _, base := range []uint64{0, 1, 42} {
		for _, cfg := range []string{"a", "b", "ab", "ba"} {
			for trial := 0; trial < 50; trial++ {
				s := TrialSeed(base, cfg, trial)
				key := fmt.Sprintf("%d/%s/%d", base, cfg, trial)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %s and %s both map to %d", prev, key, s)
				}
				seen[s] = key
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, detRun, Options{MaxTrials: 1}); err == nil {
		t.Error("no configs accepted")
	}
	if _, err := New([]string{"a"}, nil, Options{MaxTrials: 1}); err == nil {
		t.Error("nil RunFunc accepted")
	}
	if _, err := New([]string{"a"}, detRun, Options{}); err == nil {
		t.Error("zero MaxTrials accepted")
	}
	if _, err := New([]string{"a", "a"}, detRun, Options{MaxTrials: 1}); err == nil {
		t.Error("duplicate config accepted")
	}
	if _, err := New([]string{""}, detRun, Options{MaxTrials: 1}); err == nil {
		t.Error("empty config ID accepted")
	}
}

func TestCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := New([]string{"a"}, detRun, Options{Seed: 1, MaxTrials: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil || !res.Interrupted {
		t.Fatal("partial result should still be returned and marked interrupted")
	}
}

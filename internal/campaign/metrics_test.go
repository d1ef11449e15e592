package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestEngineMetrics runs a campaign with a deliberate mix of outcomes —
// successes, a panic, a terminal error, and a transient error that
// succeeds on retry — against a private registry and checks every
// counter the telemetry contract promises.
func TestEngineMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	ckpt := filepath.Join(t.TempDir(), "run.jsonl")
	run := func(ctx context.Context, tr Trial) (Sample, error) {
		switch {
		case tr.Config == "bad" && tr.Index == 0:
			panic("boom")
		case tr.Config == "bad" && tr.Index == 1:
			return Sample{}, errors.New("terminal")
		}
		return Sample{Value: float64(tr.Index)}, nil
	}
	// Make the transient trial succeed on its second attempt.
	attempts := make(map[string]int)
	wrapped := func(ctx context.Context, tr Trial) (Sample, error) {
		key := fmt.Sprintf("%s/%d", tr.Config, tr.Index)
		attempts[key]++ // single-worker campaign: no mutex needed
		if tr.Config == "bad" && tr.Index == 2 && attempts[key] == 1 {
			return Sample{}, Transient(errors.New("flaky"))
		}
		return run(ctx, tr)
	}
	c, err := New([]string{"good", "bad"}, wrapped, Options{
		Seed: 7, MaxTrials: 4, Workers: 1,
		CheckpointPath: ckpt, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	get := func(name string) int64 { return reg.Counter(name).Value() }
	if got := get("campaign.trials.started"); got != 8 {
		t.Errorf("started = %d, want 8", got)
	}
	if got := get("campaign.trials.completed"); got != 6 {
		t.Errorf("completed = %d, want 6 (4 good + bad/2 retried + bad/3)", got)
	}
	if got := get("campaign.trials.failed"); got != 2 {
		t.Errorf("failed = %d, want 2 (panic + terminal)", got)
	}
	if got := get("campaign.trials.panicked"); got != 1 {
		t.Errorf("panicked = %d, want 1", got)
	}
	if got := get("campaign.trials.retried"); got != 1 {
		t.Errorf("retried = %d, want 1", got)
	}
	if got := get("campaign.checkpoint.flushes"); got != 8 {
		t.Errorf("checkpoint flushes = %d, want 8", got)
	}
	lat := reg.Timer("campaign.trial.latency").Hist()
	if lat.Count() != 8 {
		t.Errorf("trial latency observations = %d, want 8", lat.Count())
	}
	flushLat := reg.Timer("campaign.checkpoint.flush_latency").Hist()
	if flushLat.Count() != 8 || flushLat.Max() <= 0 {
		t.Errorf("flush latency count/max = %d/%d, want 8/>0", flushLat.Count(), flushLat.Max())
	}
}

// TestEngineMetricsTimeout checks deadline hits are classified.
func TestEngineMetricsTimeout(t *testing.T) {
	reg := telemetry.NewRegistry()
	run := func(ctx context.Context, tr Trial) (Sample, error) {
		select {
		case <-time.After(5 * time.Second):
			return Sample{Value: 1}, nil
		case <-ctx.Done():
			return Sample{}, ctx.Err()
		}
	}
	c, err := New([]string{"slow"}, run, Options{
		Seed: 1, MaxTrials: 1, Workers: 1, TrialTimeout: 5 * time.Millisecond, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("campaign.trials.timed_out").Value(); got != 1 {
		t.Errorf("timed_out = %d, want 1", got)
	}
	if got := reg.Counter("campaign.trials.failed").Value(); got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}
}

// TestEarlyStopCounter checks the early-stop decision counter fires once
// per stopped config.
func TestEarlyStopCounter(t *testing.T) {
	reg := telemetry.NewRegistry()
	run := func(ctx context.Context, tr Trial) (Sample, error) {
		return Sample{Value: 1.0}, nil // zero variance: CI collapses immediately
	}
	c, err := New([]string{"a", "b"}, run, Options{
		Seed: 3, MaxTrials: 64, MinTrials: 4, CITarget: 0.5, Workers: 1, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Configs[0].EarlyStopped || !res.Configs[1].EarlyStopped {
		t.Fatal("expected both configs to stop early")
	}
	if got := reg.Counter("campaign.earlystop.decisions").Value(); got != 2 {
		t.Errorf("earlystop decisions = %d, want 2", got)
	}
}

// TestProgressLine checks the periodic reporter emits status lines with
// the documented fields while a campaign runs.
func TestProgressLine(t *testing.T) {
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	run := func(ctx context.Context, tr Trial) (Sample, error) {
		time.Sleep(2 * time.Millisecond)
		return Sample{Value: float64(tr.Seed % 7)}, nil
	}
	c, err := New([]string{"cfg"}, run, Options{
		Seed: 5, MaxTrials: 40, Workers: 2, Metrics: reg,
		Progress: &buf, ProgressEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if out == "" {
		t.Fatal("no progress output produced")
	}
	line := strings.SplitN(out, "\n", 2)[0]
	for _, want := range []string{"campaign:", "/40 trials", "trials/s", "ETA"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line %q missing %q", line, want)
		}
	}
}

package main

import (
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

func fleetTestRun(ctx context.Context, t campaign.Trial) (campaign.Sample, error) {
	src := stats.NewSource(t.Seed)
	return campaign.Sample{Value: src.Gaussian(1, 0.25)}, nil
}

// TestFleetRunMatchesSingleCampaign: the -fleet N path produces the
// same aggregates as the plain campaign path, and an explicit fleet
// directory is kept and resumable.
func TestFleetRunMatchesSingleCampaign(t *testing.T) {
	configs := []string{"x", "y"}
	opt := campaign.Options{Seed: 5, MaxTrials: 10, Metrics: telemetry.NewRegistry()}

	c, err := campaign.New(configs, fleetTestRun, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "fleet")
	got, err := fleetRun(context.Background(), 3, dir, configs, fleetTestRun, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Configs {
		w, g := want.Configs[i], got.Configs[i]
		if w.Config != g.Config || w.N != g.N || w.Mean != g.Mean || w.CIHalf != g.CIHalf {
			t.Fatalf("fleet aggregate mismatch for %q:\n  %+v\nvs\n  %+v", w.Config, w, g)
		}
	}

	// The explicit directory survives and a second fleetRun resumes it
	// (every shard already done) to the identical result.
	again, err := fleetRun(context.Background(), 2, dir, configs, fleetTestRun, opt)
	if err != nil {
		t.Fatal(err)
	}
	if again.Configs[0].Mean != want.Configs[0].Mean || again.Executed != 0 {
		t.Fatalf("resumed fleet re-executed work: %+v", again)
	}
}

// TestFleetRunCancelReleasesLeasesAndResumesBitIdentical: the SIGINT
// contract of the -fleet N path. Cancelling mid-fleet must (1) error
// and keep the directory, (2) leave every lease released — nothing
// stuck in "leased" that a resume would have to TTL-wait on — and
// (3) resume from the same directory to aggregates bit-identical to an
// uninterrupted single-process campaign, re-executing only the missing
// trials.
func TestFleetRunCancelReleasesLeasesAndResumesBitIdentical(t *testing.T) {
	configs := []string{"x", "y"}
	opt := campaign.Options{Seed: 8, MaxTrials: 8, Workers: 1, Metrics: telemetry.NewRegistry()}

	c, err := campaign.New(configs, fleetTestRun, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Cancel (the NotifyContext SIGINT path ends exactly here: in a
	// context cancellation) after a few slow trials have landed.
	dir := filepath.Join(t.TempDir(), "fleet")
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int32
	slowRun := func(c context.Context, tr campaign.Trial) (campaign.Sample, error) {
		if executed.Add(1) >= 3 {
			cancel()
		}
		select {
		case <-time.After(30 * time.Millisecond):
		case <-c.Done():
			return campaign.Sample{}, c.Err()
		}
		return fleetTestRun(c, tr)
	}
	if _, err := fleetRun(ctx, 2, dir, configs, slowRun, opt); err == nil {
		t.Fatal("cancelled fleetRun returned nil error")
	}
	cancel()
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatalf("fleet directory not kept after cancel: %v", err)
	}

	// Every lease must be released. Status grants live-looking leases a
	// 1s grace window before trusting the flock probe, so step past it;
	// after that, nothing may report "leased" — cancelled workers
	// dropped their flocks on the way out.
	time.Sleep(1100 * time.Millisecond)
	_, statuses, err := fleet.Status(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range statuses {
		if st.State == fleet.StateLeased {
			t.Fatalf("shard %s still leased after cancel: %+v", st.Shard.ID, st)
		}
	}

	// Resume: steal the released shards, finish, and match the
	// uninterrupted single-process aggregates bit for bit.
	got, err := fleetRun(context.Background(), 2, dir, configs, fleetTestRun, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Configs {
		w, g := want.Configs[i], got.Configs[i]
		if w.Config != g.Config || w.N != g.N || w.Mean != g.Mean || w.Std != g.Std ||
			w.CIHalf != g.CIHalf || w.Min != g.Min || w.Max != g.Max {
			t.Fatalf("resumed aggregate not bit-identical for %q:\n  %+v\nvs\n  %+v", w.Config, w, g)
		}
	}
	if got.Executed >= len(configs)*opt.MaxTrials {
		t.Fatalf("resume re-executed everything (%d trials); salvage failed", got.Executed)
	}
}

// TestFleetRunTempDir: with no explicit directory, fleetRun uses a
// temporary one and removes it on success.
func TestFleetRunTempDir(t *testing.T) {
	opt := campaign.Options{Seed: 2, MaxTrials: 4, Metrics: telemetry.NewRegistry()}
	res, err := fleetRun(context.Background(), 2, "", []string{"only"}, fleetTestRun, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Configs[0].N != 4 {
		t.Fatalf("n = %d, want 4", res.Configs[0].N)
	}
}

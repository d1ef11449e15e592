package fleet

// Fleet micro-benchmarks (`go test -run '^$' -bench Fleet -benchmem
// ./internal/fleet/`): end-to-end fleet runs (plan + N lease-claiming
// workers + deterministic merge) at 1/2/4 workers, and the raw
// lease-protocol cost. perfbench has no fleet workload, so these are
// the only fleet-overhead measurement.
//
// Scaling note: on a multi-core host the worker counts should scale
// near-linearly (the trial function is pure CPU and shards are
// independent). On a single-core host (GOMAXPROCS=1) 1/2/4 workers
// necessarily share one core and trials/s stays roughly flat; the
// signals there are that adding workers never *loses* throughput, and
// the absolute protocol overhead. That overhead is fsync-bound and
// per-shard (BenchmarkFleetLeaseCycle is one claim cycle, ~1ms on a
// local disk), so it dominates the deliberately tiny ~40µs trials used
// here but amortizes to noise under real inference trials (~1.4ms each
// on one core), which run hundreds of trials per lease.

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// benchTrial is deliberately CPU-bound (~2000 Gaussian draws) so the
// benchmark measures trial execution against protocol overhead, not
// scheduler wakeups.
func benchTrial(ctx context.Context, t campaign.Trial) (campaign.Sample, error) {
	src := stats.NewSource(t.Seed)
	v := 0.0
	for i := 0; i < 2000; i++ {
		v += src.Gaussian(1, 0.25)
	}
	return campaign.Sample{Value: v / 2000}, nil
}

const (
	benchConfigs   = 2
	benchTrialsPer = 32
)

func benchPlan(b *testing.B, i int) (*Manifest, string) {
	b.Helper()
	dir := filepath.Join(b.TempDir(), fmt.Sprintf("fleet%d", i))
	m, err := Plan(PlanSpec{
		Dir: dir, Seed: 42, Configs: []string{"a", "b"},
		MaxTrials: benchTrialsPer, ShardSize: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m, dir
}

func benchFleet(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, dir := benchPlan(b, i)
		rep, _, err := runLocal(context.Background(), workers, WorkerOptions{
			Dir: dir, Run: benchTrial, Workers: 1,
			TTL: 10 * time.Second,
			// The default 200ms idle poll would dominate the tail (workers
			// waiting out the last leased shard); poll tightly so the
			// benchmark measures protocol work, not sleeps.
			Poll: 2 * time.Millisecond,
			Log:  io.Discard, Metrics: telemetry.NewRegistry(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Records != benchConfigs*benchTrialsPer {
			b.Fatalf("merged %d records, want %d", rep.Records, benchConfigs*benchTrialsPer)
		}
	}
	b.ReportMetric(float64(benchConfigs*benchTrialsPer*b.N)/b.Elapsed().Seconds(), "trials/s")
}

func BenchmarkFleetWorkers1(b *testing.B) { benchFleet(b, 1) }
func BenchmarkFleetWorkers2(b *testing.B) { benchFleet(b, 2) }
func BenchmarkFleetWorkers4(b *testing.B) { benchFleet(b, 4) }

// BenchmarkFleetBaselineSingleCampaign is the same campaign through the
// plain engine — no manifest, leases, WALs, or merge — so the fleet
// rows above read as overhead against this one.
func BenchmarkFleetBaselineSingleCampaign(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := campaign.New([]string{"a", "b"}, benchTrial, campaign.Options{
			Seed: 42, MaxTrials: benchTrialsPer, Workers: 1,
			Metrics: telemetry.NewRegistry(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchConfigs*benchTrialsPer*b.N)/b.Elapsed().Seconds(), "trials/s")
}

// BenchmarkFleetLeaseCycle is the raw protocol cost of one claim +
// heartbeat + release cycle (O_EXCL create, flock, two fsynced framed
// appends).
func BenchmarkFleetLeaseCycle(b *testing.B) {
	dir := b.TempDir()
	sh := Shard{ID: "s0000", Config: "a", Lo: 0, Hi: 1}
	fsys := orFS(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sh.ID = fmt.Sprintf("s%08d", i) // fresh lease file per cycle
		l, err := tryClaim(fsys, dir, sh, 1, "bench", time.Second, time.Now)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.heartbeat(); err != nil {
			b.Fatal(err)
		}
		l.release()
	}
}

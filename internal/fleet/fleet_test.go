package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/errfs"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// detRun is the deterministic trial function: a pure function of the
// trial seed, like the real fault-injection path.
func detRun(ctx context.Context, t campaign.Trial) (campaign.Sample, error) {
	src := stats.NewSource(t.Seed)
	return campaign.Sample{
		Value: src.Gaussian(1, 0.25),
		Extra: map[string]float64{"faults": float64(src.Intn(100))},
	}, nil
}

// reference runs the campaign single-process under the manifest's
// statistical contract.
func reference(t *testing.T, m *Manifest) *campaign.Result {
	t.Helper()
	c, err := campaign.New(m.Configs, detRun, campaign.Options{
		Seed: m.Seed, MaxTrials: m.MaxTrials, MinTrials: m.MinTrials,
		CITarget: m.CITarget, Confidence: m.Confidence,
		Workers: 4, Metrics: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runLocal runs the whole fleet protocol inside one process: n
// workers (goroutines named w0..w<n-1>, WaitForAll set) against the
// planned fleet directory base.Dir, then the merge. It exercises the
// claim, heartbeat, steal and merge paths of a multi-process fleet
// (flock conflicts apply between opens within one process too).
func runLocal(ctx context.Context, n int, base WorkerOptions) (*MergeReport, []*WorkReport, error) {
	reports := make([]*WorkReport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		opt := base
		opt.Name = fmt.Sprintf("w%d", i)
		opt.WaitForAll = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i], errs[i] = Work(ctx, opt)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, reports, err
	}
	rep, err := Merge(MergeOptions{Dir: base.Dir, Log: base.Log, Metrics: base.Metrics})
	return rep, reports, err
}

// sameAggregates compares two results bit for bit (== on float64, no
// epsilon) — the fleet's core promise.
func sameAggregates(t *testing.T, a, b *campaign.Result) {
	t.Helper()
	if len(a.Configs) != len(b.Configs) {
		t.Fatalf("config count %d vs %d", len(a.Configs), len(b.Configs))
	}
	for i := range a.Configs {
		x, y := a.Configs[i], b.Configs[i]
		if x.Config != y.Config || x.N != y.N || x.Mean != y.Mean || x.Std != y.Std ||
			x.CIHalf != y.CIHalf || x.Min != y.Min || x.Max != y.Max ||
			x.EarlyStopped != y.EarlyStopped || len(x.Errors) != len(y.Errors) {
			t.Fatalf("aggregate mismatch for %q:\n  %+v\nvs\n  %+v", x.Config, x, y)
		}
		if !reflect.DeepEqual(x.Extra, y.Extra) {
			t.Fatalf("extra mismatch for %q: %v vs %v", x.Config, x.Extra, y.Extra)
		}
	}
}

func planTestFleet(t *testing.T, spec PlanSpec) (*Manifest, string) {
	t.Helper()
	if spec.Dir == "" {
		spec.Dir = filepath.Join(t.TempDir(), "fleet")
	}
	m, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m, spec.Dir
}

// TestPlanCutsAndRefusesReplan: shard layout is deterministic and a
// fleet directory is single-use.
func TestPlanCutsAndRefusesReplan(t *testing.T) {
	m, dir := planTestFleet(t, PlanSpec{
		Seed: 9, Configs: []string{"a", "b"}, MaxTrials: 10, ShardSize: 4,
	})
	want := []Shard{
		{ID: "s0000", Config: "a", Lo: 0, Hi: 4},
		{ID: "s0001", Config: "a", Lo: 4, Hi: 8},
		{ID: "s0002", Config: "a", Lo: 8, Hi: 10},
		{ID: "s0003", Config: "b", Lo: 0, Hi: 4},
		{ID: "s0004", Config: "b", Lo: 4, Hi: 8},
		{ID: "s0005", Config: "b", Lo: 8, Hi: 10},
	}
	if !reflect.DeepEqual(m.Shards, want) {
		t.Fatalf("shards = %+v", m.Shards)
	}
	loaded, err := LoadManifest(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, m) {
		t.Fatalf("manifest did not round-trip:\n%+v\nvs\n%+v", loaded, m)
	}
	if _, err := Plan(PlanSpec{Dir: dir, Seed: 1, Configs: []string{"x"}, MaxTrials: 1}); err == nil {
		t.Fatal("re-plan into a used directory accepted")
	}
}

// TestLocalFleetMatchesSingleProcess: the headline property, without
// faults — 4 in-process workers, merged bit-identical to one process,
// with and without adaptive early stopping.
func TestLocalFleetMatchesSingleProcess(t *testing.T) {
	for _, ci := range []float64{0, 0.08} {
		m, dir := planTestFleet(t, PlanSpec{
			Seed: 42, Configs: []string{"cfgA", "cfgB"}, MaxTrials: 20,
			MinTrials: 4, CITarget: ci, ShardSize: 5,
		})
		ref := reference(t, m)
		rep, workers, err := runLocal(context.Background(), 4, WorkerOptions{
			Dir: dir, Run: detRun, TTL: 2 * time.Second, Workers: 2,
			Log: os.Stderr, Metrics: telemetry.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		sameAggregates(t, ref, rep.Result)
		if rep.Done != len(m.Shards) || rep.Duplicates != 0 || rep.Mismatches != 0 {
			t.Fatalf("report = %+v", rep)
		}
		total := 0
		for _, w := range workers {
			total += len(w.Completed)
		}
		if total != len(m.Shards) {
			t.Fatalf("workers completed %d shards, want %d", total, len(m.Shards))
		}
	}
}

// TestClaimRaceExactlyOneWinner: the O_EXCL claim picks exactly one
// winner among concurrent claimants.
func TestClaimRaceExactlyOneWinner(t *testing.T) {
	_, dir := planTestFleet(t, PlanSpec{Seed: 1, Configs: []string{"a"}, MaxTrials: 4})
	sh := Shard{ID: "s0000", Config: "a", Lo: 0, Hi: 4}
	const claimants = 8
	var wg sync.WaitGroup
	wins := make([]*lease, claimants)
	losses := make([]error, claimants)
	start := make(chan struct{})
	for i := 0; i < claimants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			l, err := tryClaim(orFS(nil), dir, sh, 1, fmt.Sprintf("w%d", i), time.Second, time.Now)
			wins[i], losses[i] = l, err
		}(i)
	}
	close(start)
	wg.Wait()
	winners := 0
	for i := 0; i < claimants; i++ {
		if wins[i] != nil {
			winners++
			defer wins[i].release()
		} else if !errors.Is(losses[i], errClaimLost) {
			t.Fatalf("loser %d got %v, want errClaimLost", i, losses[i])
		}
	}
	if winners != 1 {
		t.Fatalf("%d claim winners, want exactly 1", winners)
	}
}

// TestWorkRefusesWithoutLockSupport: the lease protocol's liveness
// oracle is flock; without it Work must refuse rather than steal live
// shards.
func TestWorkRefusesWithoutLockSupport(t *testing.T) {
	defer func(v bool) { lockSupported = v }(lockSupported)
	lockSupported = false
	_, dir := planTestFleet(t, PlanSpec{Seed: 1, Configs: []string{"a"}, MaxTrials: 2})
	_, err := Work(context.Background(), WorkerOptions{Dir: dir, Run: detRun})
	if !errors.Is(err, ErrLockUnsupported) {
		t.Fatalf("err = %v, want ErrLockUnsupported", err)
	}
}

// TestZombieStalledHolderFencedAndSuppressed: a holder stalls mid-trial
// with its heartbeats effectively off; its lease expires, a thief
// steals and finishes the shard, and when the zombie's trial finally
// completes, the result is suppressed (counted, never folded). The
// merge stays bit-identical.
func TestZombieStalledHolderFencedAndSuppressed(t *testing.T) {
	m, dir := planTestFleet(t, PlanSpec{Seed: 7, Configs: []string{"cfg"}, MaxTrials: 6})
	ref := reference(t, m)
	reg := telemetry.NewRegistry()

	gate := make(chan struct{})
	stall := func(ctx context.Context, tr campaign.Trial) (campaign.Sample, error) {
		if tr.Index == 0 {
			<-gate // the stall: blocks until the test releases it
		}
		return detRun(ctx, tr)
	}
	holderDone := make(chan error, 1)
	go func() {
		// Declared TTL 60ms but heartbeats an hour apart: the lease goes
		// stale while the holder is alive and flock-held (so only the
		// expiry path can steal it, not the dead-holder probe).
		_, err := Work(context.Background(), WorkerOptions{
			Dir: dir, Name: "zombie", Run: stall, Workers: 1,
			TTL: 60 * time.Millisecond, Heartbeat: time.Hour,
			Log: os.Stderr, Metrics: reg,
		})
		holderDone <- err
	}()

	// Wait for the claim, then for its declared TTL to lapse.
	waitFor(t, 5*time.Second, func() bool {
		ok, _ := exists(orFS(nil), leasePath(dir, "s0000", 1))
		return ok
	})
	time.Sleep(80 * time.Millisecond)

	thief, err := Work(context.Background(), WorkerOptions{
		Dir: dir, Name: "thief", Run: detRun, Workers: 2,
		TTL: 60 * time.Millisecond, Heartbeat: 15 * time.Millisecond,
		WaitForAll: true, Log: os.Stderr, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if thief.Stolen != 1 || len(thief.Completed) != 1 {
		t.Fatalf("thief report = %+v, want 1 stolen, 1 completed", thief)
	}

	// Wait for the zombie to observe the successor epoch and fence
	// itself WHILE its trial is still in flight — releasing the gate
	// first would let the shard finish inside one fence-tick window and
	// leave nothing in flight to suppress.
	waitFor(t, 5*time.Second, func() bool {
		return reg.Counter("fleet.leases.fenced").Value() >= 1
	})

	// Release the zombie; its trial result must be suppressed.
	close(gate)
	if err := <-holderDone; err != nil {
		t.Fatalf("fenced holder returned error: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return reg.Counter("fleet.zombie.writes_fenced").Value() >= 1
	})

	// The zombie's epoch-1 WAL holds no trial records: it stalled on its
	// first trial and was fenced before contributing anything.
	recs, _, err := campaign.ReadCheckpoint(nil, walPath(dir, "s0000", 1), m.Seed, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("zombie WAL holds %d records, want 0", len(recs))
	}

	rep, err := Merge(MergeOptions{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	sameAggregates(t, ref, rep.Result)
	if rep.Mismatches != 0 {
		t.Fatalf("determinism mismatches: %d", rep.Mismatches)
	}
}

// TestCrashBetweenClaimAndFirstRecord: a worker dies (simulated via
// errfs) after claiming the lease but before its first WAL record
// lands. A fresh worker must steal the shard via the dead-holder probe
// and the merge must stay bit-identical.
func TestCrashBetweenClaimAndFirstRecord(t *testing.T) {
	m, dir := planTestFleet(t, PlanSpec{Seed: 13, Configs: []string{"cfg"}, MaxTrials: 4})
	ref := reference(t, m)

	// The first write to any .wal file (the checkpoint header) crashes
	// the process image; the lease claim (a .lease write) goes through.
	crashfs := errfs.New(nil, errfs.Plan{CrashAtWriteOp: 1, PathMatch: ".wal"})
	_, err := Work(context.Background(), WorkerOptions{
		Dir: dir, Name: "victim", Run: detRun, Workers: 1,
		TTL: 200 * time.Millisecond, Heartbeat: 50 * time.Millisecond,
		FS: crashfs, Log: os.Stderr, Metrics: telemetry.NewRegistry(),
	})
	if err == nil {
		t.Fatal("crashed worker reported success")
	}
	if crashfs.Fired(errfs.FaultCrash) != 1 {
		t.Fatalf("crash fault fired %d times", crashfs.Fired(errfs.FaultCrash))
	}
	if ok, _ := exists(orFS(nil), leasePath(dir, "s0000", 1)); !ok {
		t.Fatal("claim did not survive the crash")
	}
	if ok, _ := exists(orFS(nil), donePath(dir, "s0000")); ok {
		t.Fatal("crashed shard marked done")
	}

	reg := telemetry.NewRegistry()
	rescue, err := Work(context.Background(), WorkerOptions{
		Dir: dir, Name: "rescue", Run: detRun, Workers: 2,
		TTL: 200 * time.Millisecond, Heartbeat: 30 * time.Millisecond,
		WaitForAll: true, Log: os.Stderr, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rescue.Stolen != 1 {
		t.Fatalf("rescue report = %+v, want the shard stolen", rescue)
	}
	rep, err := Merge(MergeOptions{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	sameAggregates(t, ref, rep.Result)
}

// TestDoubleMergeIdempotent: the merge is a pure read; running it twice
// yields byte-identical results and counts.
func TestDoubleMergeIdempotent(t *testing.T) {
	m, dir := planTestFleet(t, PlanSpec{
		Seed: 5, Configs: []string{"a", "b"}, MaxTrials: 8, ShardSize: 4,
	})
	if _, _, err := runLocal(context.Background(), 2, WorkerOptions{
		Dir: dir, Run: detRun, TTL: time.Second, Metrics: telemetry.NewRegistry(),
	}); err != nil {
		t.Fatal(err)
	}
	r1, err := Merge(MergeOptions{Dir: dir, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Merge(MergeOptions{Dir: dir, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	sameAggregates(t, r1.Result, r2.Result)
	if r1.Records != r2.Records || r1.Duplicates != r2.Duplicates || r1.Done != r2.Done {
		t.Fatalf("merge counts differ: %+v vs %+v", r1, r2)
	}
	ref := reference(t, m)
	sameAggregates(t, ref, r1.Result)
}

// TestMergePartial: incomplete shards are an error by default and an
// Interrupted partial fold with AllowPartial.
func TestMergePartial(t *testing.T) {
	_, dir := planTestFleet(t, PlanSpec{
		Seed: 3, Configs: []string{"a"}, MaxTrials: 8, ShardSize: 4,
	})
	// Complete only the first shard, by hand: claim, run, done.
	fsys := orFS(nil)
	m, _ := LoadManifest(fsys, dir)
	sh := m.Shards[0]
	l, err := tryClaim(fsys, dir, sh, 1, "solo", time.Second, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	c, err := campaign.New([]string{sh.Config}, detRun, campaign.Options{
		Seed: m.Seed, MaxTrials: m.MaxTrials,
		Spans:          []campaign.Span{{Config: sh.Config, Lo: sh.Lo, Hi: sh.Hi}},
		CheckpointPath: walPath(dir, sh.ID, 1),
		Metrics:        telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	l.release()
	if err := writeDone(fsys, dir, sh, 1, "solo", sh.Hi-sh.Lo); err != nil {
		t.Fatal(err)
	}

	if _, err := Merge(MergeOptions{Dir: dir, Metrics: telemetry.NewRegistry()}); err == nil {
		t.Fatal("partial merge accepted without AllowPartial")
	}
	rep, err := Merge(MergeOptions{Dir: dir, AllowPartial: true, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Interrupted {
		t.Fatal("partial fold not flagged Interrupted")
	}
	if n := rep.Result.Config("a").N; n != int64(sh.Hi-sh.Lo) {
		t.Fatalf("partial fold N = %d, want %d", n, sh.Hi-sh.Lo)
	}
}

// TestStatusStates walks one shard through free → leased → stale →
// complete.
func TestStatusStates(t *testing.T) {
	_, dir := planTestFleet(t, PlanSpec{Seed: 2, Configs: []string{"a"}, MaxTrials: 4})
	fsys := orFS(nil)

	_, sts, err := Status(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].State != StateFree {
		t.Fatalf("state = %q, want free", sts[0].State)
	}

	sh := Shard{ID: "s0000", Config: "a", Lo: 0, Hi: 4}
	l, err := tryClaim(fsys, dir, sh, 1, "me", time.Minute, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	_, sts, err = Status(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].State != StateLeased || sts[0].Owner != "me" || sts[0].Epoch != 1 {
		t.Fatalf("status = %+v, want leased by me", sts[0])
	}
	if sts[0].HolderDead {
		t.Fatal("live flock holder reported HolderDead")
	}
	l.release()

	// An expired lease (held long ago, tiny TTL) with no flock shows
	// stale.
	past := func() time.Time { return time.Now().Add(-time.Minute) }
	l2, err := tryClaim(fsys, dir, sh, 2, "old", 10*time.Millisecond, past)
	if err != nil {
		t.Fatal(err)
	}
	l2.release()
	_, sts, err = Status(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].State != StateStale {
		t.Fatalf("state = %q, want stale", sts[0].State)
	}
	// The holder released its flock with its life; the probe must say so
	// (this is what stops a supervisor stall-killing a same-named
	// successor process over a lease its predecessor abandoned).
	if !sts[0].HolderDead {
		t.Fatal("released flock not reported HolderDead")
	}

	if err := writeDone(fsys, dir, sh, 2, "old", 4); err != nil {
		t.Fatal(err)
	}
	_, sts, err = Status(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].State != StateComplete {
		t.Fatalf("state = %q, want complete", sts[0].State)
	}
}

func waitFor(t *testing.T, limit time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

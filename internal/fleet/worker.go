package fleet

// The shard worker: scan → claim → execute → mark done, until the
// manifest is exhausted.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/telemetry"
)

// WorkerOptions tunes one Work invocation (one logical worker).
type WorkerOptions struct {
	// Dir is the fleet directory holding the manifest.
	Dir string
	// Name identifies this worker in leases, done markers, log prefixes,
	// and the per-worker throughput gauge (default "w<pid>").
	Name string
	// Run executes one trial (required). Must obey the campaign.RunFunc
	// determinism contract — the whole fleet's bit-identical merge
	// guarantee rests on it.
	Run campaign.RunFunc
	// TTL is the staleness bound this worker declares on its leases: a
	// lease whose newest heartbeat is older than TTL is stealable
	// (default 10s).
	TTL time.Duration
	// Heartbeat is the renewal interval (default TTL/4).
	Heartbeat time.Duration
	// Poll is the idle re-scan interval while waiting for claimable work
	// (default 200ms).
	Poll time.Duration
	// WaitForAll keeps the worker polling (and stealing expired leases)
	// until every shard is done. Without it, Work returns as soon as no
	// shard is immediately claimable.
	WaitForAll bool
	// Workers is the campaign worker-pool size per shard (campaign
	// default when 0).
	Workers int
	// Fsync is the shard WAL durability policy.
	Fsync durable.SyncPolicy
	// FS overrides the filesystem (nil = real). Fault-injection tests
	// pass internal/errfs here.
	FS durable.FS
	// Log receives warnings and shard transitions (nil = stderr).
	Log io.Writer
	// Progress, when set, enables the campaign's periodic status line,
	// prefixed with this worker's identity.
	Progress io.Writer
	// ProgressEvery is the progress interval (campaign default when 0).
	ProgressEvery time.Duration
	// Metrics selects the telemetry registry (nil = telemetry.Default()).
	Metrics *telemetry.Registry
	// OnTrialStart is passed through to campaign.Options.OnTrialStart:
	// a synchronous pre-trial hook for fault-injection harnesses (see
	// internal/chaos poison trials).
	OnTrialStart func(campaign.Trial)

	// clock overrides time.Now in tests.
	clock func() time.Time
}

// WorkReport summarizes one Work invocation.
type WorkReport struct {
	// Completed lists the shard IDs this worker ran to completion.
	Completed []string
	// Claimed counts lease claims won; Stolen counts the subset with
	// epoch > 1 (recovered from another worker's death or stall).
	Claimed, Stolen int
	// Fenced counts shards this worker lost to a thief mid-run.
	Fenced int
	// Trials counts trials executed live by this worker; Reused counts
	// records inherited from earlier epochs of stolen shards.
	Trials, Reused int
}

// doneRecord is the content of a shard's done marker.
type doneRecord struct {
	Shard  string `json:"shard"`
	Config string `json:"config"`
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
	Epoch  int    `json:"epoch"`
	Owner  string `json:"owner"`
	Trials int    `json:"trials"`
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Name == "" {
		o.Name = fmt.Sprintf("w%d", os.Getpid())
	}
	if o.TTL <= 0 {
		o.TTL = 10 * time.Second
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = o.TTL / 4
	}
	if o.Poll <= 0 {
		o.Poll = 200 * time.Millisecond
	}
	if o.clock == nil {
		o.clock = time.Now
	}
	return o
}

// writeDone atomically publishes a shard's done marker.
func writeDone(fsys durable.FS, dir string, sh Shard, epoch int, owner string, trials int) error {
	dr := doneRecord{Shard: sh.ID, Config: sh.Config, Lo: sh.Lo, Hi: sh.Hi,
		Epoch: epoch, Owner: owner, Trials: trials}
	data, err := json.Marshal(dr)
	if err != nil {
		return err
	}
	if err := durable.WriteFileAtomic(fsys, donePath(dir, sh.ID), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("fleet: shard %s done marker: %w", sh.ID, err)
	}
	return nil
}

// Work runs one worker against a planned fleet directory: it claims
// shards (stealing dead or expired leases), executes each into its own
// epoch WAL under heartbeat renewal and fencing, and marks completed
// shards done. It returns when no work remains — immediately claimable
// (default) or at all (WaitForAll) — or when ctx is cancelled.
func Work(ctx context.Context, opt WorkerOptions) (*WorkReport, error) {
	opt = opt.withDefaults()
	if opt.Run == nil {
		return nil, fmt.Errorf("fleet: nil RunFunc")
	}
	if !lockSupported {
		return nil, ErrLockUnsupported
	}
	fsys := orFS(opt.FS)
	m, err := LoadManifest(fsys, opt.Dir)
	if err != nil {
		return nil, err
	}
	met := newMetrics(opt.Metrics, opt.Name)
	logw := orStderr(opt.Log)
	rep := &WorkReport{}
	for {
		claimed, allDone, err := scanOnce(ctx, opt, fsys, m, met, logw, rep)
		if err != nil {
			return rep, err
		}
		if allDone {
			return rep, nil
		}
		if ctx.Err() != nil {
			return rep, ctx.Err()
		}
		if claimed {
			continue // a shard just finished (or fenced): rescan immediately
		}
		if !opt.WaitForAll {
			return rep, nil
		}
		select {
		case <-time.After(opt.Poll):
		case <-ctx.Done():
			return rep, ctx.Err()
		}
	}
}

// scanOnce walks the manifest once and runs at most one shard.
func scanOnce(ctx context.Context, opt WorkerOptions, fsys durable.FS, m *Manifest,
	met *metrics, logw io.Writer, rep *WorkReport) (claimed, allDone bool, err error) {
	grace := opt.Heartbeat
	allDone = true
	for _, sh := range m.Shards {
		if ctx.Err() != nil {
			return false, false, ctx.Err()
		}
		done, err := exists(fsys, donePath(opt.Dir, sh.ID))
		if err != nil {
			return false, false, err
		}
		if done {
			continue
		}
		// A quarantined shard is dead coverage, not pending work: skipping
		// it without clearing allDone is what lets a WaitForAll fleet
		// converge around a poison shard instead of crash-looping on it.
		if q, err := IsQuarantined(fsys, opt.Dir, sh.ID); err != nil {
			return false, false, err
		} else if q {
			continue
		}
		allDone = false
		top, err := topEpoch(fsys, opt.Dir, sh.ID)
		if err != nil {
			return false, false, err
		}
		epoch := 0
		switch {
		case top == 0:
			epoch = 1
		default:
			ok, why := stealable(fsys, leasePath(opt.Dir, sh.ID, top), opt.TTL, grace, opt.clock())
			if !ok {
				continue // live holder
			}
			epoch = top + 1
			fmt.Fprintf(logw, "[%s] fleet: stealing shard %s epoch %d: %s\n", opt.Name, sh.ID, epoch, why)
		}
		l, err := tryClaim(fsys, opt.Dir, sh, epoch, opt.Name, opt.TTL, opt.clock)
		if err == errClaimLost {
			continue // another worker won the race
		}
		if err != nil {
			return false, false, err
		}
		met.claimed.Inc()
		rep.Claimed++
		if epoch > 1 {
			met.stolen.Inc()
			rep.Stolen++
		}
		err = runShard(ctx, opt, fsys, m, sh, epoch, l, met, logw, rep)
		l.release()
		return true, false, err
	}
	return false, allDone, nil
}

// runShard executes one claimed shard into its epoch WAL, inheriting
// whatever records earlier epochs left behind, under heartbeat renewal
// and fencing. On clean completion it writes the done marker.
func runShard(ctx context.Context, opt WorkerOptions, fsys durable.FS, m *Manifest,
	sh Shard, epoch int, l *lease, met *metrics, logw io.Writer, rep *WorkReport) error {
	identity := fmt.Sprintf("%s/shard %s", opt.Name, sh.ID)
	met.live.Add(1)
	defer met.live.Add(-1)

	// Records from earlier epochs (a dead or fenced predecessor's WAL)
	// are inherited, not re-executed: by determinism they are exactly
	// the records this worker would produce.
	var preload []*campaign.Record
	for e := 1; e < epoch; e++ {
		recs, info, err := campaign.ReadCheckpoint(fsys, walPath(opt.Dir, sh.ID, e), m.Seed, logw)
		if err != nil {
			// A predecessor's WAL too damaged to read is re-executed work,
			// not a fatal condition.
			fmt.Fprintf(logw, "[%s] fleet: epoch %d WAL unreadable (%v); re-executing its trials\n", identity, e, err)
			continue
		}
		if info.Records > 0 {
			fmt.Fprintf(logw, "[%s] fleet: inherited %d record(s) from epoch %d\n", identity, info.Records, e)
		}
		preload = append(preload, recs...)
	}

	shardCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Heartbeat and fence loop. Renewal and the fence check run on
	// separate cadences: renewals at opt.Heartbeat, fence checks at
	// TTL/4 — a worker whose heartbeats are failing (the stalled-zombie
	// case) must still notice its successor promptly.
	var fenced atomic.Bool
	hbDone := make(chan struct{})
	hbStop := make(chan struct{})
	go func() {
		defer close(hbDone)
		fenceEvery := opt.TTL / 4
		if fenceEvery <= 0 {
			fenceEvery = time.Millisecond
		}
		hbTick := time.NewTicker(opt.Heartbeat)
		fenceTick := time.NewTicker(fenceEvery)
		defer hbTick.Stop()
		defer fenceTick.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-fenceTick.C:
				ok, err := exists(fsys, leasePath(opt.Dir, sh.ID, epoch+1))
				if err == nil && ok {
					fmt.Fprintf(logw, "[%s] fleet: fenced by epoch %d; abandoning shard\n", identity, epoch+1)
					met.fenced.Inc()
					cancel()
					fenced.Store(true) // after cancel: fenced==true implies ctx is dead
					return
				}
			case <-hbTick.C:
				if err := l.heartbeat(); err != nil {
					fmt.Fprintf(logw, "[%s] fleet: %v (lease goes stale; shard may be stolen)\n", identity, err)
				}
			}
		}
	}()

	// Completed trial results arriving after the fence are zombie
	// writes: suppress them (the thief re-executes those trials) and
	// count the suppression.
	run := func(tctx context.Context, tr campaign.Trial) (campaign.Sample, error) {
		s, err := opt.Run(tctx, tr)
		if fenced.Load() {
			met.zombie.Inc()
			return campaign.Sample{}, shardCtx.Err()
		}
		return s, err
	}

	copt := campaign.Options{
		Seed:           m.Seed,
		MaxTrials:      m.MaxTrials,
		Workers:        opt.Workers,
		Spans:          []campaign.Span{{Config: sh.Config, Lo: sh.Lo, Hi: sh.Hi}},
		CheckpointPath: walPath(opt.Dir, sh.ID, epoch),
		Fsync:          opt.Fsync,
		FS:             opt.FS,
		Log:            opt.Log,
		Progress:       opt.Progress,
		ProgressEvery:  opt.ProgressEvery,
		Metrics:        opt.Metrics,
		Preload:        preload,
		Identity:       identity,
		OnTrialStart:   opt.OnTrialStart,
		// CITarget deliberately left 0: early stopping is a decision about
		// the config's in-order prefix, which only the merge fold sees.
	}
	c, err := campaign.New([]string{sh.Config}, run, copt)
	if err != nil {
		close(hbStop)
		<-hbDone
		return err
	}
	start := opt.clock()
	res, runErr := c.Run(shardCtx)
	close(hbStop)
	<-hbDone

	if res != nil {
		rep.Trials += res.Executed
		rep.Reused += res.Reused
		if met.rate != nil {
			if secs := opt.clock().Sub(start).Seconds(); secs > 0 {
				met.rate.Set(float64(res.Executed) / secs)
			}
		}
	}
	if fenced.Load() {
		rep.Fenced++
		return nil // the thief owns the shard now; not this worker's error
	}
	if runErr != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("fleet: shard %s: %w", sh.ID, runErr)
	}
	if res.Interrupted {
		return fmt.Errorf("fleet: shard %s finished with a coverage hole", sh.ID)
	}

	if err := writeDone(fsys, opt.Dir, sh, epoch, opt.Name, res.Executed+res.Reused); err != nil {
		return err
	}
	met.completed.Inc()
	rep.Completed = append(rep.Completed, sh.ID)
	fmt.Fprintf(logw, "[%s] fleet: shard %s complete (epoch %d, %d live + %d inherited trials)\n",
		identity, sh.ID, epoch, res.Executed, res.Reused)
	return nil
}

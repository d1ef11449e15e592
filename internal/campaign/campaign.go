// Package campaign is the resilient Monte Carlo campaign engine behind
// the repository's fault-injection sweeps (the paper's Figures 5-7 and
// Tables 3-4 all rest on statistically sufficient injection campaigns).
//
// A campaign executes (config x trial) cells through a bounded worker
// pool with:
//
//   - context.Context cancellation and per-trial deadlines;
//   - per-trial panic recovery: a panic in the trial function (or the
//     library code it calls) becomes a typed *TrialError that fails one
//     trial, never the campaign;
//   - JSONL checkpointing with deterministic seed derivation (TrialSeed),
//     so an interrupted campaign resumes to bit-identical aggregates;
//   - streaming aggregation (Welford mean/variance + normal confidence
//     intervals) with optional adaptive early stopping: sampling a config
//     stops once its confidence interval is tight enough.
//
// Determinism contract: results are folded into the aggregates strictly
// in trial order per config, regardless of worker completion order. Every
// trial's outcome is a pure function of its derived seed. Therefore any
// run — uninterrupted, interrupted+resumed, or with a different worker
// count — that covers the same trials produces bit-identical aggregates,
// and the early-stopping decision (made on the in-order prefix) is
// reached at the same trial index in every run.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Trial identifies one Monte Carlo cell: a config (by ID), a trial index
// within that config, and the seed derived for it (see TrialSeed).
type Trial struct {
	Config string
	Index  int
	Seed   uint64
}

// Sample is the outcome of one successful trial. Value is the primary
// metric (classification-error delta in the fault-injection campaigns);
// the aggregate's confidence interval and early stopping act on it.
// Extra holds secondary metrics (fault counts, mismatch fractions, ...)
// that are averaged per config.
type Sample struct {
	Value float64            `json:"v"`
	Extra map[string]float64 `json:"x,omitempty"`
}

// RunFunc executes one trial. It must be safe for concurrent invocation,
// must derive all randomness from t.Seed, and should honor ctx (the
// engine additionally applies the per-trial deadline through ctx).
type RunFunc func(ctx context.Context, t Trial) (Sample, error)

// TrialError is the typed, terminal failure of a single trial. A trial
// runs once: library panics, per-trial deadline hits, and errors all
// surface as TrialErrors in the config's aggregate; they never abort the
// campaign.
type TrialError struct {
	Config string
	Trial  int
	Seed   uint64
	Kind   string // "panic", "timeout", or "error"
	Msg    string
}

// Error implements the error interface.
func (e *TrialError) Error() string {
	return fmt.Sprintf("campaign: config %q trial %d (seed %d) failed: %s: %s",
		e.Config, e.Trial, e.Seed, e.Kind, e.Msg)
}

// Trial failure kinds.
const (
	KindPanic   = "panic"
	KindTimeout = "timeout"
	KindError   = "error"
)

// Options tunes a campaign. A zero field means the default its comment
// names, or the mechanism off.
type Options struct {
	// Seed is the campaign base seed; every trial seed derives from it
	// (TrialSeed). A resumed campaign must use the same base seed — the
	// checkpoint records it and New fails on mismatch.
	Seed uint64
	// MaxTrials is the per-config trial budget (required, > 0).
	MaxTrials int
	// MinTrials is the minimum trials folded before early stopping may
	// trigger (default 4, at least 2; only meaningful with CITarget > 0).
	MinTrials int
	// CITarget enables adaptive early stopping: once a config's
	// confidence-interval half-width on the primary metric is <= CITarget
	// (and >= MinTrials trials folded), its remaining trials are skipped.
	// 0 disables early stopping.
	CITarget float64
	// Confidence is the CI level (default 0.95).
	Confidence float64
	// Workers bounds the worker pool (default min(GOMAXPROCS, 8)).
	Workers int
	// TrialTimeout is the per-trial deadline (0 = none).
	TrialTimeout time.Duration
	// CheckpointPath appends every completed trial to a JSONL file ("" =
	// no checkpointing).
	CheckpointPath string
	// Resume preloads outcomes from CheckpointPath (if it exists) so only
	// missing trials execute. A torn tail left by a killed run is
	// repaired (truncated) before the first new append.
	Resume bool
	// Fsync is the checkpoint durability policy (the zero value is
	// durable.SyncInterval: fsync at most once a second).
	Fsync durable.SyncPolicy
	// LockCheckpoint takes an exclusive advisory lock on the checkpoint
	// for the campaign's lifetime, so two campaigns cannot interleave
	// one file; the second one fails with durable.ErrLocked.
	LockCheckpoint bool
	// FS overrides the filesystem the checkpoint is stored on (nil =
	// the real one). Tests substitute internal/errfs to prove recovery
	// under injected faults.
	FS durable.FS
	// Log, when non-nil, receives one progress line per config completion.
	Log io.Writer
	// Progress, when non-nil, receives a periodic status line while the
	// campaign runs (covered/scheduled trials, trials/s, ETA, worst
	// per-config CI half-width) every ProgressEvery (default 5s).
	Progress io.Writer
	// ProgressEvery is the interval between progress lines (default 5s;
	// only meaningful with Progress set).
	ProgressEvery time.Duration
	// Metrics selects the telemetry registry the engine records into
	// (trial counters, trial latency, checkpoint flush latency, early-stop
	// decisions). Nil means telemetry.Default().
	Metrics *telemetry.Registry
	// Spans restricts execution to per-config trial sub-ranges. Each
	// entry names a config from the campaign's config list and covers
	// trials [Lo, Hi); configs without a span cover the full
	// [0, MaxTrials). At most one span per config. Seeds still derive
	// from (Seed, config, absolute trial index), so a span run produces
	// the exact records the same trials produce in a full run — the
	// contract the fleet shard workers are built on. Early stopping
	// (CITarget) over a span that does not start at 0 acts on the span's
	// own prefix, not the config's; fleet workers therefore run with
	// CITarget 0 and leave the stopping decision to the merge fold.
	Spans []Span
	// Preload seeds the replay set with externally loaded records (e.g.
	// read from another worker's shard checkpoint via ReadCheckpoint)
	// before any trial executes. Records failing the seed derivation for
	// (Seed, config, trial), referencing unknown configs, or carrying no
	// outcome are ignored, exactly like checkpoint records. Preloaded
	// records count toward Result.Reused and are not re-appended to this
	// campaign's checkpoint.
	Preload []*Record
	// Identity, when non-empty, prefixes every progress and warning line
	// with "[identity] " so interleaved stderr from several workers on
	// one machine stays attributable (e.g. "w3/shard s0007").
	Identity string
	// OnTrialStart, when non-nil, is called synchronously on the worker
	// goroutine immediately before each trial executes (never for
	// replayed or preloaded records). It exists for fault-injection
	// harnesses: internal/chaos uses it to plant poison trials that kill
	// the whole process at a deterministic (config, index) cell, the way
	// an OOM kill would.
	OnTrialStart func(Trial)
}

// Span is a per-config trial sub-range [Lo, Hi). See Options.Spans.
type Span struct {
	Config string
	Lo, Hi int
}

func (o Options) withDefaults() Options {
	if o.MinTrials <= 0 {
		o.MinTrials = 4
	}
	if o.MinTrials < 2 {
		o.MinTrials = 2 // a CI needs a variance estimate
	}
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers > 8 {
			o.Workers = 8
		}
	}
	return o
}

// ConfigResult is the aggregate of one config's folded trials.
type ConfigResult struct {
	Config string
	// N is the number of successful trials folded into the statistics.
	N int64
	// Mean, Std, CIHalf, Min, Max describe the primary metric.
	Mean, Std, CIHalf, Min, Max float64
	// Extra holds the per-config means of the secondary metrics.
	Extra map[string]float64
	// Errors lists terminal trial failures in trial order.
	Errors []*TrialError
	// EarlyStopped reports that the CI target was met before MaxTrials.
	EarlyStopped bool
}

// Result is a campaign outcome. It is valid (partial) even when Run
// returns a cancellation error.
type Result struct {
	// Configs holds one aggregate per config, in input order.
	Configs []ConfigResult
	// Executed counts trials run live; Reused counts outcomes replayed
	// from the checkpoint; Skipped counts trials avoided by early
	// stopping.
	Executed, Reused, Skipped int
	// Interrupted is set when the campaign was cancelled before covering
	// every scheduled trial.
	Interrupted bool
	// Degraded is set when checkpointing failed mid-run (full disk, I/O
	// error, ...) and the campaign continued without durability rather
	// than aborting the science. The aggregates are complete and
	// correct; they just cannot be resumed past the failure point.
	Degraded bool
}

// RecoveryInfo describes what a resumed campaign recovered from its
// checkpoint: how many records it replayed, how many interior lines
// were corrupt, and how many torn-tail bytes were truncated before the
// first new append. Valid after Run (Replayed and TornLines are known
// from New onward).
type RecoveryInfo struct {
	// Resumed reports that Options.Resume was set with a CheckpointPath.
	Resumed bool
	// Replayed counts the usable checkpoint records accepted for replay.
	Replayed int
	// TornLines counts corrupt or undecodable interior lines skipped
	// (also counted in the campaign.ckpt.torn_lines metric).
	TornLines int
	// RepairedBytes is the torn tail truncated before appending.
	RepairedBytes int64
}

// Config returns the aggregate for a config ID (nil if unknown).
func (r *Result) Config(id string) *ConfigResult {
	for i := range r.Configs {
		if r.Configs[i].Config == id {
			return &r.Configs[i]
		}
	}
	return nil
}

// configState tracks per-config fold progress. Results fold strictly in
// trial order: out-of-order completions park in pending until the gap
// closes.
type configState struct {
	name    string
	agg     stats.Welford
	extra   map[string]float64 // running sums over successful trials
	errs    []*TrialError
	lo, hi  int // scheduled trial range [lo, hi) (a span, or [0, MaxTrials))
	next    int // next trial index to fold
	pending map[int]*Record
	stopped bool // early-stop decided (no further folds or dispatches)
}

// Campaign is a configured engine instance. Create with New, execute
// with Run (once).
type Campaign struct {
	configs []string
	run     RunFunc
	opt     Options

	state    map[string]*configState
	preload  map[trialKey]*Record
	ckpt     *checkpointWriter
	met      *engineMetrics
	recovery RecoveryInfo
	statesMu sync.Mutex // guards configState.stopped reads from workers
}

type trialKey struct {
	config string
	trial  int
}

// New validates options, loads the checkpoint when resuming, and returns
// a ready campaign.
func New(configs []string, run RunFunc, opt Options) (*Campaign, error) {
	if run == nil {
		return nil, errors.New("campaign: nil RunFunc")
	}
	return newCampaign(configs, run, opt)
}

// newCampaign is New without the RunFunc requirement, shared with Fold
// (which never executes a trial).
func newCampaign(configs []string, run RunFunc, opt Options) (*Campaign, error) {
	if len(configs) == 0 {
		return nil, errors.New("campaign: no configs")
	}
	opt = opt.withDefaults()
	if opt.MaxTrials <= 0 {
		return nil, errors.New("campaign: MaxTrials must be > 0")
	}
	seen := map[string]bool{}
	for _, id := range configs {
		if id == "" {
			return nil, errors.New("campaign: empty config ID")
		}
		if seen[id] {
			return nil, fmt.Errorf("campaign: duplicate config ID %q", id)
		}
		seen[id] = true
	}
	reg := opt.Metrics
	if reg == nil {
		reg = telemetry.Default()
	}
	c := &Campaign{
		configs: append([]string(nil), configs...),
		run:     run,
		opt:     opt,
		state:   map[string]*configState{},
		met:     newEngineMetrics(reg),
	}
	for _, id := range c.configs {
		c.state[id] = &configState{name: id, hi: opt.MaxTrials, extra: map[string]float64{}, pending: map[int]*Record{}}
	}
	spanned := map[string]bool{}
	for _, sp := range opt.Spans {
		st := c.state[sp.Config]
		if st == nil {
			return nil, fmt.Errorf("campaign: span references unknown config %q", sp.Config)
		}
		if spanned[sp.Config] {
			return nil, fmt.Errorf("campaign: config %q has more than one span", sp.Config)
		}
		if sp.Lo < 0 || sp.Lo >= sp.Hi || sp.Hi > opt.MaxTrials {
			return nil, fmt.Errorf("campaign: config %q span [%d, %d) outside [0, %d)",
				sp.Config, sp.Lo, sp.Hi, opt.MaxTrials)
		}
		spanned[sp.Config] = true
		st.lo, st.hi, st.next = sp.Lo, sp.Hi, sp.Lo
	}
	if len(opt.Preload) > 0 {
		c.preload = map[trialKey]*Record{}
		for _, rec := range opt.Preload {
			if usableRecord(rec, opt.Seed) && c.state[rec.Config] != nil {
				c.preload[trialKey{rec.Config, rec.Trial}] = rec
			}
		}
	}
	if opt.Resume && opt.CheckpointPath != "" {
		pre, info, err := loadCheckpoint(opt.FS, opt.CheckpointPath, opt.Seed, c.warnWriter(), c.met)
		if err != nil {
			return nil, err
		}
		if c.preload == nil {
			c.preload = pre
		} else {
			// Checkpoint records win over Options.Preload duplicates; under
			// the determinism contract both carry identical bits anyway.
			for k, v := range pre {
				c.preload[k] = v
			}
		}
		c.recovery = RecoveryInfo{
			Resumed:       true,
			Replayed:      len(pre),
			TornLines:     info.TornLines,
			RepairedBytes: info.TornTailBytes,
		}
	}
	return c, nil
}

// Recovery reports what a resumed campaign recovered from its
// checkpoint (the zero value for fresh campaigns).
func (c *Campaign) Recovery() RecoveryInfo { return c.recovery }

// warnWriter is where the engine reports non-fatal storage trouble
// (torn checkpoint lines, degradation). Options.Log when set, else
// stderr: a corrupted checkpoint must never be invisible. With
// Options.Identity set, every line carries the "[identity] " prefix so
// multi-worker stderr stays attributable.
func (c *Campaign) warnWriter() io.Writer {
	w := c.opt.Log
	if w == nil {
		w = os.Stderr
	}
	if p := c.idPrefix(); p != "" {
		return &prefixWriter{w: w, prefix: p}
	}
	return w
}

// idPrefix renders Options.Identity as a line prefix ("" when unset).
func (c *Campaign) idPrefix() string {
	if c.opt.Identity == "" {
		return ""
	}
	return "[" + c.opt.Identity + "] "
}

// prefixWriter prepends a fixed prefix to every Write. The engine's
// warn and progress writers emit one full line per Write call, so the
// prefix lands at the start of each line.
type prefixWriter struct {
	w      io.Writer
	prefix string
}

func (p *prefixWriter) Write(b []byte) (int, error) {
	if _, err := io.WriteString(p.w, p.prefix); err != nil {
		return 0, err
	}
	return p.w.Write(b)
}

// degrade switches the campaign into no-durability mode after a storage
// failure: the result is flagged, the campaign.ckpt.degraded gauge goes
// to 1, and the first failure is reported. Later failures are silent —
// one dead disk should not produce one warning per trial. Only Run's
// collector goroutine calls this, so the check-and-set needs no lock.
func (c *Campaign) degrade(res *Result, err error) {
	if res.Degraded {
		return
	}
	res.Degraded = true
	c.met.ckptDegraded.Set(1)
	fmt.Fprintf(c.warnWriter(), "campaign: checkpoint degraded (campaign continues without durability): %v\n", err)
}

// Run executes the campaign. On cancellation it flushes the checkpoint
// and returns the partial Result together with the context's error;
// otherwise the error is nil.
func (c *Campaign) Run(ctx context.Context) (*Result, error) {
	res := &Result{}

	if c.opt.CheckpointPath != "" {
		w, rep, err := openCheckpoint(c.opt, c.met)
		switch {
		case errors.Is(err, durable.ErrLocked):
			// Another campaign holds the checkpoint: interleaving two
			// writers would corrupt both, so this is the one storage
			// failure that must abort rather than degrade.
			return nil, err
		case err != nil:
			// The disk is bad before the first trial ran. Keep computing —
			// losing durability must not lose the science — but say so.
			c.degrade(res, err)
		default:
			c.ckpt = w
			c.recovery.RepairedBytes = rep.TruncatedBytes
			if rep.TruncatedBytes > 0 {
				c.met.ckptRepaired.Add(rep.TruncatedBytes)
				fmt.Fprintf(c.warnWriter(), "campaign: checkpoint %s: repaired torn tail (%d bytes truncated)\n",
					c.opt.CheckpointPath, rep.TruncatedBytes)
			}
			defer c.ckpt.Close()
		}
	}

	// Phase 1: replay checkpointed outcomes in deterministic order.
	res.Reused = c.replayPreloaded()

	// Periodic progress reporting (opt-in). Run must not return while the
	// reporter can still write, so it is joined after stop closes (defers
	// run LIFO: close, then wait).
	var done atomic.Int64
	if c.opt.Progress != nil {
		stopProgress := make(chan struct{})
		progDone := make(chan struct{})
		go func() {
			defer close(progDone)
			c.progressLoop(stopProgress, c.opt.Progress, &done, res.Reused)
		}()
		defer func() { <-progDone }()
		defer close(stopProgress)
	}

	// Phase 2: execute the remaining trials through the worker pool.
	specs := make(chan Trial)
	results := make(chan *Record)
	var wg sync.WaitGroup
	for i := 0; i < c.opt.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.worker(ctx, specs, results)
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	go c.produce(ctx, specs)

	for rec := range results {
		res.Executed++
		done.Add(1)
		if c.ckpt != nil {
			if err := c.ckpt.Append(rec); err != nil {
				c.degrade(res, err)
			}
		}
		c.fold(rec)
	}

	c.finalize(res)
	if err := ctx.Err(); err != nil {
		res.Interrupted = true
		return res, err
	}
	return res, nil
}

// replayPreloaded folds checkpointed outcomes config by config in trial
// order. Returns the number of records folded or parked.
func (c *Campaign) replayPreloaded() int {
	if len(c.preload) == 0 {
		return 0
	}
	n := 0
	for _, id := range c.configs {
		var idxs []int
		for key := range c.preload {
			if key.config == id {
				idxs = append(idxs, key.trial)
			}
		}
		sort.Ints(idxs)
		st := c.state[id]
		for _, t := range idxs {
			if t < st.lo || t >= st.hi {
				continue // outside the scheduled range (shrunk budget or foreign span)
			}
			c.fold(c.preload[trialKey{id, t}])
			n++
		}
	}
	return n
}

// produce streams the not-yet-covered trial specs to the workers.
func (c *Campaign) produce(ctx context.Context, specs chan<- Trial) {
	defer close(specs)
	for _, id := range c.configs {
		st := c.state[id]
		for t := st.lo; t < st.hi; t++ {
			if _, ok := c.preload[trialKey{id, t}]; ok {
				continue
			}
			if c.configStopped(id) {
				break
			}
			spec := Trial{Config: id, Index: t, Seed: TrialSeed(c.opt.Seed, id, t)}
			select {
			case specs <- spec:
			case <-ctx.Done():
				return
			}
		}
	}
}

func (c *Campaign) configStopped(id string) bool {
	c.statesMu.Lock()
	defer c.statesMu.Unlock()
	return c.state[id].stopped
}

// worker executes trials with deadline and panic isolation, and
// reports completed outcomes. Cancelled (not timed-out) trials report
// nothing: they are unfinished, not failed.
func (c *Campaign) worker(ctx context.Context, specs <-chan Trial, results chan<- *Record) {
	for spec := range specs {
		if ctx.Err() != nil {
			return
		}
		if c.configStopped(spec.Config) {
			continue // early stop raced with dispatch; drop the trial
		}
		c.met.workersBusy.Add(1)
		rec := c.attempt(ctx, spec)
		c.met.workersBusy.Add(-1)
		if rec == nil {
			continue // cancelled mid-trial
		}
		select {
		case results <- rec:
		case <-ctx.Done():
			// The collector drains `results` until the pool exits, so this
			// branch is unreachable in practice; keep it as a liveness
			// guard.
			return
		}
	}
}

// attempt runs one trial. A nil return means the campaign context was
// cancelled and the trial is unfinished. The returned record (success
// or terminal failure) is folded into the engine metrics together with
// the trial's wall time; cancelled trials record nothing.
func (c *Campaign) attempt(ctx context.Context, spec Trial) *Record {
	if c.opt.OnTrialStart != nil {
		c.opt.OnTrialStart(spec)
	}
	start := time.Now()
	c.met.started.Inc()
	sample, err := c.runOne(ctx, spec)
	if err != nil && ctx.Err() != nil {
		return nil // campaign cancelled, not a trial failure
	}
	rec := &Record{Config: spec.Config, Trial: spec.Index, Seed: spec.Seed}
	if err != nil {
		rec.ErrKind, rec.ErrMsg = errKind(err), err.Error()
	} else {
		rec.Sample = &sample
	}
	c.met.observeOutcome(rec, start)
	return rec
}

// errKind classifies a trial failure as a deadline hit, a panic, or an
// error the trial returned.
func errKind(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return KindTimeout
	case errors.As(err, new(*panicError)):
		return KindPanic
	}
	return KindError
}

// panicError carries a recovered panic out of the trial goroutine.
type panicError struct {
	value any
	stack string
}

func (p *panicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", p.value, p.stack)
}

// runOne executes the trial function once under the per-trial deadline,
// converting panics into *panicError. The trial body runs in its own
// goroutine so a deadline hit can be reported even if the body does not
// poll ctx (the body's goroutine is then abandoned until it returns).
func (c *Campaign) runOne(ctx context.Context, spec Trial) (Sample, error) {
	tctx := ctx
	if c.opt.TrialTimeout > 0 {
		var cancel context.CancelFunc
		tctx, cancel = context.WithTimeout(ctx, c.opt.TrialTimeout)
		defer cancel()
	}
	type outcome struct {
		sample Sample
		err    error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				buf := make([]byte, 4096)
				buf = buf[:runtime.Stack(buf, false)]
				ch <- outcome{err: &panicError{value: r, stack: string(buf)}}
			}
		}()
		s, err := c.run(tctx, spec)
		ch <- outcome{sample: s, err: err}
	}()
	select {
	case o := <-ch:
		if o.err == nil && tctx.Err() != nil {
			// The body returned success only after the deadline passed;
			// treat it uniformly as the deadline outcome so checkpointed
			// runs and live runs agree.
			return Sample{}, tctx.Err()
		}
		return o.sample, o.err
	case <-tctx.Done():
		return Sample{}, tctx.Err()
	}
}

// fold merges one completed outcome into its config aggregate, strictly
// in trial order; out-of-order arrivals park in pending.
func (c *Campaign) fold(rec *Record) {
	st := c.state[rec.Config]
	if st == nil {
		return // checkpoint record for a config not in this campaign
	}
	c.statesMu.Lock()
	defer c.statesMu.Unlock()
	if st.stopped || rec.Trial < st.next || rec.Trial >= st.hi {
		return // past the early-stop point, a duplicate, or outside the span
	}
	st.pending[rec.Trial] = rec
	for {
		next, ok := st.pending[st.next]
		if !ok {
			return
		}
		delete(st.pending, st.next)
		st.next++
		if next.Sample != nil {
			st.agg.Add(next.Sample.Value)
			for k, v := range next.Sample.Extra {
				st.extra[k] += v
			}
		} else {
			st.errs = append(st.errs, &TrialError{
				Config: next.Config, Trial: next.Trial, Seed: next.Seed,
				Kind: next.ErrKind, Msg: next.ErrMsg,
			})
		}
		if c.opt.CITarget > 0 && st.agg.N() >= int64(c.opt.MinTrials) &&
			st.agg.CIHalfWidth(c.opt.Confidence) <= c.opt.CITarget {
			st.stopped = true
			st.pending = map[int]*Record{}
			c.met.earlyStops.Inc()
			return
		}
	}
}

// finalize renders the per-config aggregates into the result.
func (c *Campaign) finalize(res *Result) {
	c.statesMu.Lock()
	defer c.statesMu.Unlock()
	for _, id := range c.configs {
		st := c.state[id]
		cr := ConfigResult{
			Config:       id,
			N:            st.agg.N(),
			Mean:         st.agg.Mean(),
			Std:          st.agg.Std(),
			CIHalf:       st.agg.CIHalfWidth(c.opt.Confidence),
			Min:          st.agg.Min(),
			Max:          st.agg.Max(),
			Errors:       st.errs,
			EarlyStopped: st.stopped,
		}
		if st.stopped {
			res.Skipped += st.hi - st.next
		} else if st.next+len(st.pending) < st.hi {
			res.Interrupted = true
		}
		if st.agg.N() > 0 && len(st.extra) > 0 {
			cr.Extra = make(map[string]float64, len(st.extra))
			for k, v := range st.extra {
				cr.Extra[k] = v / float64(st.agg.N())
			}
		}
		res.Configs = append(res.Configs, cr)
		if c.opt.Log != nil {
			fmt.Fprintf(c.opt.Log, "campaign: %-40s n=%-4d mean=%.5g ±%.2g errors=%d%s\n",
				id, cr.N, cr.Mean, cr.CIHalf, len(cr.Errors), map[bool]string{true: " (early stop)"}[st.stopped])
		}
	}
}

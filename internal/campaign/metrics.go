package campaign

// Engine telemetry and the periodic progress reporter.
//
// Metric names (see DESIGN.md §10 for the naming scheme):
//
//	campaign.trials.started        trials dispatched to a worker
//	campaign.trials.completed      trials that returned a sample
//	campaign.trials.failed         trials that failed terminally
//	campaign.trials.panicked       terminal failures caused by a panic
//	campaign.trials.timed_out      terminal failures caused by the deadline
//	campaign.earlystop.decisions   configs stopped early by the CI target
//	campaign.workers.busy          workers currently inside a trial
//	campaign.trial.latency         wall time of one trial (ns)
//	campaign.checkpoint.flushes    checkpoint records flushed
//	campaign.checkpoint.flush_latency  marshal+write+fsync-to-OS time (ns)
//	campaign.ckpt.torn_lines       corrupt/undecodable checkpoint lines skipped on load
//	campaign.ckpt.repaired_bytes   torn-tail bytes truncated before resume appends
//	campaign.ckpt.degraded         1 while the campaign runs without durability

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// engineMetrics holds the resolved metric handles so the hot path never
// touches the registry map.
type engineMetrics struct {
	started, completed, failed *telemetry.Counter
	panicked, timeout          *telemetry.Counter
	earlyStops                 *telemetry.Counter
	workersBusy                *telemetry.Gauge
	trialLatency               *telemetry.Timer
	ckptFlushes                *telemetry.Counter
	ckptLatency                *telemetry.Timer
	ckptTorn                   *telemetry.Counter
	ckptRepaired               *telemetry.Counter
	ckptDegraded               *telemetry.Gauge
}

func newEngineMetrics(r *telemetry.Registry) *engineMetrics {
	return &engineMetrics{
		started:      r.Counter("campaign.trials.started"),
		completed:    r.Counter("campaign.trials.completed"),
		failed:       r.Counter("campaign.trials.failed"),
		panicked:     r.Counter("campaign.trials.panicked"),
		timeout:      r.Counter("campaign.trials.timed_out"),
		earlyStops:   r.Counter("campaign.earlystop.decisions"),
		workersBusy:  r.Gauge("campaign.workers.busy"),
		trialLatency: r.Timer("campaign.trial.latency"),
		ckptFlushes:  r.Counter("campaign.checkpoint.flushes"),
		ckptLatency:  r.Timer("campaign.checkpoint.flush_latency"),
		ckptTorn:     r.Counter("campaign.ckpt.torn_lines"),
		ckptRepaired: r.Counter("campaign.ckpt.repaired_bytes"),
		ckptDegraded: r.Gauge("campaign.ckpt.degraded"),
	}
}

// observeOutcome folds one finished trial into the metrics.
func (m *engineMetrics) observeOutcome(rec *Record, start time.Time) {
	m.trialLatency.Since(start)
	if rec.Sample != nil {
		m.completed.Inc()
		return
	}
	m.failed.Inc()
	switch rec.ErrKind {
	case KindPanic:
		m.panicked.Inc()
	case KindTimeout:
		m.timeout.Inc()
	}
}

// progressLoop prints one status line per interval while the campaign
// runs: covered/scheduled trials, live throughput, an ETA extrapolated
// from it, and the worst per-config CI half-width (the quantity adaptive
// early stopping is driving down). It reads fold state under statesMu and
// exits when stop closes.
func (c *Campaign) progressLoop(stop <-chan struct{}, w io.Writer, done *atomic.Int64, preloaded int) {
	every := c.opt.ProgressEvery
	if every <= 0 {
		every = 5 * time.Second
	}
	total := 0
	for _, st := range c.state {
		total += st.hi - st.lo
	}
	pfx := c.idPrefix()
	start := time.Now()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		executed := done.Load()
		covered := int(executed) + preloaded + c.skippedSoFar()
		elapsed := time.Since(start).Seconds()
		rate := float64(executed) / elapsed
		eta := "∞"
		if rate > 0 {
			left := float64(total-covered) / rate
			if left < 0 {
				left = 0
			}
			eta = time.Duration(left * float64(time.Second)).Round(time.Second).String()
		}
		worstCI, worstCfg := c.worstCI()
		line := fmt.Sprintf("%scampaign: %d/%d trials, %.1f trials/s, ETA %s", pfx, covered, total, rate, eta)
		if worstCfg != "" {
			line += fmt.Sprintf(", worst CI ±%.4g (%s)", worstCI, worstCfg)
		}
		fmt.Fprintln(w, line)
	}
}

// skippedSoFar counts trials already written off by early stopping.
func (c *Campaign) skippedSoFar() int {
	c.statesMu.Lock()
	defer c.statesMu.Unlock()
	n := 0
	for _, st := range c.state {
		if st.stopped {
			n += st.hi - st.next
		}
	}
	return n
}

// worstCI returns the widest current confidence-interval half-width over
// configs with enough folded trials for a variance estimate.
func (c *Campaign) worstCI() (float64, string) {
	c.statesMu.Lock()
	defer c.statesMu.Unlock()
	worst, cfg := 0.0, ""
	for _, id := range c.configs {
		st := c.state[id]
		if st.agg.N() < 2 || st.stopped {
			continue
		}
		if ci := st.agg.CIHalfWidth(c.opt.Confidence); ci > worst {
			worst, cfg = ci, id
		}
	}
	return worst, cfg
}

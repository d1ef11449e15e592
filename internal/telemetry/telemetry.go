// Package telemetry is the repository's dependency-free metrics
// substrate: named atomic counters, gauges, fixed-bucket histograms with
// quantile estimates, and duration timers, collected in a concurrent-safe
// registry with JSON snapshot export.
//
// The package exists so the fault-injection stack can be observed while
// it runs — trial throughput, retry/panic rates, checkpoint flush
// latency, where encode/inject/decode/eval time goes — without paying for
// the observation on the hot path:
//
//   - Recording is allocation-free: Counter.Add, Gauge.Set, and
//     Histogram.Observe perform only atomic operations on pre-allocated
//     state (verified by TestRecordingIsAllocationFree).
//   - Metric handles are resolved once (registry map lookup under a
//     mutex) and then held as plain pointers by the instrumented code.
//   - Histograms use fixed log-spaced buckets (8 sub-buckets per power of
//     two, ~9% relative resolution), so Observe is a shift, a mask, and
//     one atomic add regardless of the value distribution.
//
// Naming convention: metrics are dot-separated paths,
// "<package>.<subsystem>.<event>", e.g. "campaign.trials.completed",
// "ares.phase.inject", "envm.inject.faults". Timers and latency
// histograms record nanoseconds (unit "ns" in the snapshot).
package telemetry

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be any sign, but counters are conventionally
// monotonic; use a Gauge for values that move both ways).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable float64 value (e.g. a pool size or the
// most recent measurement of something).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adjusts the gauge by delta (negative deltas decrement),
// making a Gauge usable as an occupancy/level meter updated from many
// goroutines. Lock-free via a compare-and-swap loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the stored value (0 if never set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bucket geometry: values 0..15 get exact buckets; above that,
// each power of two is split into 8 log-spaced sub-buckets, covering the
// full non-negative int64 range in 496 buckets (~4 KB per histogram).
const (
	histSubBits  = 3
	histSubCount = 1 << histSubBits // sub-buckets per power of two
	histExact    = histSubCount * 2 // values below this are bucketed exactly
	histBuckets  = histExact + (63-histSubBits)*histSubCount
)

// bucketIndex maps a non-negative value to its bucket. Negative values
// clamp to bucket 0.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histExact {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // floor(log2), >= histSubBits+1
	shift := uint(exp - histSubBits)
	sub := int(u>>shift) - histSubCount
	return histExact + (exp-histSubBits-1)*histSubCount + sub
}

// bucketUpper returns the largest value mapping to bucket idx.
func bucketUpper(idx int) int64 {
	if idx < histExact {
		return int64(idx)
	}
	block := (idx - histExact) / histSubCount
	sub := (idx - histExact) % histSubCount
	shift := uint(block + 1)
	lower := uint64(histSubCount+sub) << shift
	return int64(lower + (1 << shift) - 1)
}

// Histogram is a fixed-bucket log-spaced histogram of int64 values with
// streaming count/sum/min/max. Observe is lock-free and allocation-free;
// quantile estimates carry the ~9% relative bucket resolution.
type Histogram struct {
	unit    string
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // initialized to MaxInt64; valid when count > 0
	max     atomic.Int64 // initialized to MinInt64; valid when count > 0
	buckets [histBuckets]atomic.Int64
}

func newHistogram(unit string) *Histogram {
	h := &Histogram{unit: unit}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Min returns the smallest observed value (0 when empty).
func (h *Histogram) Min() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Unit returns the histogram's value unit ("" or "ns").
func (h *Histogram) Unit() string { return h.unit }

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile returns an upper-bound estimate of the q-quantile (q in
// [0, 1]) from the bucket counts, or 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			u := bucketUpper(i)
			if m := h.max.Load(); u > m {
				u = m // never report beyond the observed maximum
			}
			return u
		}
	}
	return h.max.Load()
}

// Timer records durations into a nanosecond histogram.
type Timer struct{ h *Histogram }

// Since records the time elapsed from start until now.
func (t *Timer) Since(start time.Time) { t.h.Observe(int64(time.Since(start))) }

// Hist returns the underlying nanosecond histogram.
func (t *Timer) Hist() *Histogram { return t.h }

// Registry holds named metrics. The zero value is not usable; create
// with NewRegistry or use Default. Lookup methods are get-or-create and
// safe for concurrent use; the returned handles are meant to be resolved
// once and cached by the instrumented code.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

var std = NewRegistry()

// Default returns the process-wide registry that the instrumented
// packages (campaign, ares, envm, sparse) record into and the CLIs dump
// with -metrics.
func Default() *Registry { return std }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named (unitless) histogram, creating it on first
// use.
func (r *Registry) Histogram(name string) *Histogram { return r.histogram(name, "") }

// Timer returns a timer over the named nanosecond histogram, creating
// the histogram on first use.
func (r *Registry) Timer(name string) *Timer { return &Timer{h: r.histogram(name, "ns")} }

func (r *Registry) histogram(name, unit string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(unit)
		r.hists[name] = h
	}
	return h
}

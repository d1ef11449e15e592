package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b.c")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("a.b.c") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("a.g")
	if g.Value() != 0 {
		t.Fatalf("fresh gauge = %g, want 0", g.Value())
	}
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Fatalf("gauge = %g, want 3.5", g.Value())
	}
}

// TestBucketIndexMonotone checks the bucket mapping is monotone, total
// over the int64 range, and invertible within bucket resolution.
func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 15, 16, 17, 31, 32, 100, 1000, 12345,
		1 << 20, 1<<20 + 1, 1 << 40, 1 << 62, math.MaxInt64} {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d: not monotone", v, idx, prev)
		}
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range [0,%d)", v, idx, histBuckets)
		}
		if up := bucketUpper(idx); up < v {
			t.Fatalf("bucketUpper(%d) = %d < value %d", idx, up, v)
		}
		prev = idx
	}
	if bucketIndex(-5) != 0 {
		t.Fatalf("negative values must clamp to bucket 0")
	}
	// Exhaustive small-range check: every value maps to a bucket whose
	// bounds contain it.
	for v := int64(0); v < 4096; v++ {
		idx := bucketIndex(v)
		if up := bucketUpper(idx); v > up {
			t.Fatalf("value %d above its bucket upper bound %d", v, up)
		}
		if idx > 0 {
			if lowUp := bucketUpper(idx - 1); v <= lowUp {
				t.Fatalf("value %d also fits bucket %d (upper %d)", v, idx-1, lowUp)
			}
		}
	}
}

func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	if h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	if h.Sum() != 500500 {
		t.Fatalf("sum = %d, want 500500", h.Sum())
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("min/max = %d/%d, want 1/1000", h.Min(), h.Max())
	}
	// Quantiles are upper-bound estimates with ~9% bucket resolution.
	for _, tc := range []struct {
		q     float64
		exact int64
	}{{0.5, 500}, {0.95, 950}, {0.99, 990}, {1.0, 1000}} {
		got := h.Quantile(tc.q)
		if got < tc.exact || float64(got) > float64(tc.exact)*1.15 {
			t.Errorf("Quantile(%g) = %d, want in [%d, %d]", tc.q, got, tc.exact, int64(float64(tc.exact)*1.15))
		}
	}
}

func TestTimerRecordsNanoseconds(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("t")
	tm.Since(time.Now().Add(-3 * time.Millisecond))
	tm.Since(time.Now().Add(-2 * time.Millisecond))
	h := tm.Hist()
	if h.Unit() != "ns" {
		t.Fatalf("timer unit = %q, want ns", h.Unit())
	}
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
	if h.Sum() < int64(5*time.Millisecond) || h.Sum() > int64(6*time.Millisecond) {
		t.Fatalf("sum = %v, want ~5ms", time.Duration(h.Sum()))
	}
}

// TestRecordingIsAllocationFree is the contract the hot paths rely on:
// incrementing a counter, setting a gauge, and observing a histogram
// value must not allocate.
func TestRecordingIsAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	tm := r.Timer("t")
	if a := testing.AllocsPerRun(1000, func() { c.Add(3) }); a != 0 {
		t.Errorf("Counter.Add allocates %v per op, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() { g.Set(1.5) }); a != 0 {
		t.Errorf("Gauge.Set allocates %v per op, want 0", a)
	}
	v := int64(0)
	if a := testing.AllocsPerRun(1000, func() { v += 997; h.Observe(v) }); a != 0 {
		t.Errorf("Histogram.Observe allocates %v per op, want 0", a)
	}
	start := time.Now()
	if a := testing.AllocsPerRun(1000, func() { tm.Since(start) }); a != 0 {
		t.Errorf("Timer.Since allocates %v per op, want 0", a)
	}
}

// TestConcurrentRecording hammers one registry from many goroutines;
// run under -race this is the concurrency-safety proof, and the final
// aggregates must be exact (atomics lose nothing).
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared.counter")
			h := r.Histogram("shared.hist")
			g := r.Gauge("shared.gauge")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(int64(i))
				g.Set(float64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared.counter").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	h := r.Histogram("shared.hist")
	if h.Count() != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", h.Count(), workers*perWorker)
	}
	if h.Min() != 0 || h.Max() != perWorker-1 {
		t.Fatalf("hist min/max = %d/%d, want 0/%d", h.Min(), h.Max(), perWorker-1)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("trials.completed").Add(7)
	r.Gauge("workers").Set(4)
	tm := r.Timer("trial.latency")
	for i := 1; i <= 100; i++ {
		tm.Hist().Observe(int64(time.Duration(i) * time.Millisecond))
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if snap.Counters["trials.completed"] != 7 {
		t.Errorf("counter in snapshot = %d, want 7", snap.Counters["trials.completed"])
	}
	if snap.Gauges["workers"] != 4 {
		t.Errorf("gauge in snapshot = %g, want 4", snap.Gauges["workers"])
	}
	hs, ok := snap.Histograms["trial.latency"]
	if !ok {
		t.Fatal("timer histogram missing from snapshot")
	}
	if hs.Unit != "ns" || hs.Count != 100 {
		t.Errorf("timer snapshot unit/count = %q/%d, want ns/100", hs.Unit, hs.Count)
	}
	if hs.P50 < int64(50*time.Millisecond) || hs.P99 < hs.P50 || hs.Max != int64(100*time.Millisecond) {
		t.Errorf("timer percentiles implausible: p50=%d p99=%d max=%d", hs.P50, hs.P99, hs.Max)
	}
	if hs.Mean <= 0 {
		t.Errorf("mean = %g, want > 0", hs.Mean)
	}
	if snap.TakenAt.IsZero() {
		t.Error("taken_at not set")
	}
}

func TestWriteJSONFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	path := t.TempDir() + "/metrics.json"
	if err := r.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwriting must truncate, not append.
	r.Counter("x").Inc()
	if err := r.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("dumped file is not one JSON document: %v", err)
	}
	if snap.Counters["x"] != 2 {
		t.Fatalf("counter in file = %d, want 2", snap.Counters["x"])
	}
}

func TestReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	c.Add(5)
	h.Observe(123)
	reset(r)
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("Reset did not zero the metrics")
	}
	// Handles stay live after Reset.
	c.Inc()
	h.Observe(7)
	if c.Value() != 1 || h.Count() != 1 || h.Min() != 7 || h.Max() != 7 {
		t.Fatal("handles dead after Reset")
	}
}

func TestDefaultRegistryIsShared(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default must return the process-wide registry")
	}
}

// reset zeroes every registered metric; handles stay valid.
func reset(r *Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		h.count.Store(0)
		h.sum.Store(0)
		h.min.Store(math.MaxInt64)
		h.max.Store(math.MinInt64)
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
	}
}

package telemetry

import (
	"testing"
	"time"
)

// The recording benchmarks double as the allocation contract in bench
// form: run with -benchmem, allocs/op must be 0.

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench.counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("bench.counter")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench.hist")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) * 997)
	}
}

func BenchmarkTimerSince(b *testing.B) {
	tm := NewRegistry().Timer("bench.timer")
	start := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Since(start)
	}
}

func BenchmarkSnapshot(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 16; i++ {
		r.Counter(string(rune('a' + i))).Add(int64(i))
		h := r.Histogram("h" + string(rune('a'+i)))
		for v := int64(0); v < 1000; v++ {
			h.Observe(v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Snapshot()
	}
}

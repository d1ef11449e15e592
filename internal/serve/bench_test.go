package serve

// BenchmarkServeLoad is a closed-loop load generator (`go test -run
// '^$' -bench ServeLoad -benchmem ./internal/serve/`): a fixed fleet of
// clients fires evaluate requests at a server backed by the real
// replica pool, each client issuing its next request the moment the
// previous one answers. The tracked end-to-end server numbers are
// perfbench's serve workload (see BENCHMARK.json). Reported metrics:
//
//	req/s   completed requests per second
//	p99-ms  99th-percentile end-to-end request latency
//
// Seeds cycle through a small range, so the run exercises the
// coalescing and pool-cache paths the way a real tenant mix would.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"
)

func BenchmarkServeLoad(b *testing.B) {
	ev := getSoakEvaluator(b)
	s := New(Options{
		Backend:        NewAresBackend(ev),
		QueueDepth:     256,
		DefaultTimeout: 60 * time.Second,
	})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	const clients = 8
	var (
		mu   sync.Mutex
		lats []time.Duration
	)
	work := make(chan int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]time.Duration, 0, 64)
			for i := range work {
				body := soakBody(fmt.Sprintf("bench-%d", i%4), i%len(soakConfigs), uint64(i%12))
				start := time.Now()
				resp, data := post(b, hs.URL+"/v1/evaluate", body)
				local = append(local, time.Since(start))
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d: %s", resp.StatusCode, data)
				}
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}()
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	b.StopTimer()

	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p99 := lats[len(lats)*99/100]
		if len(lats)*99/100 >= len(lats) {
			p99 = lats[len(lats)-1]
		}
		b.ReportMetric(float64(p99)/float64(time.Millisecond), "p99-ms")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

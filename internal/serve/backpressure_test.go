package serve

// Satellite battery for the admission contract: bounded queue depth with
// 429 + Retry-After on overflow, deadline-expired requests answered
// without ever reaching the backend, and graceful drain that completes
// in-flight work while rejecting new requests with 503.

import (
	"context"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShed429 fills one worker and a depth-2 queue, then proves the next
// distinct request is shed with 429 + Retry-After while the queue gauge
// never exceeds its bound — and that shed requests succeed on retry once
// the queue drains.
func TestShed429(t *testing.T) {
	bk := &stubBackend{entered: make(chan struct{}, 1), block: make(chan struct{})}
	_, hs, reg := newTestServer(t, Options{
		Backend: bk, Workers: 1, QueueDepth: 2,
	})
	depth := reg.Gauge("serve.queue.depth")
	shed := reg.Counter("serve.shed")

	// Seed 1 occupies the single worker.
	done := make(chan int, 3)
	go func() {
		resp, _ := post(t, hs.URL+"/v1/evaluate", body("acme", 1, 60000))
		done <- resp.StatusCode
	}()
	<-bk.entered

	// Seeds 2 and 3 fill the queue.
	for seed := uint64(2); seed <= 3; seed++ {
		seed := seed
		go func() {
			resp, _ := post(t, hs.URL+"/v1/evaluate", body("acme", seed, 60000))
			done <- resp.StatusCode
		}()
	}
	waitFor(t, "queue to fill", func() bool { return depth.Value() == 2 })

	// Seed 4 must be shed immediately.
	resp, data := post(t, hs.URL+"/v1/evaluate", body("acme", 4, 60000))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: %d: %s", resp.StatusCode, data)
	}
	// Retry-After is the 1s hint jittered ±25% from the request seed
	// and rounded stochastically: 1 or 2, and bit-stable for the same
	// seed.
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 || ra > 2 {
		t.Errorf("Retry-After = %q, want 1 or 2", resp.Header.Get("Retry-After"))
	} else if want := retryAfterSeconds(retryAfter, 4); strconv.Itoa(ra) != want {
		t.Errorf("Retry-After = %d not deterministic for seed 4 (want %s)", ra, want)
	}
	if shed.Value() != 1 {
		t.Errorf("shed counter = %d, want 1", shed.Value())
	}
	if depth.Value() > 2 {
		t.Errorf("queue depth %v exceeded bound 2", depth.Value())
	}

	// Release the backend: the held requests complete, and the shed seed
	// succeeds on retry.
	close(bk.block)
	for i := 0; i < 3; i++ {
		if code := <-done; code != http.StatusOK {
			t.Errorf("held request finished %d, want 200", code)
		}
	}
	resp, data = post(t, hs.URL+"/v1/evaluate", body("acme", 4, 60000))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("retry after shed: %d: %s", resp.StatusCode, data)
	}
	waitFor(t, "queue to drain", func() bool { return depth.Value() == 0 })
}

// TestDeadlineExpiredNeverReachesBackend queues a request behind a stuck
// worker with a deadline too short to survive the wait, and proves it is
// answered 504 without the backend ever seeing it.
func TestDeadlineExpiredNeverReachesBackend(t *testing.T) {
	bk := &stubBackend{entered: make(chan struct{}, 1), block: make(chan struct{})}
	_, hs, reg := newTestServer(t, Options{Backend: bk, Workers: 1, QueueDepth: 4})
	expired := reg.Counter("serve.deadline.expired")

	// Seed 1 occupies the worker.
	done := make(chan int, 1)
	go func() {
		resp, _ := post(t, hs.URL+"/v1/evaluate", body("acme", 1, 60000))
		done <- resp.StatusCode
	}()
	<-bk.entered
	callsBefore := bk.calls.Load()

	// Seed 2 queues with a 30ms deadline it cannot survive.
	resp, data := post(t, hs.URL+"/v1/evaluate", body("acme", 2, 30))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired request: %d: %s", resp.StatusCode, data)
	}

	// Unstick the worker; it must discard the expired flight without
	// calling the backend.
	close(bk.block)
	if code := <-done; code != http.StatusOK {
		t.Errorf("held request finished %d, want 200", code)
	}
	waitFor(t, "expired flight to retire", func() bool { return expired.Value() == 1 })
	if got := bk.calls.Load(); got != callsBefore {
		t.Errorf("backend calls went %d -> %d; expired request reached the pool", callsBefore, got)
	}
}

// TestDrain proves Shutdown completes in-flight requests, rejects new
// ones with 503 + Retry-After, flips /healthz, and returns nil.
func TestDrain(t *testing.T) {
	bk := &stubBackend{entered: make(chan struct{}, 1), block: make(chan struct{})}
	s, hs, reg := newTestServer(t, Options{Backend: bk, Workers: 2, QueueDepth: 8})

	done := make(chan int, 1)
	go func() {
		resp, _ := post(t, hs.URL+"/v1/evaluate", body("acme", 1, 60000))
		done <- resp.StatusCode
	}()
	<-bk.entered

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	waitFor(t, "draining flag", s.Draining)

	// New work is rejected 503 with Retry-After; health reports draining.
	resp, data := post(t, hs.URL+"/v1/evaluate", body("acme", 2, 60000))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	hresp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: %d, want 503", hresp.StatusCode)
	}
	if reg.Counter("serve.rejected.draining").Value() != 1 {
		t.Errorf("rejected.draining = %d, want 1", reg.Counter("serve.rejected.draining").Value())
	}

	// The in-flight request still completes successfully.
	close(bk.block)
	if code := <-done; code != http.StatusOK {
		t.Errorf("in-flight request finished %d, want 200", code)
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if reg.Gauge("serve.inflight").Value() != 0 || reg.Gauge("serve.queue.depth").Value() != 0 {
		t.Errorf("gauges not zero after drain: inflight=%v depth=%v",
			reg.Gauge("serve.inflight").Value(), reg.Gauge("serve.queue.depth").Value())
	}
}

// TestDrainDeadlineCancelsStuckTrial proves an expired drain context
// hard-cancels whatever is still running: the stuck trial aborts at its
// cancellation point, its waiter gets 504, and Shutdown reports the
// context error instead of hanging.
func TestDrainDeadlineCancelsStuckTrial(t *testing.T) {
	// No release channel is ever closed: the trial only ends via ctx.
	bk := &stubBackend{entered: make(chan struct{}, 1), block: make(chan struct{})}
	s, hs, _ := newTestServer(t, Options{Backend: bk, Workers: 1, QueueDepth: 2})

	done := make(chan int, 1)
	go func() {
		resp, _ := post(t, hs.URL+"/v1/evaluate", body("acme", 1, 60000))
		done <- resp.StatusCode
	}()
	<-bk.entered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Errorf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	if code := <-done; code != http.StatusGatewayTimeout {
		t.Errorf("stuck trial's waiter got %d, want 504", code)
	}
}

// TestRetryAfterJitterEnvelope: the hint is deterministic per seed,
// stays within ±25% of its base, floors at 1s, and actually spreads
// across seeds (the anti-stampede point).
func TestRetryAfterJitterEnvelope(t *testing.T) {
	distinct := map[string]bool{}
	for seed := uint64(0); seed < 64; seed++ {
		v := retryAfterSeconds(20*time.Second, seed)
		if v != retryAfterSeconds(20*time.Second, seed) {
			t.Fatalf("seed %d: hint not deterministic", seed)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 15 || n > 25 {
			t.Fatalf("seed %d: Retry-After %q outside [15, 25]", seed, v)
		}
		distinct[v] = true
	}
	if len(distinct) < 4 {
		t.Fatalf("64 seeds produced only %d distinct hints; jitter is not spreading retries", len(distinct))
	}
	// Sub-second bases floor at 1, never 0.
	for seed := uint64(0); seed < 16; seed++ {
		if v := retryAfterSeconds(300*time.Millisecond, seed); v != "1" {
			t.Fatalf("seed %d: sub-second base gave %q, want floor 1", seed, v)
		}
	}
	// The default 1s base must itself spread: with nearest-integer
	// rounding every ±25% factor of 1s collapsed back to "1", making
	// the advertised decorrelation a no-op exactly where it matters
	// most. Stochastic rounding splits clients across 1s and 2s.
	oneSec := map[string]bool{}
	for seed := uint64(0); seed < 256; seed++ {
		v := retryAfterSeconds(time.Second, seed)
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 2 {
			t.Fatalf("seed %d: 1s base gave %q, want 1 or 2", seed, v)
		}
		oneSec[v] = true
	}
	if len(oneSec) < 2 {
		t.Fatalf("256 seeds at the 1s default produced only %v; jitter is still a no-op", oneSec)
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ares"
	"repro/internal/telemetry"
)

// stubBackend is a controllable Backend: pure-function results derived
// from the seed, an optional entry signal, and an optional block that
// holds every trial until released (or its context ends).
type stubBackend struct {
	entered chan struct{} // receives one send per backend call start
	block   chan struct{} // when non-nil, calls wait here (or on ctx)
	calls   atomic.Int64
}

func (b *stubBackend) wait(ctx context.Context) error {
	b.calls.Add(1)
	if b.entered != nil {
		select {
		case b.entered <- struct{}{}:
		default:
		}
	}
	if b.block != nil {
		select {
		case <-b.block:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func (b *stubBackend) Encode(ctx context.Context, cfg ares.Config) (*EncodeResponse, error) {
	if err := b.wait(ctx); err != nil {
		return nil, err
	}
	return &EncodeResponse{Config: cfg.String(), Layers: 1}, nil
}

func (b *stubBackend) Inject(ctx context.Context, cfg ares.Config, seed uint64) (ares.TrialStats, error) {
	if err := b.wait(ctx); err != nil {
		return ares.TrialStats{}, err
	}
	return ares.TrialStats{Faults: int(seed % 17)}, nil
}

func (b *stubBackend) Evaluate(ctx context.Context, cfg ares.Config, seed uint64) (float64, ares.TrialStats, error) {
	if err := b.wait(ctx); err != nil {
		return 0, ares.TrialStats{}, err
	}
	return float64(seed%100) / 1000, ares.TrialStats{Faults: int(seed % 17)}, nil
}

func (b *stubBackend) Lifetime(ctx context.Context, cfg ares.Config, lp ares.LifetimePolicy, seed uint64) (ares.LifetimeStats, error) {
	if err := b.wait(ctx); err != nil {
		return ares.LifetimeStats{}, err
	}
	return ares.LifetimeStats{FinalDelta: float64(seed%10) / 100, FirstViolation: -1, Rewrites: lp.EpochCount() - 1}, nil
}

// newTestServer builds a Server on a private registry plus an HTTP
// fixture around it. Callers must shut both down.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	opt.Registry = reg
	s := New(opt)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, hs, reg
}

// body builds a minimal valid request body.
func body(tenant string, seed uint64, timeoutMS int64) string {
	return fmt.Sprintf(`{"tenant":%q,"seed":%d,"timeout_ms":%d,"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}}}`,
		tenant, seed, timeoutMS)
}

func post(t testing.TB, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestEndpointsBasic(t *testing.T) {
	_, hs, reg := newTestServer(t, Options{Backend: &stubBackend{}, Workers: 2})

	resp, data := post(t, hs.URL+"/v1/evaluate", body("acme", 42, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: %d: %s", resp.StatusCode, data)
	}
	var ev EvaluateResponse
	if err := json.Unmarshal(data, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.DeltaErr != 0.042 || ev.Seed != 42 {
		t.Errorf("evaluate response %+v", ev)
	}
	if !strings.Contains(ev.Config, "CSR@MLC-CTT") {
		t.Errorf("config echo %q", ev.Config)
	}

	resp, data = post(t, hs.URL+"/v1/inject", body("acme", 5, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inject: %d: %s", resp.StatusCode, data)
	}
	var inj InjectResponse
	if err := json.Unmarshal(data, &inj); err != nil {
		t.Fatal(err)
	}
	if inj.Stats.Faults != 5 {
		t.Errorf("inject stats %+v", inj.Stats)
	}

	resp, data = post(t, hs.URL+"/v1/encode", body("acme", 0, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("encode: %d: %s", resp.StatusCode, data)
	}

	lt := `{"tenant":"acme","seed":3,"config":{"tech":"MLC-CTT","encoding":"bitmask","default":{"bpc":2}},` +
		`"lifetime":{"years":10,"scrub_interval_years":2.5}}`
	resp, data = post(t, hs.URL+"/v1/lifetime", lt)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lifetime: %d: %s", resp.StatusCode, data)
	}
	var lr LifetimeResponse
	if err := json.Unmarshal(data, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Rewrites != 3 { // ceil(10/2.5)=4 epochs -> 3 rewrites
		t.Errorf("lifetime rewrites %d", lr.Rewrites)
	}

	// Health and metrics.
	hresp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", hresp.StatusCode)
	}
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`serve_requests{endpoint="evaluate"} 1`,
		`serve_requests_tenant{tenant="acme"} 4`,
		`serve_responses{code="200"} 5`, // 4 trial endpoints + healthz
		"# TYPE serve_latency_ns summary",
	} {
		if !strings.Contains(string(mdata), want) {
			t.Errorf("metrics scrape missing %q:\n%s", want, mdata)
		}
	}
	_ = reg
}

func TestBadRequests(t *testing.T) {
	_, hs, _ := newTestServer(t, Options{Backend: &stubBackend{}, Workers: 1})
	cases := []struct {
		name, path, body string
	}{
		{"syntax", "/v1/evaluate", `{"config":`},
		{"unknown field", "/v1/evaluate", `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}},"bogus":1}`},
		{"unknown tech", "/v1/evaluate", `{"config":{"tech":"FlashMagic","encoding":"csr","default":{"bpc":3}}}`},
		{"unknown encoding", "/v1/evaluate", `{"config":{"tech":"MLC-CTT","encoding":"coo","default":{"bpc":3}}}`},
		{"override stream not stored", "/v1/evaluate", `{"config":{"tech":"MLC-CTT","encoding":"bitmask","default":{"bpc":3},"overrides":{"colidx":{"bpc":1}}}}`},
		{"negative bpc", "/v1/evaluate", `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":-1}}}`},
		{"infeasible bpc", "/v1/evaluate", `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":9}}}`},
		{"negative retention", "/v1/evaluate", `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3},"retention_years":-2}}`},
		{"negative timeout", "/v1/evaluate", `{"timeout_ms":-5,"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}}}`},
		{"bad tenant", "/v1/evaluate", `{"tenant":"a b!","config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}}}`},
		{"lifetime on evaluate", "/v1/evaluate", `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}},"lifetime":{"years":1}}`},
		{"lifetime missing", "/v1/lifetime", `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}}}`},
		{"lifetime negative years", "/v1/lifetime", `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}},"lifetime":{"years":-1}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := post(t, hs.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: got %d (%s), want 400", tc.name, resp.StatusCode, data)
			}
			var er ErrorResponse
			if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
				t.Errorf("%s: error body %q", tc.name, data)
			}
		})
	}
	// Wrong method.
	resp, err := http.Get(hs.URL + "/v1/evaluate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on trial endpoint: %d, want 405", resp.StatusCode)
	}
}

// TestCoalescing proves identical concurrent requests share one backend
// computation and all receive its result.
func TestCoalescing(t *testing.T) {
	bk := &stubBackend{entered: make(chan struct{}, 1), block: make(chan struct{})}
	_, hs, reg := newTestServer(t, Options{Backend: bk, Workers: 2, QueueDepth: 8})

	const n = 4
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	codes := make([]int, n)
	launch := func(i int) {
		defer wg.Done()
		resp, data := post(t, hs.URL+"/v1/evaluate", body("acme", 7, 5000))
		codes[i], bodies[i] = resp.StatusCode, data
	}
	wg.Add(1)
	go launch(0)
	<-bk.entered // leader is inside the backend
	coalesced := reg.Counter("serve.coalesced")
	for i := 1; i < n; i++ {
		wg.Add(1)
		go launch(i)
	}
	// Wait until every follower has attached to the in-flight twin.
	deadline := time.Now().Add(5 * time.Second)
	for coalesced.Value() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d followers coalesced", coalesced.Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(bk.block)
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := bk.calls.Load(); got != 1 {
		t.Errorf("backend ran %d times for %d identical requests, want 1", got, n)
	}
}

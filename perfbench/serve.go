package main

// The serve workload: an in-process serve.New + Handler() behind
// httptest, with GOMAXPROCS closed-loop HTTP clients. The mix leans on
// evaluate, with some inject and encode, over the four tenant configs of
// the server's soak test; seeds come from a small range so identical
// in-flight requests can coalesce. An op is one HTTP request; the
// clients run in one-second slices, each followed by a reference sample
// (pace.go), and ops_per_s is the median scaled slice rate.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ares"
	"repro/internal/exper"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// serveConfigs is the tenant config mix of the server's soak test, with
// the share of requests each config gets. The first two always corrupt
// weights and the last two always take the fast path, so the weights
// set where the slow evaluate mode begins in the latency CDF: about 36%
// of requests are fast (inject, encode, fast-path evaluate), keeping
// p50 and p99 well away from that class boundary.
var serveConfigs = []struct {
	spec string
	pct  int
}{
	{`{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}}`, 40},
	{`{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3},"overrides":{"rowcount":{"bpc":3,"ecc":true},"colidx":{"bpc":3,"ecc":true}}}`, 40},
	{`{"tech":"MLC-RRAM","encoding":"bitmask","default":{"bpc":2,"ecc":true}}`, 10},
	{`{"tech":"MLC-CTT","encoding":"idxsync","default":{"bpc":2},"retention_years":3}`, 10},
}

// serveMix is the endpoint mix in percent.
var serveMix = []struct {
	ep  string
	pct int
}{{"encode", 5}, {"inject", 15}, {"evaluate", 80}}

// pickEndpoint maps a draw in [0, 100) onto the endpoint mix.
func pickEndpoint(r int) string {
	for _, m := range serveMix {
		if r < m.pct {
			return m.ep
		}
		r -= m.pct
	}
	return serveMix[len(serveMix)-1].ep
}

// pickConfig maps a draw in [0, 100) onto the config mix.
func pickConfig(r int) int {
	for i, c := range serveConfigs {
		if r < c.pct {
			return i
		}
		r -= c.pct
	}
	return len(serveConfigs) - 1
}

// serveSeeds is the request seed range; small, so that identical
// requests are sometimes in flight together and coalesce.
const serveSeeds = 64

// serveCheck is how many evaluate responses of the first measured
// section the output check replays.
const serveCheck = 24

// timedBackend wraps the production backend and, while tracing, times
// every backend call per endpoint.
type timedBackend struct {
	inner  *serve.AresBackend
	traced atomic.Bool
	lat    *classLat
	spanNS atomic.Int64
	trials atomic.Int64
}

func (b *timedBackend) time(ep string, start time.Time, trial bool) {
	if !b.traced.Load() {
		return
	}
	d := time.Since(start)
	b.lat.add(ep, float64(d)/1e6)
	if trial {
		b.spanNS.Add(int64(d))
		b.trials.Add(1)
	}
}

func (b *timedBackend) Encode(ctx context.Context, cfg ares.Config) (*serve.EncodeResponse, error) {
	defer b.time("encode", time.Now(), false)
	return b.inner.Encode(ctx, cfg)
}

func (b *timedBackend) Inject(ctx context.Context, cfg ares.Config, seed uint64) (ares.TrialStats, error) {
	defer b.time("inject", time.Now(), true)
	return b.inner.Inject(ctx, cfg, seed)
}

func (b *timedBackend) Evaluate(ctx context.Context, cfg ares.Config, seed uint64) (float64, ares.TrialStats, error) {
	defer b.time("evaluate", time.Now(), true)
	return b.inner.Evaluate(ctx, cfg, seed)
}

func (b *timedBackend) Lifetime(ctx context.Context, cfg ares.Config, lp ares.LifetimePolicy, seed uint64) (ares.LifetimeStats, error) {
	return b.inner.Lifetime(ctx, cfg, lp, seed)
}

type serveWL struct {
	o       options
	ev      *ares.MeasuredEvaluator
	backend *timedBackend
	srv     *serve.Server
	ts      *httptest.Server
	client  *http.Client
	section uint64

	mu      sync.Mutex
	checked []servedEval
	dirty   []trialRef
}

// servedEval is one evaluate response kept for the output check.
type servedEval struct {
	body []byte
	resp serve.EvaluateResponse
}

func newServe(o options) *serveWL { return &serveWL{o: o} }

func (s *serveWL) setup(rep int) error {
	s.close()
	ev, err := exper.NewEnv(modelSeed).Measured()
	if err != nil {
		return err
	}
	s.ev = ev
	s.backend = &timedBackend{inner: serve.NewAresBackend(ev)}
	s.srv = serve.New(serve.Options{Backend: s.backend})
	s.ts = httptest.NewServer(s.srv.Handler())
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * s.o.procs}}
	// Warm-up: GOMAXPROCS concurrent requests of every endpoint and
	// config, so replicas, encodings and connections exist before the
	// clock starts.
	var wg sync.WaitGroup
	errs := make(chan error, s.o.procs)
	for c := 0; c < s.o.procs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, m := range serveMix {
				for cfg := range serveConfigs {
					seed := mix(s.o.seed, 3<<40+uint64(rep*s.o.procs+c))
					if code, _, err := s.post(m.ep, s.body(cfg, seed)); err != nil || code != http.StatusOK {
						errs <- fmt.Errorf("warm-up %s config %d: status %d, %v", m.ep, cfg, code, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func (s *serveWL) body(cfg int, seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"tenant":"tenant-%d","seed":%d,"timeout_ms":30000,"config":%s}`, cfg, seed, serveConfigs[cfg].spec))
}

func (s *serveWL) post(ep string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.ts.URL+"/v1/"+ep, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (s *serveWL) measure(d time.Duration, traced bool) (window, error) {
	s.section++
	w := window{layer: map[string]float64{}}
	reqLat := newClassLat()
	classes := newClassLat()
	var before telSnap
	if traced {
		s.backend.lat = newClassLat()
		s.backend.spanNS.Store(0)
		s.backend.trials.Store(0)
		before = readTel()
		s.backend.traced.Store(true)
	}
	queue := telemetry.Default().Gauge("serve.queue.depth")
	var maxQueue atomic.Int64
	rngs := make([]*rand.Rand, s.o.procs)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(int64(mix(s.o.seed, s.section<<8+uint64(c)))))
	}
	base := mix(s.o.seed, 4<<40)
	op := func(c int) (float64, bool) {
		rng := rngs[c]
		ep := pickEndpoint(rng.Intn(100))
		cfg := pickConfig(rng.Intn(100))
		seed := base + uint64(rng.Intn(serveSeeds))
		body := s.body(cfg, seed)
		t0 := time.Now()
		code, out, err := s.post(ep, body)
		ms := float64(time.Since(t0)) / 1e6
		if q := int64(queue.Value()); q > maxQueue.Load() {
			maxQueue.Store(q)
		}
		if err != nil || code != http.StatusOK {
			fmt.Fprintf(os.Stderr, "serve: %s status %d: %v %s\n", ep, code, err, out)
			return ms, false
		}
		class := ep
		if ep == "evaluate" {
			var er serve.EvaluateResponse
			if err := json.Unmarshal(out, &er); err != nil {
				return ms, false
			}
			class = "evaluate.corrupted"
			if er.Stats.Mismatch == 0 {
				class = "evaluate.fast"
			}
			s.keep(body, er, traced)
		}
		if traced {
			classes.add(class, ms)
			reqLat.add(ep, ms)
		}
		return ms, true
	}
	var sl []slice
	for start := time.Now(); time.Since(start) < d; {
		rate, lat, attempted, failed := closedLoop(s.o.procs, time.Second, op)
		sl = append(sl, slice{rate, lat, refRate(refSlice, s.o.procs)})
		w.attempted += attempted
		w.failed += failed
	}
	s.backend.traced.Store(false)
	w.rate, w.latMS = scaled("serve", sl)
	if !traced {
		return w, nil
	}
	delta := telDelta{before, readTel()}
	bl := s.backend.lat
	for _, m := range serveMix {
		w.layer["serve.req_ms."+m.ep+".p50"] = reqLat.p50(m.ep)
		w.layer["serve.backend_ms."+m.ep+".p50"] = bl.p50(m.ep)
	}
	w.layer["serve.overhead_ms.p50"] = reqLat.p50("evaluate") - bl.p50("evaluate")
	n := float64(w.attempted)
	w.layer["serve.coalesced_frac"] = delta.counter("serve.coalesced") / n
	w.layer["serve.shed_frac"] = delta.counter("serve.shed") / n
	w.layer["serve.queue_depth.max"] = float64(maxQueue.Load())
	w.layer["serve.p50_boundary_gap_pct"] = classes.boundaryGap(50)
	w.layer["serve.p99_boundary_gap_pct"] = classes.boundaryGap(99)
	stageMetrics(w.layer, delta, s.backend.trials.Load(), w.attempted, float64(s.backend.spanNS.Load())/1e6)
	classes.print("serve")
	for _, q := range []float64{50, 99} {
		if g := classes.boundaryGap(q); g < 5 {
			fmt.Fprintf(os.Stderr, "serve: WARNING p%.0f lies %.1f percentile points from a class boundary\n", q, g)
		}
	}
	return w, nil
}

// keep records an evaluate response for the output check (first
// section) and for the first-dirty-layer sample (traced section).
func (s *serveWL) keep(body []byte, er serve.EvaluateResponse, traced bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.section == 1 && len(s.checked) < serveCheck {
		s.checked = append(s.checked, servedEval{body, er})
	}
	if traced && len(s.dirty) < dirtySample {
		if _, cfg, _, err := serve.DecodeRequest(bytes.NewReader(body), false); err == nil {
			s.dirty = append(s.dirty, trialRef{cfg, er.Seed})
		}
	}
}

// check replays the kept evaluate responses through the serial
// reference path (ares.MeasuredEvaluator.EvalTrialSerial) on the
// request's decoded config: the served delta and statistics must match
// bit for bit.
func (s *serveWL) check() (int64, error) {
	if len(s.checked) == 0 {
		return 0, fmt.Errorf("no evaluate responses kept for the output check")
	}
	var bad int64
	for _, k := range s.checked {
		req, cfg, _, err := serve.DecodeRequest(bytes.NewReader(k.body), false)
		if err != nil {
			return 0, err
		}
		delta, st, err := s.ev.EvalTrialSerial(context.Background(), cfg, req.Seed)
		if err != nil {
			return 0, err
		}
		want := serve.EvaluateResponse{Config: cfg.String(), Seed: req.Seed, DeltaErr: delta, Stats: serve.StatsJSON{
			Faults: st.Faults, Corrected: st.Corrected, Detected: st.Detected, StructFrac: st.StructFrac,
			ValueNSR: st.ValueNSR, Mismatch: st.Mismatch, DegradedBlocks: st.DegradedBlocks,
		}}
		if k.resp != want {
			bad++
			fmt.Fprintf(os.Stderr, "serve: MISMATCH served %+v, serial %+v\n", k.resp, want)
		}
	}
	fmt.Fprintf(os.Stderr, "serve: output check replayed %d evaluate responses, %d mismatches\n", len(s.checked), bad)
	return bad, nil
}

func (s *serveWL) probe(layer map[string]float64) error {
	if err := firstDirtyLayers(s.ev, s.dirty, layer); err != nil {
		return err
	}
	xc := benchXbar(64, 32)
	if err := probeForward(s.ev, xc, layer); err != nil {
		return err
	}
	xc.DetectSigma = 4
	if err := probeCrossbar(s.ev, xc, layer); err != nil {
		return err
	}
	return probeExplore(s.o.seed, layer)
}

func (s *serveWL) close() {
	if s.ts == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
	s.ts.Close()
	s.client.CloseIdleConnections()
	s.ts = nil
}

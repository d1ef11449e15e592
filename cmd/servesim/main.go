// Command servesim is the long-lived batched fault-evaluation server:
// it trains the measured TinyCNN once, then serves what-if fault
// probes — encode, inject, evaluate, lifetime — over HTTP against the
// shared ares replica pool, with bounded admission, request
// coalescing, per-request deadlines, Prometheus telemetry, and
// graceful drain on SIGTERM.
//
// Usage:
//
//	servesim -addr localhost:8344
//	curl -s localhost:8344/v1/evaluate -d '{
//	  "tenant": "acme", "seed": 7,
//	  "config": {"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}}
//	}'
//	curl -s localhost:8344/metrics
//
// Responses are pure functions of (config, seed): replaying a request
// reproduces its answer bit-for-bit, and identical concurrent requests
// are served by one computation. The admission contract (429 when the
// queue is full, 503 while draining, 504 past the deadline) is
// documented in DESIGN.md §15.
//
// -smoke runs a self-test instead of serving: bind an ephemeral port,
// issue one request per endpoint plus a /metrics scrape, drain, and
// print "smoke ok".
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/exper"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("servesim: ")

	addr := flag.String("addr", "localhost:8344", "listen address")
	seed := flag.Uint64("seed", 1, "training seed for the measured model")
	queue := flag.Int("queue", 64, "admission queue depth (full queue sheds with 429)")
	workers := flag.Int("workers", 0, "goroutines draining the queue into the replica pool (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 10*time.Second, "default per-request deadline (timeout_ms overrides, capped by -max-timeout)")
	maxTimeout := flag.Duration("max-timeout", 60*time.Second, "upper bound on any requested deadline")
	drain := flag.Duration("drain", 30*time.Second, "graceful drain budget on SIGTERM/SIGINT")
	smoke := flag.Bool("smoke", false, "self-test: serve one request per endpoint on an ephemeral port, then exit")
	tel := cliutil.AddFlags()
	flag.Parse()
	tel.Start()
	defer tel.Dump()

	log.Printf("training measured model (seed %d)...", *seed)
	ev, err := exper.NewEnv(*seed).Measured()
	if err != nil {
		log.Fatal(err)
	}
	srv := serve.New(serve.Options{
		Backend:        serve.NewAresBackend(ev),
		QueueDepth:     *queue,
		Workers:        *workers,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
	})

	if *smoke {
		if err := runSmoke(srv); err != nil {
			log.Fatalf("smoke: %v", err)
		}
		fmt.Println("smoke ok")
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	log.Printf("serving on http://%s (baseline error %.3f)", ln.Addr(), ev.BaselineErr)

	ctx, stop := cliutil.NotifyContext(context.Background())
	defer stop()
	<-ctx.Done()
	stop() // second signal kills immediately

	log.Printf("draining (budget %s)...", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Order matters: first stop admission and let queued + in-flight
	// trials finish (new requests get 503 + Retry-After while the HTTP
	// listener is still up, so load balancers see the drain), then close
	// the listener and idle connections.
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("drain incomplete: %v", err)
		defer os.Exit(1)
	}
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	log.Print("drained")
}

// runSmoke exercises the full surface end to end on a loopback
// listener: every trial endpoint answers 200 (evaluate also on the 2:4
// format), /metrics scrapes, the drain completes.
func runSmoke(srv *serve.Server) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	const cfg = `"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3},"overrides":{"rowcount":{"bpc":3,"ecc":true}}}`
	reqs := []struct{ path, body string }{
		{"/v1/encode", `{"tenant":"smoke",` + cfg + `}`},
		{"/v1/inject", `{"tenant":"smoke","seed":7,` + cfg + `}`},
		{"/v1/evaluate", `{"tenant":"smoke","seed":7,` + cfg + `}`},
		{"/v1/lifetime", `{"tenant":"smoke","seed":7,` + cfg + `,"lifetime":{"years":8,"scrub_interval_years":4}}`},
		{"/v1/evaluate", `{"tenant":"smoke","seed":7,"config":{"tech":"MLC-CTT","encoding":"2:4","default":{"bpc":3},"overrides":{"meta24":{"bpc":1}}}}`},
	}
	for _, r := range reqs {
		resp, err := http.Post(base+r.path, "application/json", strings.NewReader(r.body))
		if err != nil {
			return fmt.Errorf("%s: %w", r.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", r.path, resp.StatusCode, body)
		}
		log.Printf("%s ok (%d bytes)", r.path, len(body))
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	for _, want := range []string{"serve_requests{", "ares_replicas_busy 0"} {
		if !strings.Contains(string(scrape), want) {
			return fmt.Errorf("/metrics scrape missing %q", want)
		}
	}
	log.Printf("/metrics ok (%d bytes)", len(scrape))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return hs.Shutdown(ctx)
}

// Package cliutil holds the flag plumbing shared by the repro CLIs: the
// -metrics JSON telemetry dump, the -prom live Prometheus /metrics
// endpoint and the -pprof profiling endpoint (faultsim, maxnvm,
// campaignd, servesim); the -fsync checkpoint durability policy
// (faultsim, campaignd work and supervise); and usage errors and
// crossbar tile parsing (also nvsweep).
package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers on DefaultServeMux
	"os"
	"os/signal"
	"syscall"

	"repro/internal/durable"
	"repro/internal/telemetry"
)

// Telemetry carries the observability and durability flag state of one
// CLI run.
type Telemetry struct {
	metricsPath string
	pprofAddr   string
	promAddr    string
	promLn      net.Listener
	fsync       durable.SyncPolicy
	reg         *telemetry.Registry
}

// AddFlags registers -metrics, -pprof and -prom on the default flag set
// and returns the handle the CLI uses after flag.Parse. The snapshot is
// taken from telemetry.Default(), where all instrumented packages
// record.
func AddFlags() *Telemetry {
	return AddFlagsTo(flag.CommandLine)
}

// AddFlagsTo is AddFlags against an explicit flag set, so tests (and
// CLIs with their own flag sets) can wire the observability surface
// without touching the process-global flag.CommandLine.
func AddFlagsTo(fs *flag.FlagSet) *Telemetry {
	t := &Telemetry{reg: telemetry.Default()}
	fs.StringVar(&t.metricsPath, "metrics", "",
		"write a JSON telemetry snapshot (counters, gauges, latency percentiles) to this path on exit")
	fs.StringVar(&t.pprofAddr, "pprof", "",
		"serve net/http/pprof on this address, e.g. localhost:6060")
	fs.StringVar(&t.promAddr, "prom", "",
		"serve a continuous Prometheus text-format /metrics endpoint on this address, e.g. localhost:9100 (scrape a long campaign live instead of waiting for the -metrics exit snapshot)")
	return t
}

// AddFsyncTo registers -fsync on fs: the durability policy of the
// checkpoint or shard WAL the CLI appends to.
func (t *Telemetry) AddFsyncTo(fs *flag.FlagSet) {
	fs.Func("fsync", "checkpoint durability policy: never|interval|always (default interval)",
		func(s string) error {
			p, err := durable.ParseSyncPolicy(s)
			if err != nil {
				return err
			}
			t.fsync = p
			return nil
		})
}

// SyncPolicy returns the -fsync choice (durable.SyncInterval unless the
// flag was given).
func (t *Telemetry) SyncPolicy() durable.SyncPolicy { return t.fsync }

// NotifyContext returns a context cancelled on SIGINT or SIGTERM: the
// shared graceful-shutdown contract of the repro CLIs (the campaign
// engine flushes completed trials and returns partial aggregates when
// it fires). The stop function releases the signal registration.
func NotifyContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}

// Start launches the pprof server and the Prometheus exporter when
// their flags were given. Call once, after flag.Parse. The -prom
// listener is bound synchronously so a bad address fails loudly up
// front and PromURL is valid as soon as Start returns; pprof startup
// failures are reported to stderr but do not abort the run: both
// surfaces are auxiliary.
func (t *Telemetry) Start() {
	if t.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(t.pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/\n", t.pprofAddr)
	}
	if t.promAddr != "" {
		ln, err := net.Listen("tcp", t.promAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prom: %v\n", err)
			return
		}
		t.promLn = ln
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = t.reg.WritePrometheus(w)
		})
		go func() {
			if err := http.Serve(ln, mux); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(os.Stderr, "prom: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "prom: serving on %s\n", t.PromURL())
	}
}

// PromURL returns the live /metrics endpoint URL once Start has bound
// the -prom listener, or "" when the flag was not given (or binding
// failed). The bound address is reported rather than the flag value so
// port-0 requests ("localhost:0") resolve to the real port.
func (t *Telemetry) PromURL() string {
	if t.promLn == nil {
		return ""
	}
	return fmt.Sprintf("http://%s/metrics", t.promLn.Addr())
}

// Dump writes the JSON snapshot when -metrics was given (no-op
// otherwise). Call it on every exit path — including the SIGINT path,
// where the campaign engine has already flushed and returned — so an
// interrupted run still leaves its telemetry behind. Calling more than
// once is safe; the last snapshot wins.
func (t *Telemetry) Dump() {
	if t.metricsPath == "" {
		return
	}
	if err := t.reg.WriteJSONFile(t.metricsPath); err != nil {
		fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "metrics: snapshot written to %s\n", t.metricsPath)
}

// Command perfbench is the repository's end-to-end benchmark. It drives
// the MaxNVM stack from outside, through the public entry points of its
// packages, on one of four workloads:
//
//	fig5     the Figure 5 fault-injection campaign (storage routes)
//	xbar     crossbar compute-in-memory campaigns (analog route)
//	serve    the batched evaluation server behind HTTP
//	explore  the Table 4 design-space exploration on LeNet5
//
// Each invocation runs one workload in its own process:
//
//	perfbench --workload fig5 --seed 1 --seconds 10 --trace 0
//
// It sets up several times (training, evaluator, warm-up) and reports the
// median set-up time, measures for --seconds, replays a fixed sample of
// outputs through the serial reference paths, and prints one JSON object
// as its last stdout line. With --trace 1 the first half of the measured
// time runs untraced and the second half traced, and the JSON carries the
// per-layer metrics instead of the end-to-end ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// modelSeed fixes the trained TinyCNN and its evaluator across runs: the
// workload seed varies the trials and requests, never the model.
const modelSeed = 1

// setupReps is how many times each run sets up; setup_s is the median.
const setupReps = 3

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	procs   int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last stdout line of every run.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// window is the outcome of one measured section.
type window struct {
	attempted, failed int64
	// rate is the section's throughput in ops/s, scaled to the nominal
	// host speed: the median over the section's slices (pace.go).
	rate float64
	// latMS holds the scaled latency of every completed op.
	latMS []float64
	// layer holds per-layer metrics (traced sections only).
	layer map[string]float64
}

// workload is one benchmark workload. setup builds everything the timed
// section needs, including the warm-up; it is called setupReps times and
// must leave the workload ready to measure after the last call. measure
// runs one timed section of the given length. check replays the output
// sample taken while measuring and returns the number of mismatching ops
// (each already counted as attempted). probe adds the module probes and
// per-workload derived metrics of a traced run. close releases
// everything the workload started.
type workload interface {
	setup(rep int) error
	measure(d time.Duration, traced bool) (window, error)
	check() (int64, error)
	probe(layer map[string]float64) error
	close()
}

func newWorkload(name string, o options) (workload, error) {
	switch name {
	case "fig5":
		return newFig5(o), nil
	case "xbar":
		return newXbar(o), nil
	case "serve":
		return newServe(o), nil
	case "explore":
		return newExplore(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fig5, xbar, serve or explore)", name)
}

func main() {
	name := flag.String("workload", "", "fig5, xbar, serve or explore")
	seed := flag.Uint64("seed", 1, "workload seed: fixes the trials, requests and explorations")
	seconds := flag.Float64("seconds", 10, "length of the measured section")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	list := flag.Bool("list-per-layer", false, "print the per-layer metrics as BENCHMARK.json entries and exit")
	flag.Parse()
	if *list {
		var entries []map[string]string
		for _, m := range perLayerMetrics {
			entries = append(entries, map[string]string{"name": m.name, "unit": m.unit, "better": m.better})
		}
		line, _ := json.Marshal(entries)
		fmt.Println(string(line))
		return
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, procs: runtime.GOMAXPROCS(0)}
	out, err := run(*name, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func run(name string, o options) (*output, error) {
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	wl, err := newWorkload(name, o)
	if err != nil {
		return nil, err
	}
	defer wl.close()

	// Each set-up is scaled by the reference sample taken right after it
	// (pace.go).
	var setups, raw []float64
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		if err := wl.setup(rep); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		secs := time.Since(start).Seconds()
		raw = append(raw, secs)
		setups = append(setups, secs*refRate(refSlice, o.procs)/refNominal)
	}
	fmt.Fprintf(os.Stderr, "%s: setup %.3fs scaled, raw per repetition %v s\n", name, median(setups), roundAll(raw, 3))

	total := time.Duration(o.seconds * float64(time.Second))
	out := &output{Metrics: map[string]metric{}}
	var w window
	if o.trace {
		plain, err := wl.measure(total/2, false)
		if err != nil {
			return nil, err
		}
		w, err = wl.measure(total/2, true)
		if err != nil {
			return nil, err
		}
		w.attempted += plain.attempted
		w.failed += plain.failed
		w.latMS = append(w.latMS, plain.latMS...)
		if name == "serve" {
			// The request tail over both halves: the traced half alone
			// has fewer than ten samples beyond its p99.
			w.layer["serve.req_ms.p99"] = quantile(w.latMS, 0.99)
		}
		w.layer["trace.overhead_frac"] = 1 - w.rate/plain.rate
	} else {
		w, err = wl.measure(total, false)
		if err != nil {
			return nil, err
		}
	}
	bad, err := wl.check()
	if err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	out.Attempted = w.attempted
	out.Failed = w.failed + bad
	out.Correct = bad == 0 && out.Failed == 0 && w.attempted > 0
	fmt.Fprintf(os.Stderr, "%s: %d ops attempted, %d failed (%d output-check mismatches)\n",
		name, out.Attempted, out.Failed, bad)

	if o.trace {
		if err := wl.probe(w.layer); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		for _, m := range perLayerMetrics {
			v, ok := w.layer[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			out.Metrics[m.name] = metric{v, m.unit}
		}
		return out, nil
	}
	out.Metrics["setup_s"] = metric{median(setups), "s"}
	out.Metrics["ops_per_s"] = metric{w.rate, "ops/s"}
	out.Metrics["op_p50_ms"] = metric{quantile(w.latMS, 0.50), "ms"}
	out.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	// The tail goes to stderr only, and only where at least ten samples
	// lie beyond it; the traced serve run reports it as serve.req_ms.p99.
	if n := len(w.latMS); n >= 1000 {
		fmt.Fprintf(os.Stderr, "%s: scaled op latency p50 %.3f ms, p99 %.3f ms over %d ops\n",
			name, quantile(w.latMS, 0.5), quantile(w.latMS, 0.99), n)
	}
	return out, nil
}

// peakRSSMB is the getrusage maximum resident set size of this process.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile is the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func roundAll(xs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*p) / p
	}
	return out
}

// mix derives an independent 64-bit seed from a base seed and a stream
// number (splitmix64 finalizer), so passes, clients and warm-ups of one
// run never share inputs.
func mix(seed, stream uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

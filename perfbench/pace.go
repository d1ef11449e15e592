package main

// Paced measurement against a machine-speed reference.
//
// The benchmark runs on shared hosts whose speed drifts by up to 1.7x
// over minutes as neighbouring load comes and goes: far more than any
// bound a regression check could use, and slow enough that every op of
// one run sees the same host. A measured section is therefore cut into
// slices of about a second; after each slice, with the workload idle,
// the benchmark runs a fixed CPU kernel of its own on every core for
// refSlice and records its rate. Each slice's throughput and op
// latencies are scaled to the nominal reference speed, and the run
// reports medians over slices. The kernel belongs to the benchmark, not
// to the program, so a change to the program moves the scaled metrics
// exactly as it moves the raw ones; only the host's drift divides out.
// Raw values go to stderr.

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// refNominal is the reference rate (kernel calls per second summed over
// the cores) the scaled metrics are expressed at: a typical rate of the
// 2-core calibration host, so scaled values read close to raw ones.
const refNominal = 2500.0

// refSlice is how long the reference runs after each slice.
const refSlice = 150 * time.Millisecond

const refN = 96

// refKernel computes c = a*b for refN x refN row-major matrices: the
// arithmetic shape of the program's inference kernels.
func refKernel(c, a, b []float32) {
	for i := 0; i < refN; i++ {
		ci := c[i*refN : (i+1)*refN]
		for j := range ci {
			ci[j] = 0
		}
		for k := 0; k < refN; k++ {
			aik := a[i*refN+k]
			bk := b[k*refN : (k+1)*refN]
			for j, bv := range bk {
				ci[j] += aik * bv
			}
		}
	}
}

// refRate runs the kernel on procs goroutines for about d and returns
// the completed calls per second.
func refRate(d time.Duration, procs int) float64 {
	runtime.GC() // finish the slice's garbage first: no collector on the reference's cores
	var calls atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := make([]float32, refN*refN)
			b := make([]float32, refN*refN)
			c := make([]float32, refN*refN)
			for i := range a {
				a[i] = float32(i*7%13) / 13
				b[i] = float32(i*5%11) / 11
			}
			for time.Since(start) < d {
				refKernel(c, a, b)
				calls.Add(1)
			}
		}()
	}
	wg.Wait()
	return float64(calls.Load()) / time.Since(start).Seconds()
}

// slice is one paced slice: its raw throughput and op latencies, and the
// reference rate measured right after it.
type slice struct {
	rate float64
	lat  []float64
	ref  float64
}

// scaled turns a section's slices into the scaled throughput (median
// over slices) and the scaled latency of every op.
func scaled(name string, sl []slice) (float64, []float64) {
	var rates, raw, refs, lat []float64
	for _, s := range sl {
		rates = append(rates, s.rate*refNominal/s.ref)
		raw = append(raw, s.rate)
		refs = append(refs, s.ref)
		for _, ms := range s.lat {
			lat = append(lat, ms*s.ref/refNominal)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d slices, raw rate median %.4g ops/s, reference median %.0f calls/s (nominal %.0f)\n",
		name, len(sl), median(raw), median(refs), refNominal)
	return median(rates), lat
}

// closedLoop runs procs clients for one slice: each calls op back to
// back until the slice has lasted d, then stops. The slice's rate sums
// each client's completed ops over the time to its own last completion,
// so the ragged end, where some clients have already stopped, does not
// dilute it. op returns the op's latency and whether it succeeded.
func closedLoop(procs int, d time.Duration, op func(client int) (float64, bool)) (rate float64, lat []float64, attempted, failed int64) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < procs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []float64
			var bad int64
			for time.Since(start) < d {
				ms, ok := op(c)
				if ok {
					mine = append(mine, ms)
				} else {
					bad++
				}
			}
			elapsed := time.Since(start).Seconds()
			mu.Lock()
			rate += float64(len(mine)) / elapsed
			lat = append(lat, mine...)
			attempted += int64(len(mine)) + bad
			failed += bad
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return rate, lat, attempted, failed
}

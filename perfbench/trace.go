package main

// The traced run: per-layer metrics, the per-class latency table, and
// the module probes. Everything here is measured from the benchmark's
// own side — timed calls into each package's public functions, and
// before/after deltas of the instruments the program already exports
// through telemetry.Default().Read().

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/ares"
	"repro/internal/crossbar"
	"repro/internal/dnn"
	"repro/internal/envm"
	"repro/internal/sparse"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// perLayerMetrics is every metric a traced run prints, with its unit and
// which direction is better, in BENCHMARK.json order. A metric whose
// layer the workload does not exercise reads 0. For the first-dirty-layer
// shares, later layers and clean trials are better: they leave a longer
// pristine prefix of the forward pass.
var perLayerMetrics = []struct{ name, unit, better string }{
	{"campaign.busy_frac", "frac", "higher"},
	{"campaign.trials_failed", "count", "lower"},
	{"campaign.trials_retried", "count", "lower"},
	{"ares.trial_ms.fast.p50", "ms", "lower"},
	{"ares.trial_ms.dense.p50", "ms", "lower"},
	{"ares.trial_ms.24.p50", "ms", "lower"},
	{"ares.trial_ms.xbar.p50", "ms", "lower"},
	{"ares.fastpath_frac", "frac", "higher"},
	{"ares.inject_ms_per_trial", "ms", "lower"},
	{"ares.decode_ms_per_trial", "ms", "lower"},
	{"ares.eval_ms_per_trial", "ms", "lower"},
	{"ares.replica_wait_ms_per_trial", "ms", "lower"},
	{"ares.unattributed_frac", "frac", "lower"},
	{"ares.first_dirty_layer.0", "frac", "lower"},
	{"ares.first_dirty_layer.1", "frac", "higher"},
	{"ares.first_dirty_layer.2", "frac", "higher"},
	{"ares.first_dirty_layer.3", "frac", "higher"},
	{"ares.first_dirty_layer.clean", "frac", "higher"},
	{"sparse.decodes_per_trial", "count", "lower"},
	{"envm.faults_per_trial", "count", "lower"},
	{"envm.cells_per_trial", "count", "lower"},
	{"ecc.corrected_per_trial", "count", "lower"},
	{"sparse.gemm24.skipped_macs_per_trial", "count", "higher"},
	{"dnn.forward_ms.dense", "ms", "lower"},
	{"dnn.forward_ms.24", "ms", "lower"},
	{"dnn.forward_ms.xbar", "ms", "lower"},
	{"crossbar.program_ms", "ms", "lower"},
	{"crossbar.online_ms", "ms", "lower"},
	{"crossbar.remaps_per_trial", "count", "lower"},
	{"crossbar.detect_hits_per_trial", "count", "lower"},
	{"crossbar.adc_clips_per_trial", "count", "lower"},
	{"serve.req_ms.evaluate.p50", "ms", "lower"},
	{"serve.req_ms.inject.p50", "ms", "lower"},
	{"serve.req_ms.encode.p50", "ms", "lower"},
	{"serve.backend_ms.evaluate.p50", "ms", "lower"},
	{"serve.backend_ms.inject.p50", "ms", "lower"},
	{"serve.backend_ms.encode.p50", "ms", "lower"},
	{"serve.req_ms.p99", "ms", "lower"},
	{"serve.overhead_ms.p50", "ms", "lower"},
	{"serve.coalesced_frac", "frac", "higher"},
	{"serve.shed_frac", "frac", "lower"},
	{"serve.queue_depth.max", "count", "lower"},
	{"serve.p50_boundary_gap_pct", "pct", "higher"},
	{"serve.p99_boundary_gap_pct", "pct", "higher"},
	{"core.prepare_ms", "ms", "lower"},
	{"core.profile_ms", "ms", "lower"},
	{"core.search_ms", "ms", "lower"},
	{"nvsim.summarize_ms", "ms", "lower"},
	{"go.alloc_mb_per_op", "MB", "lower"},
	{"go.gc_cycles_per_op", "count", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// telSnap is a point-in-time copy of the default registry: counter
// values and histogram count/sum (timers record nanoseconds).
type telSnap struct {
	counters map[string]int64
	count    map[string]int64
	sum      map[string]int64
	mem      runtime.MemStats
}

func readTel() telSnap {
	v := telemetry.Default().Read()
	s := telSnap{counters: map[string]int64{}, count: map[string]int64{}, sum: map[string]int64{}}
	for _, c := range v.Counters {
		s.counters[c.Name] = c.Counter.Value()
	}
	for _, h := range v.Histograms {
		s.count[h.Name] = h.Histogram.Count()
		s.sum[h.Name] = h.Histogram.Sum()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// telDelta is the difference of two snapshots.
type telDelta struct{ before, after telSnap }

func (d telDelta) counter(name string) float64 {
	return float64(d.after.counters[name] - d.before.counters[name])
}

// sumMS is the summed duration a timer recorded between the snapshots.
func (d telDelta) sumMS(name string) float64 {
	return float64(d.after.sum[name]-d.before.sum[name]) / 1e6
}

// stageMetrics derives the pipeline metrics shared by every workload
// from the telemetry delta of a traced section: per-trial counts of the
// ares, sparse, envm, ecc and crossbar instruments, the ares stage split,
// and the Go runtime costs per op. spanMS is the summed wall time of the
// ops the stages belong to (0 skips ares.unattributed_frac).
func stageMetrics(layer map[string]float64, d telDelta, trials, ops int64, spanMS float64) {
	per := func(v float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	hits, misses := d.counter("ares.fastpath.hits"), d.counter("ares.fastpath.misses")
	if hits+misses > 0 {
		layer["ares.fastpath_frac"] = hits / (hits + misses)
	}
	inject, decode := d.sumMS("ares.phase.inject"), d.sumMS("ares.phase.decode")
	eval := d.sumMS("ares.phase.eval") + d.sumMS("ares.eval.direct")
	measured := d.sumMS("ares.eval.parallel") // eval plus replica wait
	layer["ares.inject_ms_per_trial"] = per(inject, trials)
	layer["ares.decode_ms_per_trial"] = per(decode, trials)
	layer["ares.eval_ms_per_trial"] = per(eval, trials)
	layer["ares.replica_wait_ms_per_trial"] = per(measured-eval, trials)
	if spanMS > 0 {
		layer["ares.unattributed_frac"] = 1 - (inject+decode+measured)/spanMS
	}
	layer["sparse.decodes_per_trial"] = per(d.counter("sparse.csr.decodes")+
		d.counter("sparse.bitmask.decodes")+d.counter("sparse.e24.decodes"), trials)
	layer["envm.faults_per_trial"] = per(d.counter("envm.inject.faults"), trials)
	layer["envm.cells_per_trial"] = per(d.counter("envm.inject.cells"), trials)
	layer["ecc.corrected_per_trial"] = per(d.counter("ecc.corrected"), trials)
	layer["sparse.gemm24.skipped_macs_per_trial"] = per(d.counter("sparse.gemm24.skipped_macs"), trials)
	layer["crossbar.remaps_per_trial"] = per(d.counter("crossbar.columns.remapped"), trials)
	layer["crossbar.detect_hits_per_trial"] = per(d.counter("crossbar.detect.hits"), trials)
	layer["crossbar.adc_clips_per_trial"] = per(d.counter("crossbar.adc.clips"), trials)
	layer["campaign.trials_failed"] = d.counter("campaign.trials.failed")
	layer["campaign.trials_retried"] = d.counter("campaign.trials.retried")
	layer["go.alloc_mb_per_op"] = per(float64(d.after.mem.TotalAlloc-d.before.mem.TotalAlloc)/1e6, ops)
	layer["go.gc_cycles_per_op"] = per(float64(d.after.mem.NumGC-d.before.mem.NumGC), ops)
}

// classLat collects op latencies by class for the per-class table.
type classLat struct {
	mu sync.Mutex
	by map[string][]float64
}

func newClassLat() *classLat { return &classLat{by: map[string][]float64{}} }

func (c *classLat) add(class string, ms float64) {
	c.mu.Lock()
	c.by[class] = append(c.by[class], ms)
	c.mu.Unlock()
}

func (c *classLat) p50(class string) float64 { return quantile(c.by[class], 0.5) }

// ordered returns the classes sorted by median latency.
func (c *classLat) ordered() []string {
	names := make([]string, 0, len(c.by))
	for k := range c.by {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return c.p50(names[i]) < c.p50(names[j]) })
	return names
}

// print writes the per-class table to stderr: share of ops, then p50,
// p90 and p99 of each class, fastest class first. The cumulative share
// column marks where one latency mode ends and the next begins.
func (c *classLat) print(title string) {
	total := 0
	for _, v := range c.by {
		total += len(v)
	}
	fmt.Fprintf(os.Stderr, "%s: per-class latency (ms), %d ops\n", title, total)
	fmt.Fprintf(os.Stderr, "  %-22s %7s %7s %7s %9s %9s %9s\n", "class", "n", "share%", "cum%", "p50", "p90", "p99")
	cum := 0
	for _, k := range c.ordered() {
		v := c.by[k]
		cum += len(v)
		fmt.Fprintf(os.Stderr, "  %-22s %7d %7.1f %7.1f %9.3f %9.3f %9.3f\n", k, len(v),
			100*float64(len(v))/float64(total), 100*float64(cum)/float64(total),
			quantile(v, 0.5), quantile(v, 0.9), quantile(v, 0.99))
	}
}

// boundaryGap is the distance, in percentile points, from percentile q
// to the nearest class boundary of the latency CDF, where the
// boundaries are the cumulative class shares in median-latency order.
// A percentile close to a boundary flips between two latency modes when
// the mix shifts slightly, which is why it must keep its distance.
func (c *classLat) boundaryGap(q float64) float64 {
	total := 0
	for _, v := range c.by {
		total += len(v)
	}
	gap := 100.0
	cum := 0
	names := c.ordered()
	for _, k := range names[:max(len(names)-1, 0)] {
		cum += len(c.by[k])
		gap = math.Min(gap, math.Abs(q-100*float64(cum)/float64(total)))
	}
	return gap
}

// weightLayers returns the evaluator model's weight layers in ordinal
// order (the clustered, pristine weights after evaluator construction).
func weightLayers(m *dnn.Model) []int {
	var out []int
	for i, l := range m.Layers {
		if l.HasWeights() {
			out = append(out, i)
		}
	}
	return out
}

// medianMS times fn reps times after one untimed call and returns the
// median in milliseconds.
func medianMS(reps int, fn func(i int)) float64 {
	fn(-1)
	ms := make([]float64, reps)
	for i := range ms {
		start := time.Now()
		fn(i)
		ms[i] = float64(time.Since(start)) / 1e6
	}
	return median(ms)
}

// probeForward times one dnn.Forwarder.Forward over the test batch with
// pristine weights on each route: dense, compute-direct 2:4 and the
// crossbar kernels of the xbar workload's mapping.
func probeForward(ev *ares.MeasuredEvaluator, xc crossbar.Config, layer map[string]float64) error {
	idx := weightLayers(ev.Model)
	time1 := func(m *dnn.Model) float64 {
		fw := dnn.NewForwarder(m)
		fw.Workers = 1
		return medianMS(5, func(int) { fw.Forward(ev.Test.Images) })
	}
	layer["dnn.forward_ms.dense"] = time1(ev.Model.CloneShared())

	m24 := ev.Model.CloneShared()
	for o, cl := range ev.Clustered() {
		enc, err := sparse.Encode24(cl.Indices, cl.Rows, cl.Cols, cl.IndexBits, cl.Centroids)
		if err != nil {
			return err
		}
		ne := sparse.Entries24(cl.Rows, cl.Cols)
		vals, pos := make([]uint8, ne), make([]uint8, ne)
		enc.CompactInto(vals, pos)
		s24 := tensor.NewSparse24(cl.Rows, cl.Cols)
		for j, v := range vals {
			s24.Val[j] = cl.Centroids[v]
		}
		copy(s24.Pos, pos)
		m24.Layers[idx[o]].Weights24 = s24
	}
	layer["dnn.forward_ms.24"] = time1(m24)

	mx := ev.Model.CloneShared()
	for _, li := range idx {
		ly, err := crossbar.Map(ev.Model.Layers[li].Weights, xc, envm.CTT)
		if err != nil {
			return err
		}
		if x := ly.PristineXbar(); x != nil {
			mx.Layers[li].WeightsXbar = x
		} else {
			mx.Layers[li].Weights = ly.Pristine()
		}
	}
	layer["dnn.forward_ms.xbar"] = time1(mx)
	return nil
}

// probeCrossbar times crossbar.Trial.Program and Trial.Online summed
// over the model's layers from crossbar.Map, under an online-tolerance
// config (DetectSigma > 0).
func probeCrossbar(ev *ares.MeasuredEvaluator, xc crossbar.Config, layer map[string]float64) error {
	var trials []*crossbar.Trial
	for _, li := range weightLayers(ev.Model) {
		ly, err := crossbar.Map(ev.Model.Layers[li].Weights, xc, envm.CTT)
		if err != nil {
			return err
		}
		t, err := ly.NewTrial(xc)
		if err != nil {
			return err
		}
		trials = append(trials, t)
	}
	src := func(i int) *stats.Source { return stats.NewSource(uint64(i + 2)) }
	layer["crossbar.program_ms"] = medianMS(5, func(i int) {
		for _, t := range trials {
			t.Program(src(i))
		}
	})
	var online []float64
	for i := -1; i < 5; i++ {
		for _, t := range trials {
			t.Program(src(i))
		}
		start := time.Now()
		for _, t := range trials {
			t.Online(src(i).Fork(4))
		}
		if i >= 0 {
			online = append(online, float64(time.Since(start))/1e6)
		}
	}
	layer["crossbar.online_ms"] = median(online)
	return nil
}

// dirtySample caps the trials a traced run re-derives for the
// first-dirty-layer distribution (the first ones of the traced section).
const dirtySample = 200

// trialRef is one sampled trial for the first-dirty-layer distribution.
type trialRef struct {
	cfg  ares.Config
	seed uint64
}

// firstDirtyLayers re-derives each sampled trial's per-layer fault maps
// from the documented seed contract — layer seeds drawn in order from
// stats.NewSource(seed).Uint64() — and records the first weight layer
// whose decoded indices differ from the pristine decode (storage
// routes, through ares.RunTrialChecked) or whose programmed crossbar
// weights differ from the pristine mapping (crossbar route). A trial
// that leaves every layer clean counts as "clean". The distribution says
// how much of the forward pass a prefix-reuse cache could skip.
func firstDirtyLayers(ev *ares.MeasuredEvaluator, sample []trialRef, layer map[string]float64) error {
	if len(sample) == 0 {
		return nil
	}
	encCache := map[string][]sparse.Encoding{}
	pristine := map[string][][]uint8{}
	xbarCache := map[string][]*crossbar.Layer{}
	counts := map[string]float64{}
	idx := weightLayers(ev.Model)
	for _, tr := range sample {
		key := tr.cfg.String()
		tsrc := stats.NewSource(tr.seed)
		first := "clean"
		if tr.cfg.Crossbar != nil {
			xc := *tr.cfg.Crossbar
			lys, ok := xbarCache[key]
			if !ok {
				for _, li := range idx {
					ly, err := crossbar.Map(ev.Model.Layers[li].Weights, xc, tr.cfg.Tech)
					if err != nil {
						return err
					}
					lys = append(lys, ly)
				}
				xbarCache[key] = lys
			}
			for i, ly := range lys {
				t, err := ly.NewTrial(xc)
				if err != nil {
					return err
				}
				lsrc := stats.NewSource(tsrc.Uint64())
				t.Program(lsrc)
				if xc.Online() {
					t.Online(lsrc.Fork(4))
				}
				if t.MismatchFrac() > 0 {
					first = fmt.Sprint(i)
					break
				}
			}
		} else {
			encs, ok := encCache[key]
			if !ok {
				for _, cl := range ev.Clustered() {
					enc, err := ares.EncodeLayer(cl, tr.cfg)
					if err != nil {
						return err
					}
					clone, err := sparse.CloneEncoding(enc)
					if err != nil {
						return err
					}
					encs = append(encs, enc)
					pristine[key] = append(pristine[key], clone.Decode())
				}
				encCache[key] = encs
			}
			for i, cl := range ev.Clustered() {
				st, _, err := ares.RunTrialChecked(context.Background(), encs[i], pristine[key][i], cl.Centroids, tr.cfg, tsrc.Uint64())
				if err != nil {
					return err
				}
				if st.Mismatch > 0 {
					first = fmt.Sprint(i)
					break
				}
			}
		}
		counts[first]++
	}
	for k, n := range counts {
		layer["ares.first_dirty_layer."+k] = n / float64(len(sample))
	}
	return nil
}

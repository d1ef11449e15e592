package telemetry

// Snapshot / JSON export.
//
// A snapshot is a point-in-time copy of every registered metric. It is
// taken metric-by-metric without stopping writers, so concurrent
// recording can skew one histogram's count against its sum by the
// in-flight observations — acceptable for monitoring output, and the
// CLIs only dump after the campaign has drained anyway.
//
// JSON layout (stable; documented in DESIGN.md §10):
//
//	{
//	  "taken_at": "2026-08-06T12:00:00Z",
//	  "counters":   {"campaign.trials.completed": 120, ...},
//	  "gauges":     {"campaign.workers": 8, ...},
//	  "histograms": {
//	    "campaign.trial.latency": {
//	      "unit": "ns", "count": 120, "sum": 9300000000,
//	      "min": 61000000, "max": 120000000, "mean": 77500000,
//	      "p50": 74000000, "p95": 101000000, "p99": 118000000
//	    }, ...
//	  }
//	}

import (
	"bytes"
	"encoding/json"
	"io"
	"time"

	"repro/internal/durable"
)

// HistogramSnapshot is the exported state of one histogram. Values are
// in the histogram's unit (nanoseconds for timers); quantiles are
// upper-bound estimates with the bucket resolution (~9%).
type HistogramSnapshot struct {
	Unit  string  `json:"unit,omitempty"`
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
}

// Snapshot is a point-in-time copy of a registry's metrics.
type Snapshot struct {
	TakenAt    time.Time                    `json:"taken_at"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// SnapshotOf renders one histogram's exported state.
func SnapshotOf(h *Histogram) HistogramSnapshot {
	s := HistogramSnapshot{
		Unit:  h.Unit(),
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	return s
}

// Snapshot copies every registered metric, listed through Read.
func (r *Registry) Snapshot() Snapshot {
	v := r.Read()
	snap := Snapshot{
		TakenAt:    time.Now().UTC(),
		Counters:   make(map[string]int64, len(v.Counters)),
		Gauges:     make(map[string]float64, len(v.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(v.Histograms)),
	}
	for _, c := range v.Counters {
		snap.Counters[c.Name] = c.Counter.Value()
	}
	for _, g := range v.Gauges {
		snap.Gauges[g.Name] = g.Gauge.Value()
	}
	for _, h := range v.Histograms {
		snap.Histograms[h.Name] = SnapshotOf(h.Histogram)
	}
	return snap
}

// WriteJSON writes an indented JSON snapshot of the registry.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteJSONFile atomically dumps the snapshot to path: the bytes land in
// a same-directory temp file that is fsynced and renamed over the target,
// so a reader (or a crash mid-dump) sees the old snapshot or the new one,
// never a prefix. Used by the CLIs' -metrics flag on exit and on SIGINT.
func (r *Registry) WriteJSONFile(path string) error {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return err
	}
	return durable.WriteFileAtomic(nil, path, buf.Bytes(), 0o644)
}

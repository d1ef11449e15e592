package serve

// Backend is the evaluation engine a Server fronts. The production
// implementation (AresBackend) drives the shared ares replica pool; the
// test battery substitutes synthetic backends with controllable latency
// to exercise admission, shedding, and drain without paying for
// inference.

import (
	"context"

	"repro/internal/ares"
)

// Backend is the per-endpoint evaluation contract. Every method must be
// safe for concurrent use and must honor context cancellation; results
// must be a pure function of the arguments (the coalescing layer serves
// one computation's result to every identical concurrent request).
type Backend interface {
	// Encode reports the storage bill of cfg over the model's layers.
	Encode(ctx context.Context, cfg ares.Config) (*EncodeResponse, error)
	// Inject runs encode -> inject -> decode (no inference).
	Inject(ctx context.Context, cfg ares.Config, seed uint64) (ares.TrialStats, error)
	// Evaluate runs one full trial and measures the error delta.
	Evaluate(ctx context.Context, cfg ares.Config, seed uint64) (float64, ares.TrialStats, error)
	// Lifetime simulates one deployment of cfg under lp.
	Lifetime(ctx context.Context, cfg ares.Config, lp ares.LifetimePolicy, seed uint64) (ares.LifetimeStats, error)
}

// AresBackend serves requests from a shared MeasuredEvaluator: one
// pristine clustered snapshot, per-format encodings cached inside the
// evaluator, copy-on-corrupt model clones from the replica pool per
// in-flight trial.
type AresBackend struct {
	Ev *ares.MeasuredEvaluator
}

// NewAresBackend wraps a measured evaluator.
func NewAresBackend(ev *ares.MeasuredEvaluator) *AresBackend { return &AresBackend{Ev: ev} }

// Encode sums the per-stream storage bill of cfg across the model's
// layers, priced over the evaluator's cached encodings (stream order is
// the encoding's stream order, stable per format).
func (b *AresBackend) Encode(ctx context.Context, cfg ares.Config) (*EncodeResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bill, err := b.Ev.Bill(cfg)
	if err != nil {
		return nil, err
	}
	resp := &EncodeResponse{Config: cfg.String(), Layers: len(bill)}
	byName := map[string]int{}
	for _, layer := range bill {
		for _, sc := range layer {
			i, ok := byName[sc.Name]
			if !ok {
				i = len(resp.Streams)
				byName[sc.Name] = i
				resp.Streams = append(resp.Streams, StreamBill{Name: sc.Name, BPC: sc.BPC, ECC: sc.ECC})
			}
			resp.Streams[i].DataBits += sc.DataBits
			resp.Streams[i].ParityBits += sc.ParityBits
			resp.Streams[i].Cells += sc.Cells
		}
	}
	for _, s := range resp.Streams {
		resp.TotalBits += s.DataBits + s.ParityBits
		resp.TotalCells += s.Cells
	}
	return resp, nil
}

// Inject runs the corruption stages of one trial.
func (b *AresBackend) Inject(ctx context.Context, cfg ares.Config, seed uint64) (ares.TrialStats, error) {
	return b.Ev.CorruptTrial(ctx, cfg, seed)
}

// Evaluate runs one full measured trial on the replica pool.
func (b *AresBackend) Evaluate(ctx context.Context, cfg ares.Config, seed uint64) (float64, ares.TrialStats, error) {
	return b.Ev.EvalTrial(ctx, cfg, seed)
}

// Lifetime simulates one deployment.
func (b *AresBackend) Lifetime(ctx context.Context, cfg ares.Config, lp ares.LifetimePolicy, seed uint64) (ares.LifetimeStats, error) {
	return b.Ev.LifetimeTrial(ctx, cfg, lp, seed)
}

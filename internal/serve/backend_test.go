package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ares"
	"repro/internal/envm"
	"repro/internal/sparse"
)

// TestAresEncodeMatchesPerLayerBill: the encode endpoint prices the
// evaluator's cached encodings, and its response must equal the bill of
// encoding every layer afresh and summing Cost per stream, for every
// format and for configs that share a format but not a bill.
func TestAresEncodeMatchesPerLayerBill(t *testing.T) {
	ev := getSoakEvaluator(t)
	b := NewAresBackend(ev)
	for _, kind := range append([]sparse.Kind{sparse.Kind24}, sparse.Kinds...) {
		for _, cfg := range []ares.Config{
			{Tech: envm.CTT, Encoding: kind, Default: ares.StreamPolicy{BPC: 3}},
			{Tech: envm.MLCRRAM, Encoding: kind, Default: ares.StreamPolicy{BPC: 2, ECC: true}, ECCBlockBits: 512,
				Overrides: map[string]ares.StreamPolicy{"values": {BPC: 1}}},
		} {
			got, err := b.Encode(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := &EncodeResponse{Config: cfg.String()}
			for _, cl := range ev.Clustered() {
				enc, err := ares.EncodeLayer(cl, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want.Layers++
				for si, sc := range ares.Cost(enc, cfg) {
					if si == len(want.Streams) {
						want.Streams = append(want.Streams, StreamBill{Name: sc.Name, BPC: sc.BPC, ECC: sc.ECC})
					}
					want.Streams[si].DataBits += sc.DataBits
					want.Streams[si].ParityBits += sc.ParityBits
					want.Streams[si].Cells += sc.Cells
					want.TotalBits += sc.TotalBits()
					want.TotalCells += sc.Cells
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s:\ngot  %+v\nwant %+v", cfg, got, want)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Encode(ctx, ares.Config{Tech: envm.CTT, Encoding: sparse.KindCSR}); err == nil {
		t.Error("encode ran on a cancelled context")
	}
}

// retentionBackend answers evaluate with a delta that depends on the
// config's retention age, so a request coalesced onto the wrong flight
// shows up in its body.
type retentionBackend struct{ *stubBackend }

func (b retentionBackend) Evaluate(ctx context.Context, cfg ares.Config, seed uint64) (float64, ares.TrialStats, error) {
	if err := b.wait(ctx); err != nil {
		return 0, ares.TrialStats{}, err
	}
	return cfg.RetentionYears / 100, ares.TrialStats{}, nil
}

// TestRetentionIsPartOfTheKey: two concurrent evaluate requests that
// differ only in retention_years must not share a computation; each gets
// its own config echo and result.
func TestRetentionIsPartOfTheKey(t *testing.T) {
	bk := retentionBackend{&stubBackend{entered: make(chan struct{}, 2), block: make(chan struct{})}}
	_, hs, reg := newTestServer(t, Options{Backend: bk, Workers: 2, QueueDepth: 4})
	bodies := []string{
		`{"tenant":"acme","seed":7,"timeout_ms":5000,"config":{"tech":"MLC-CTT","encoding":"idxsync","default":{"bpc":3}}}`,
		`{"tenant":"acme","seed":7,"timeout_ms":5000,"config":{"tech":"MLC-CTT","encoding":"idxsync","default":{"bpc":3},"retention_years":10}}`,
	}
	var wg sync.WaitGroup
	resps := make([]EvaluateResponse, len(bodies))
	codes := make([]int, len(bodies))
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := post(t, hs.URL+"/v1/evaluate", body)
			codes[i] = resp.StatusCode
			if err := json.Unmarshal(data, &resps[i]); err != nil {
				t.Error(err)
			}
		}()
		select {
		case <-bk.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never reached the backend (coalesced %d)", i, reg.Counter("serve.coalesced").Value())
		}
	}
	close(bk.block)
	wg.Wait()
	for i, r := range resps {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if want := []float64{0, 0.1}[i]; r.DeltaErr != want {
			t.Errorf("request %d: delta %v, want %v", i, r.DeltaErr, want)
		}
	}
	if resps[0].Config == resps[1].Config {
		t.Errorf("retention 0 and 10 years echo one config %q", resps[0].Config)
	}
	if got := bk.calls.Load(); got != 2 {
		t.Errorf("backend ran %d times for 2 distinct requests", got)
	}
}

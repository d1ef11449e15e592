package serve

// Wire types and the request-config decoder.
//
// A request carries a per-tenant fault-model configuration — technology,
// bits-per-cell policy per stream, encoding, protection plan — plus the
// trial seed and an optional per-request deadline. The decoder is
// strict the way envm.LoadTech is strict: unknown fields, NaN or
// negative magnitudes, unknown technologies/encodings, overrides of
// streams the encoding does not store, and infeasible policies are
// rejected with a descriptive error instead of being silently defaulted,
// and no input may panic (pinned by FuzzDecodeRequest).

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/ares"
	"repro/internal/envm"
	"repro/internal/sparse"
)

// Policy is the wire form of ares.StreamPolicy.
type Policy struct {
	BPC int  `json:"bpc"`
	ECC bool `json:"ecc,omitempty"`
}

// ConfigSpec is the wire form of a complete storage configuration.
type ConfigSpec struct {
	// Tech is the technology name (envm.ByName: "MLC-CTT", "MLC-RRAM",
	// "Opt MLC-RRAM", "SLC-RRAM", or a surveyed chip label).
	Tech string `json:"tech"`
	// Encoding selects the storage format by any name sparse.ParseKind
	// accepts (sparse.KindNames: "csr", "bitmask", "2:4", the paper
	// labels, ...).
	Encoding string `json:"encoding"`
	// Default applies to streams without an override; bpc 0 is the
	// perfect-storage sentinel.
	Default Policy `json:"default"`
	// Overrides maps stream names to specific policies; a name must be a
	// stream the encoding stores (sparse.Kind.StreamNames).
	Overrides map[string]Policy `json:"overrides,omitempty"`
	// RetentionYears evaluates the configuration at the given storage age.
	RetentionYears float64 `json:"retention_years,omitempty"`
	// ECCBlockBits overrides the SEC-DED data-block size (0 = default).
	ECCBlockBits int `json:"ecc_block_bits,omitempty"`
	// Degrade zeroes uncorrectable ECC blocks instead of cascading them.
	Degrade bool `json:"degrade,omitempty"`
}

// LifetimeSpec is the wire form of ares.LifetimePolicy.
type LifetimeSpec struct {
	Years              float64 `json:"years"`
	ScrubIntervalYears float64 `json:"scrub_interval_years,omitempty"`
	EvalEpochs         int     `json:"eval_epochs,omitempty"`
	FloorDelta         float64 `json:"floor_delta,omitempty"`
}

// Request is the body of every trial endpoint.
type Request struct {
	// Tenant attributes the request in per-tenant telemetry ("default"
	// when empty). Letters, digits, '.', '_', '-'; at most 64 bytes.
	Tenant string `json:"tenant,omitempty"`
	// Seed is the trial seed; the response is a pure function of
	// (config, seed), so replaying a request reproduces it bit-for-bit.
	Seed uint64 `json:"seed,omitempty"`
	// TimeoutMS bounds this request (0 = server default; capped at the
	// server maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Config is the fault-model configuration to evaluate.
	Config ConfigSpec `json:"config"`
	// Lifetime must be present on /v1/lifetime and absent elsewhere.
	Lifetime *LifetimeSpec `json:"lifetime,omitempty"`
}

// StatsJSON is the wire form of ares.TrialStats.
type StatsJSON struct {
	Faults         int     `json:"faults"`
	Corrected      int     `json:"corrected"`
	Detected       int     `json:"detected"`
	StructFrac     float64 `json:"struct_frac"`
	ValueNSR       float64 `json:"value_nsr"`
	Mismatch       float64 `json:"mismatch"`
	DegradedBlocks int     `json:"degraded_blocks"`
}

func statsJSON(st ares.TrialStats) StatsJSON {
	return StatsJSON{
		Faults: st.Faults, Corrected: st.Corrected, Detected: st.Detected,
		StructFrac: st.StructFrac, ValueNSR: st.ValueNSR, Mismatch: st.Mismatch,
		DegradedBlocks: st.DegradedBlocks,
	}
}

// StreamBill is the storage bill of one stream, summed over layers.
type StreamBill struct {
	Name       string `json:"name"`
	BPC        int    `json:"bpc"`
	ECC        bool   `json:"ecc"`
	DataBits   int64  `json:"data_bits"`
	ParityBits int64  `json:"parity_bits"`
	Cells      int64  `json:"cells"`
}

// EncodeResponse is the body returned by /v1/encode.
type EncodeResponse struct {
	Config     string       `json:"config"`
	Layers     int          `json:"layers"`
	Streams    []StreamBill `json:"streams"`
	TotalBits  int64        `json:"total_bits"`
	TotalCells int64        `json:"total_cells"`
}

// InjectResponse is the body returned by /v1/inject.
type InjectResponse struct {
	Config string    `json:"config"`
	Seed   uint64    `json:"seed"`
	Stats  StatsJSON `json:"stats"`
}

// EvaluateResponse is the body returned by /v1/evaluate.
type EvaluateResponse struct {
	Config   string    `json:"config"`
	Seed     uint64    `json:"seed"`
	DeltaErr float64   `json:"delta_err"`
	Stats    StatsJSON `json:"stats"`
}

// LifetimeEpochJSON is one evaluation epoch of a lifetime response.
type LifetimeEpochJSON struct {
	Epoch         int     `json:"epoch"`
	AgeYears      float64 `json:"age_years"`
	DeltaErr      float64 `json:"delta_err"`
	Faults        int     `json:"faults"`
	FloorViolated bool    `json:"floor_violated,omitempty"`
}

// LifetimeResponse is the body returned by /v1/lifetime.
type LifetimeResponse struct {
	Config         string              `json:"config"`
	Seed           uint64              `json:"seed"`
	WorstDelta     float64             `json:"worst_delta"`
	FinalDelta     float64             `json:"final_delta"`
	Rewrites       int                 `json:"rewrites"`
	FirstViolation int                 `json:"first_violation"`
	Epochs         []LifetimeEpochJSON `json:"epochs"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// validTenant enforces the label-safe tenant charset.
func validTenant(s string) bool {
	if len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// checkFinite rejects NaN and infinities the way envm.LoadTech rejects
// broken optional fields: a non-finite magnitude is a caller bug, not a
// request for a default.
func checkFinite(name string, v float64) error {
	if math.IsNaN(v) {
		return fmt.Errorf("serve: %s is NaN", name)
	}
	if math.IsInf(v, 0) {
		return fmt.Errorf("serve: %s is infinite", name)
	}
	return nil
}

// maxRequestBytes bounds a request body; a fault-model config is a few
// hundred bytes, so anything near the cap is abuse, not a workload.
const maxRequestBytes = 1 << 20

// DecodeRequest parses and fully validates one request body. wantLifetime
// states whether the endpoint requires (true) or forbids (false) the
// lifetime section. On success the returned ares.Config (and
// LifetimePolicy, when requested) is ready for the backend; no decoded
// request can make the evaluation pipeline panic.
func DecodeRequest(r io.Reader, wantLifetime bool) (*Request, ares.Config, ares.LifetimePolicy, error) {
	var req Request
	var cfg ares.Config
	var lp ares.LifetimePolicy
	dec := json.NewDecoder(io.LimitReader(r, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, cfg, lp, fmt.Errorf("serve: parsing request: %w", err)
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if !validTenant(req.Tenant) {
		return nil, cfg, lp, fmt.Errorf("serve: invalid tenant %q (letters, digits, '.', '_', '-'; max 64 bytes)", req.Tenant)
	}
	if req.TimeoutMS < 0 {
		return nil, cfg, lp, fmt.Errorf("serve: timeout_ms %d must not be negative", req.TimeoutMS)
	}

	spec := req.Config
	tech, err := envm.ByName(spec.Tech)
	if err != nil {
		return nil, cfg, lp, fmt.Errorf("serve: %w", err)
	}
	kind, err := sparse.ParseKind(spec.Encoding)
	if err != nil {
		return nil, cfg, lp, fmt.Errorf("serve: %w", err)
	}
	if err := checkFinite("retention_years", spec.RetentionYears); err != nil {
		return nil, cfg, lp, err
	}
	if spec.RetentionYears < 0 {
		return nil, cfg, lp, fmt.Errorf("serve: retention_years %g must not be negative", spec.RetentionYears)
	}
	checkPolicy := func(name string, p Policy) error {
		if p.BPC < 0 {
			return fmt.Errorf("serve: %s bpc %d must not be negative (0 = perfect storage)", name, p.BPC)
		}
		return nil
	}
	if err := checkPolicy("default", spec.Default); err != nil {
		return nil, cfg, lp, err
	}
	cfg = ares.Config{
		Tech:           tech,
		Encoding:       kind,
		Default:        ares.StreamPolicy{BPC: spec.Default.BPC, ECC: spec.Default.ECC},
		RetentionYears: spec.RetentionYears,
		ECCBlockBits:   spec.ECCBlockBits,
		Degrade:        spec.Degrade,
	}
	if len(spec.Overrides) > 0 {
		cfg.Overrides = make(map[string]ares.StreamPolicy, len(spec.Overrides))
		for name, p := range spec.Overrides {
			if err := checkPolicy("override "+name, p); err != nil {
				return nil, cfg, lp, err
			}
			cfg.Overrides[name] = ares.StreamPolicy{BPC: p.BPC, ECC: p.ECC}
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, cfg, lp, err
	}

	if wantLifetime {
		if req.Lifetime == nil {
			return nil, cfg, lp, fmt.Errorf("serve: lifetime endpoint requires a lifetime section")
		}
		ls := *req.Lifetime
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"lifetime.years", ls.Years},
			{"lifetime.scrub_interval_years", ls.ScrubIntervalYears},
			{"lifetime.floor_delta", ls.FloorDelta},
		} {
			if err := checkFinite(f.name, f.v); err != nil {
				return nil, cfg, lp, err
			}
			if f.v < 0 {
				return nil, cfg, lp, fmt.Errorf("serve: %s %g must not be negative", f.name, f.v)
			}
		}
		lp = ares.LifetimePolicy{
			Years:              ls.Years,
			ScrubIntervalYears: ls.ScrubIntervalYears,
			EvalEpochs:         ls.EvalEpochs,
			FloorDelta:         ls.FloorDelta,
		}
		if err := lp.Validate(); err != nil {
			return nil, cfg, lp, err
		}
	} else if req.Lifetime != nil {
		return nil, cfg, lp, fmt.Errorf("serve: lifetime section is only valid on the lifetime endpoint")
	}
	return &req, cfg, lp, nil
}

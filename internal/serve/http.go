package serve

// The HTTP surface:
//
//	POST /v1/encode    storage bill of a config (streams, bits, cells)
//	POST /v1/inject    encode -> inject -> decode corruption statistics
//	POST /v1/evaluate  one full trial: measured error delta + stats
//	POST /v1/lifetime  one simulated deployment (epochs, scrubs, floor)
//	GET  /metrics      Prometheus text-format scrape of the registry
//	GET  /healthz      200 while serving, 503 while draining
//
// Status mapping: 400 undecodable/invalid request, 405 wrong method,
// 429 + Retry-After shed by the full queue, 503 + Retry-After draining,
// 504 deadline exceeded (including client disconnect), 500 backend
// failure.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/ares"
	"repro/internal/stats"
)

// endpoint names (also the telemetry label values).
const (
	epEncode   = "encode"
	epInject   = "inject"
	epEvaluate = "evaluate"
	epLifetime = "lifetime"
)

// Handler returns the server's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/encode", s.trialHandler(epEncode))
	mux.HandleFunc("/v1/inject", s.trialHandler(epInject))
	mux.HandleFunc("/v1/evaluate", s.trialHandler(epEvaluate))
	mux.HandleFunc("/v1/lifetime", s.trialHandler(epLifetime))
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Scrape errors past the header are client disconnects; nothing to do.
	_ = s.opt.Registry.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// trialHandler builds the handler for one trial endpoint.
func (s *Server) trialHandler(ep string) http.HandlerFunc {
	reqs, latency := s.met.endpoint(ep)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer latency.Since(start)
		if r.Method != http.MethodPost {
			s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s requires POST", r.URL.Path))
			return
		}
		req, cfg, lp, err := DecodeRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes), ep == epLifetime)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		reqs.Inc()
		s.met.tenant(req.Tenant).Inc()

		timeout := s.opt.DefaultTimeout
		if req.TimeoutMS > 0 {
			timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		}
		if timeout > s.opt.MaxTimeout {
			timeout = s.opt.MaxTimeout
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()

		key, run := s.plan(ep, req, cfg, lp)
		val, err := s.submit(ctx, key, run)
		if err != nil {
			s.writeSubmitError(w, req.Seed, err)
			return
		}
		s.writeJSON(w, http.StatusOK, val)
	}
}

// plan builds the coalescing key and backend closure for one request.
// The key spans everything the result depends on — endpoint, the full
// config identity (cfg.String is the stable cache-key form), seed, and
// the lifetime policy — so two requests share a computation only when
// their answers are guaranteed identical.
func (s *Server) plan(ep string, req *Request, cfg ares.Config, lp ares.LifetimePolicy) (string, func(context.Context) (any, error)) {
	key := fmt.Sprintf("%s|%s|%d", ep, cfg.String(), req.Seed)
	switch ep {
	case epEncode:
		return key, func(ctx context.Context) (any, error) {
			return s.opt.Backend.Encode(ctx, cfg)
		}
	case epInject:
		return key, func(ctx context.Context) (any, error) {
			st, err := s.opt.Backend.Inject(ctx, cfg, req.Seed)
			if err != nil {
				return nil, err
			}
			return &InjectResponse{Config: cfg.String(), Seed: req.Seed, Stats: statsJSON(st)}, nil
		}
	case epEvaluate:
		return key, func(ctx context.Context) (any, error) {
			delta, st, err := s.opt.Backend.Evaluate(ctx, cfg, req.Seed)
			if err != nil {
				return nil, err
			}
			return &EvaluateResponse{Config: cfg.String(), Seed: req.Seed, DeltaErr: delta, Stats: statsJSON(st)}, nil
		}
	case epLifetime:
		key = fmt.Sprintf("%s|%gy|%gs|%de|%gf", key, lp.Years, lp.ScrubIntervalYears, lp.EvalEpochs, lp.FloorDelta)
		return key, func(ctx context.Context) (any, error) {
			ls, err := s.opt.Backend.Lifetime(ctx, cfg, lp, req.Seed)
			if err != nil {
				return nil, err
			}
			resp := &LifetimeResponse{
				Config: cfg.String(), Seed: req.Seed,
				WorstDelta: ls.WorstDelta, FinalDelta: ls.FinalDelta,
				Rewrites: ls.Rewrites, FirstViolation: ls.FirstViolation,
			}
			for _, e := range ls.Epochs {
				resp.Epochs = append(resp.Epochs, LifetimeEpochJSON{
					Epoch: e.Epoch, AgeYears: e.AgeYears, DeltaErr: e.DeltaErr,
					Faults: e.Stats.Faults, FloorViolated: e.FloorViolated,
				})
			}
			return resp, nil
		}
	}
	panic("serve: unknown endpoint " + ep) // static endpoint table; unreachable
}

// writeSubmitError maps admission-layer errors onto status codes. The
// request seed decorrelates the Retry-After hints of shed requests.
func (s *Server) writeSubmitError(w http.ResponseWriter, seed uint64, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", retryAfterSeconds(retryAfter, seed))
		s.writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", retryAfterSeconds(retryAfter, seed))
		s.writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.writeError(w, http.StatusGatewayTimeout, err)
	default:
		s.writeError(w, http.StatusInternalServerError, err)
	}
}

// retryAfterSeconds renders a Retry-After header value, jittered ±25%
// deterministically from the request seed. A campaign fleet's clients
// all hit a full queue within the same tick; an identical hint would
// march them back in lockstep and shed them again — jitter spreads the
// retry wave. Derived from the seed (not a PRNG) so a replayed request
// observes the same hint.
//
// The header has whole-second granularity, so the jittered value is
// rounded stochastically: floor, plus one with probability equal to
// the fraction (coin also seed-derived, so still deterministic).
// Nearest-integer rounding would collapse the whole ±25% envelope of
// the default 1s base back onto "1" — every factor in [0.75, 1.25)
// rounds to 1 — and quietly reinstate the lockstep wave; the
// stochastic round preserves the mean and splits clients across
// adjacent whole seconds at any base. Floor 1s: 0 invites an
// immediate retry storm.
func retryAfterSeconds(d time.Duration, seed uint64) string {
	src := stats.NewSource(seed).Fork(0x72657472_79616674) // "retr yaft"
	jittered := (0.75 + 0.5*src.Float64()) * d.Seconds()
	secs := int(jittered)
	if jittered-float64(secs) > src.Float64() {
		secs++
	}
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	s.writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	s.met.response(code).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Encode errors past the header are client disconnects.
	_ = enc.Encode(v)
}

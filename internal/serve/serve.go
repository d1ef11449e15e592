// Package serve is the long-lived batched fault-evaluation server: the
// interactive front end of the MaxNVM pipeline. Many concurrent callers
// probe what-if fault scenarios — encode, inject, evaluate, lifetime —
// against one shared pristine weight snapshot, with the measurement tail
// running on the ares replica pool (copy-on-corrupt clones per in-flight
// trial).
//
// Admission contract (DESIGN.md §15):
//
//   - Every trial request passes a bounded admission queue. A full
//     queue sheds the request immediately with 429 + Retry-After —
//     callers get backpressure, the pool never builds unbounded debt.
//   - Identical in-flight requests (same endpoint, config, seed) are
//     coalesced onto one computation: results are pure functions of
//     (config, seed), so every waiter receives the same answer and the
//     pool does the work once.
//   - Per-request deadlines propagate via context. A request whose
//     deadline expires while still queued is answered 504 without ever
//     reaching the backend; a request abandoned by every waiter is
//     cancelled mid-trial.
//   - Draining (SIGTERM) stops admission with 503, completes queued and
//     in-flight trials, and only then lets the process exit; a drain
//     deadline cancels whatever is still running, cleanly.
package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Errors the admission layer reports; the HTTP layer maps them to
// status codes.
var (
	// ErrOverloaded: the admission queue is full (429).
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrDraining: the server is shutting down (503).
	ErrDraining = errors.New("serve: draining")
)

// retryAfter is the Retry-After hint returned with 429/503, before the
// ±25% per-request-seed jitter that decorrelates fleet retries.
const retryAfter = time.Second

// Options configures a Server. A zero or negative numeric field means
// its default.
type Options struct {
	// Backend evaluates admitted requests. Required.
	Backend Backend
	// QueueDepth bounds the admission queue (default 64).
	QueueDepth int
	// Workers is the number of goroutines draining the queue into the
	// backend (default GOMAXPROCS — matching the replica-pool capacity,
	// so admitted work never queues twice).
	Workers int
	// DefaultTimeout bounds requests that carry no timeout_ms
	// (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested deadline (default 60s).
	MaxTimeout time.Duration
	// Registry receives server telemetry (default telemetry.Default()).
	Registry *telemetry.Registry
}

func (o *Options) fill() {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 10 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 60 * time.Second
	}
	if o.Registry == nil {
		o.Registry = telemetry.Default()
	}
}

// flight is one admitted computation plus everyone waiting on it.
type flight struct {
	key    string
	run    func(context.Context) (any, error)
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	val    any
	err    error
	// waiters is guarded by Server.fmu; when it reaches zero the
	// computation is cancelled (nobody is listening).
	waiters int
}

// Server is the admission/batching layer between the HTTP handlers and
// the backend.
type Server struct {
	opt Options
	met *metrics

	queue chan *flight

	fmu     sync.Mutex
	flights map[string]*flight

	inflight  sync.WaitGroup // admitted flights not yet finished
	workersWG sync.WaitGroup
	stop      chan struct{} // closed by Shutdown after the drain
	stopOnce  sync.Once
	draining  atomic.Bool

	baseCtx    context.Context // parent of every flight context
	hardCancel context.CancelFunc
}

// New builds a Server and starts its worker pool.
func New(opt Options) *Server {
	if opt.Backend == nil {
		panic("serve: Options.Backend is required")
	}
	opt.fill()
	s := &Server{
		opt:     opt,
		met:     newMetrics(opt.Registry),
		queue:   make(chan *flight, opt.QueueDepth),
		flights: map[string]*flight{},
		stop:    make(chan struct{}),
	}
	s.baseCtx, s.hardCancel = context.WithCancel(context.Background())
	s.workersWG.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go s.worker()
	}
	return s
}

// submit admits one computation (or joins an identical in-flight one)
// and waits for its result. ctx carries the caller's deadline; key
// identifies the computation for coalescing.
func (s *Server) submit(ctx context.Context, key string, run func(context.Context) (any, error)) (any, error) {
	s.fmu.Lock()
	// The draining check and the in-flight registration share the lock
	// Shutdown takes to flip draining, so no flight can be admitted
	// concurrently with (or after) the drain's WaitGroup wait.
	if s.draining.Load() {
		s.fmu.Unlock()
		s.met.draining.Inc()
		return nil, ErrDraining
	}
	if f, ok := s.flights[key]; ok {
		f.waiters++
		s.fmu.Unlock()
		s.met.coalesced.Inc()
		return s.await(ctx, f)
	}
	fctx, cancel := context.WithCancel(s.baseCtx)
	if d, ok := ctx.Deadline(); ok {
		fctx, cancel = context.WithDeadline(s.baseCtx, d)
	}
	f := &flight{
		key: key, run: run,
		ctx: fctx, cancel: cancel,
		done:    make(chan struct{}),
		waiters: 1,
	}
	s.flights[key] = f
	s.inflight.Add(1)
	s.fmu.Unlock()

	select {
	case s.queue <- f:
		s.met.queueDepth.Add(1)
	default:
		// Queue full: shed. finish() also releases any waiter that
		// attached between registration and here.
		s.met.shed.Inc()
		s.finish(f, nil, ErrOverloaded)
		return nil, ErrOverloaded
	}
	return s.await(ctx, f)
}

// await blocks until the flight finishes or the caller's context ends;
// an abandoning caller detaches so a fully abandoned flight is
// cancelled.
func (s *Server) await(ctx context.Context, f *flight) (any, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		s.fmu.Lock()
		f.waiters--
		abandoned := f.waiters == 0
		s.fmu.Unlock()
		if abandoned {
			f.cancel()
		}
		return nil, ctx.Err()
	}
}

// finish publishes the result, releases every waiter, and retires the
// flight from the coalescing map.
func (s *Server) finish(f *flight, val any, err error) {
	s.fmu.Lock()
	if s.flights[f.key] == f {
		delete(s.flights, f.key)
	}
	s.fmu.Unlock()
	f.val, f.err = val, err
	close(f.done)
	f.cancel()
	s.inflight.Done()
}

// execute runs one dequeued flight against the backend. A flight whose
// context already ended (deadline passed while queued, or every waiter
// left) is answered without touching the backend.
func (s *Server) execute(f *flight) {
	s.met.queueDepth.Add(-1)
	if err := f.ctx.Err(); err != nil {
		s.met.expired.Inc()
		s.finish(f, nil, err)
		return
	}
	s.met.inflight.Add(1)
	val, err := f.run(f.ctx)
	s.met.inflight.Add(-1)
	s.finish(f, val, err)
}

func (s *Server) worker() {
	defer s.workersWG.Done()
	for {
		select {
		case f := <-s.queue:
			s.execute(f)
		case <-s.stop:
			// Drain whatever is still queued, then exit.
			for {
				select {
				case f := <-s.queue:
					s.execute(f)
				default:
					return
				}
			}
		}
	}
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the server: admission stops immediately (ErrDraining
// / 503), queued and in-flight trials run to completion, and the worker
// pool exits. If ctx ends first, every remaining flight is cancelled
// (trials abort at their next cancellation point and waiters get the
// cancellation error) and Shutdown returns ctx.Err() after they unwind.
// Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.fmu.Lock()
	s.draining.Store(true)
	s.fmu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.hardCancel()
		<-done
	}
	s.stopOnce.Do(func() { close(s.stop) })
	s.workersWG.Wait()
	return err
}

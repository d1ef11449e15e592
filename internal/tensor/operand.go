package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// Operand is a layer weight matrix (Out x In) in one of the encodings the
// forward pass runs on: dense (*Matrix), 2:4 compute-direct (*Sparse24)
// or crossbar compute-in-memory (*Xbar). This is the shape of oneDNN's
// sparse memory descriptor: one memory object, many encodings. Each
// encoding supplies only its two serial band kernels; the row-band
// fan-out, the convolution drivers (Conv2DInto, lowered, and
// Conv2DFrameInto, on a padded input frame) and the fully-connected
// entry (MulABtInto) are shared, so every encoding gets the same shape
// checks, worker bound and image blocking. The conv kernel reads its
// source rows through an offset table (gemmSrc), so one kernel serves
// both drivers: an im2col row is a run of the patch matrix, a frame row
// a run of the padded input.
//
// Every kernel accumulates each output element's terms in a fixed order
// that does not depend on the band split or on the GEMM width, so any
// worker count produces the same bits. Nor does an output channel (a
// conv output plane, an FC output column) depend on which other rows
// the operand holds: it is computed from its own weight row alone, so
// an operand of a subset of the rows yields exactly those channels of
// the full product. The row-patched forward pass
// (dnn.Forwarder.ForwardRows) rests on this, and the frame driver on
// its twin: an output column does not depend on which other columns
// the GEMM computes.
//
// The ±0 rule: a term with a zero factor can be added or dropped
// without changing a bit, given finite weights (centroid, projected and
// crossbar effective weights all are). Every accumulator starts at +0;
// +0 plus either signed zero is +0 and a + (-a) rounds to +0, so it
// never holds -0; a zero times a finite factor is ±0, and x + (±0) == x
// for every x but -0. So every kernel skips zero weights (2:4 ones their
// unstored positions), and the FC kernel multiplies zero activations.
type Operand interface {
	// dims returns the Out x In shape. It panics on an internally
	// inconsistent operand.
	dims() (rows, cols int)
	// mulBand computes rows [lo, hi) of dst = W·b, where b is an In x n
	// source (see gemmSrc) and dst is row-major Out x n (the convolution
	// GEMM). It overwrites every element of those rows.
	mulBand(dst []float32, b gemmSrc, lo, hi int)
	// mulABtBand computes rows [lo, hi) of dst = a·Wᵀ, where a is
	// M x In and dst is M x Out (the fully-connected forward pass).
	mulABtBand(dst, a *Matrix, lo, hi int)
}

// minParallelMACs is the GEMM size below which goroutine overhead
// dominates and the kernels run as a single band.
const minParallelMACs = 65536

// workersFor resolves a worker bound (0 = GOMAXPROCS) against rows
// independent units of work: the result is in [1, max(rows, 1)].
func workersFor(workers, rows int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, rows))
}

// bandJob is work that splits into contiguous row bands; run handles
// rows [lo, hi) as band w (w < the resolved worker count, so a job may
// index per-worker scratch by it).
type bandJob interface{ run(w, lo, hi int) }

// fanOut runs j over rows [0, rows) in at most workers contiguous bands
// (0 = GOMAXPROCS), one goroutine per band, and returns when all are
// done. With one band it runs on the caller's goroutine and spawns
// nothing, so a Workers=1 forward pass stays allocation-free. The job is
// a type parameter rather than an interface value for the same reason:
// an interface (or closure) argument reaches the goroutines, so it would
// be heap-allocated on every call, serial ones included.
func fanOut[J bandJob](j J, rows, workers int) {
	workers = workersFor(workers, rows)
	if workers == 1 {
		j.run(0, 0, rows)
		return
	}
	band := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w*band < rows; w++ {
		wg.Add(1)
		// j goes in as an argument, not a capture: a capture of a large
		// job moves it to the heap at entry, serial calls included.
		go func(j J, w, lo, hi int) {
			defer wg.Done()
			j.run(w, lo, hi)
		}(j, w, w*band, min((w+1)*band, rows))
	}
	wg.Wait()
}

// gemmSrc is the In x n right-hand side of a convolution GEMM, read
// through an offset table: row r is data[off[r]:][:n]. An im2col patch
// matrix has off[r] = r·n (see lowered); the rows of a padded input
// frame overlap (see frameJob). keep is how many of the n columns the
// caller keeps as outputs, which is what the 2:4 kernel's telemetry
// counts.
type gemmSrc struct {
	data    []float32
	off     []int
	n, keep int
}

// lowered returns m as a GEMM source with its row offsets in off,
// grown as needed (pass the previous table back to reuse it).
func lowered(m *Matrix, off []int) gemmSrc {
	off = off[:0]
	for r := 0; r < m.Rows; r++ {
		off = append(off, r*m.Cols)
	}
	return gemmSrc{data: m.Data, off: off, n: m.Cols, keep: m.Cols}
}

// mulJob is dst = W·b, banded over W's rows.
type mulJob struct {
	dst []float32
	w   Operand
	b   gemmSrc
}

func (j mulJob) run(_, lo, hi int) { j.w.mulBand(j.dst, j.b, lo, hi) }

// mul computes dst = W·b over the full dst slice with at most workers
// row bands (0 = GOMAXPROCS).
func mul(dst []float32, w Operand, b gemmSrc, workers int) {
	rows, cols := w.dims()
	if rows*cols*b.n < minParallelMACs {
		workers = 1
	}
	fanOut(mulJob{dst, w, b}, rows, workers)
}

// abtJob is dst = a·Wᵀ, banded over a's rows.
type abtJob struct {
	dst, a *Matrix
	w      Operand
}

func (j abtJob) run(_, lo, hi int) { j.w.mulABtBand(j.dst, j.a, lo, hi) }

// MulABtInto computes dst = a·Wᵀ for a weight operand in any encoding:
// a is M x In, W is Out x In, dst is M x Out. It is the fully-connected
// forward pass: every encoding runs one kernel over each weight row's
// non-zero entries (mulABtGathered), with no transposed weight copy.
// Rows of a are split into at most workers bands (0 = GOMAXPROCS; 1 runs
// serially with no goroutine spawns and no allocation). On dense weights
// dst is bit-identical to MulInto(dst, a, Transpose(W)), and on 2:4
// weights to the dense kernel on the decoded matrix (±0 rule, Operand).
func MulABtInto(dst, a *Matrix, w Operand, workers int) {
	rows, cols := w.dims()
	if a.Cols != cols {
		panic(fmt.Sprintf("tensor: MulABtInto inner dims %d != %d", a.Cols, cols))
	}
	if dst.Rows != a.Rows || dst.Cols != rows {
		panic("tensor: MulABtInto dst shape mismatch")
	}
	if a.Rows*cols*rows < minParallelMACs {
		workers = 1
	}
	fanOut(abtJob{dst, a, w}, a.Rows, workers)
}

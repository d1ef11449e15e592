package tensor

import (
	"runtime"
	"sync"
	"testing"
)

// bandRecorder is an Operand that records the row bands it is handed.
type bandRecorder struct {
	rows, cols int
	mu         sync.Mutex
	bands      [][2]int
}

func (r *bandRecorder) dims() (int, int) { return r.rows, r.cols }

func (r *bandRecorder) mulBand(_ []float32, _ *Matrix, lo, hi int) { r.record(lo, hi) }

func (r *bandRecorder) mulABtBand(_, _ *Matrix, lo, hi int) { r.record(lo, hi) }

func (r *bandRecorder) record(lo, hi int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bands = append(r.bands, [2]int{lo, hi})
}

// TestMulABtIntoWorkerBound: the FC entry honours the caller's worker
// bound instead of GOMAXPROCS. GOMAXPROCS is raised to 8 so an
// unbounded fan-out would show as extra bands; for each bound the bands
// must number exactly min(workers, rows) and cover every batch row once.
func TestMulABtIntoWorkerBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	m, k, n := 64, 64, 32 // 131072 MACs: above the serial threshold
	for _, workers := range []int{1, 2, 3} {
		r := &bandRecorder{rows: n, cols: k}
		MulABtInto(NewMatrix(m, n), NewMatrix(m, k), r, workers)
		if len(r.bands) != workers {
			t.Errorf("workers=%d: %d bands %v", workers, len(r.bands), r.bands)
		}
		seen := make([]int, m)
		for _, b := range r.bands {
			for i := b[0]; i < b[1]; i++ {
				seen[i]++
			}
		}
		for i, c := range seen {
			if c != 1 {
				t.Errorf("workers=%d: row %d covered %d times (bands %v)", workers, i, c, r.bands)
				break
			}
		}
	}
}

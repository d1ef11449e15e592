package crossbar

import (
	"fmt"
	"math"

	"repro/internal/envm"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Layer is the pristine crossbar mapping of one weight matrix: each
// weight w becomes a differential pair of target conductances
// (gPos, gNeg) = (max(w,0), max(-w,0)) / wmax, optionally snapped to
// the write-DAC grid of the technology's level model. W0 holds the
// effective weights those targets read back with no noise — the mapped
// baseline all trial perturbations are measured against. Building a
// Layer is the expensive, per-design-point step; it is immutable and
// shared read-only by every trial (the ares evaluator caches one per
// Config.MapKey).
type Layer struct {
	mapCfg  Config // mapping subset, defaults applied
	mapKey  string
	out, in int
	nrt     int // row tiles over the k-dimension (in)
	nct     int // column tiles over the outputs
	wmax    float64
	gPos    []float64 // target conductances, row-major out x in
	gNeg    []float64
	W0      *tensor.Matrix
	fs      []float32 // ADC full-scale per segment [rt*out + j]
}

// Map builds the pristine crossbar mapping of w (Out x In, the dense
// layer layout) under cfg on the given technology. Only the mapping
// subset of cfg (tile geometry, BPC, ADC design) matters here; fault
// rates and the online policy bind later, per trial.
func Map(w *tensor.Matrix, cfg Config, tech envm.Tech) (*Layer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if w == nil || w.Rows < 1 || w.Cols < 1 {
		return nil, fmt.Errorf("crossbar: cannot map an empty weight matrix")
	}
	cfg = cfg.withDefaults()
	grid, err := cfg.dacGrid(tech)
	if err != nil {
		return nil, err
	}
	out, in := w.Rows, w.Cols
	l := &Layer{
		mapCfg: Config{Rows: cfg.Rows, Cols: cfg.Cols, BPC: cfg.BPC,
			ADCBits: cfg.ADCBits, ADCHeadroom: cfg.ADCHeadroom},
		mapKey: cfg.MapKey(),
		out:    out, in: in,
		nrt:  (in + cfg.Rows - 1) / cfg.Rows,
		nct:  (out + cfg.Cols - 1) / cfg.Cols,
		gPos: make([]float64, out*in),
		gNeg: make([]float64, out*in),
		W0:   tensor.NewMatrix(out, in),
	}
	// The conductance window spans the largest weight magnitude; an
	// all-zero matrix maps to an arbitrary non-zero scale so the
	// normalization below stays finite.
	for _, v := range w.Data {
		if a := math.Abs(float64(v)); a > l.wmax {
			l.wmax = a
		}
	}
	if l.wmax == 0 {
		l.wmax = 1
	}
	for i, v := range w.Data {
		a := float64(v)
		gpRaw := math.Max(a, 0) / l.wmax
		gmRaw := math.Max(-a, 0) / l.wmax
		gp, gm := gpRaw, gmRaw
		if grid != nil {
			gp = snap(gp, grid)
			gm = snap(gm, grid)
		}
		l.gPos[i] = gp
		l.gNeg[i] = gm
		// Perturbation form: the DAC snap error folds into the pristine
		// baseline as a delta on the original weight, so with BPC=0 the
		// deltas are exactly zero and W0 is bit-identical to w — no
		// roundtrip division error.
		d := (gp - gpRaw) - (gm - gmRaw)
		if d == 0 {
			l.W0.Data[i] = v
		} else {
			l.W0.Data[i] = float32(a + d*l.wmax)
		}
	}
	// ADC full scale per (row-tile, column): headroom x the L1 norm of
	// the pristine segment — the largest partial sum the column can
	// produce from activations in [0, 1].
	l.fs = make([]float32, l.nrt*out)
	for rt := 0; rt < l.nrt; rt++ {
		lo, hi := l.segRange(rt)
		for j := 0; j < out; j++ {
			sum := 0.0
			for i := lo; i < hi; i++ {
				sum += math.Abs(float64(l.W0.Data[j*in+i]))
			}
			l.fs[rt*out+j] = float32(cfg.ADCHeadroom * sum)
		}
	}
	return l, nil
}

// snap returns the grid level nearest to g (ties resolve to the lower
// level). The grid is ascending and tiny (<= 16 levels), so a linear
// scan beats a branchy binary search.
func snap(g float64, grid []float64) float64 {
	best := grid[0]
	bd := math.Abs(g - best)
	for _, lv := range grid[1:] {
		if d := math.Abs(g - lv); d < bd {
			best, bd = lv, d
		}
	}
	return best
}

// segRange returns the [lo, hi) input rows of row-tile rt.
func (l *Layer) segRange(rt int) (int, int) {
	lo := rt * l.mapCfg.Rows
	hi := lo + l.mapCfg.Rows
	if hi > l.in {
		hi = l.in
	}
	return lo, hi
}

// Pristine returns the mapped baseline weights (read-only).
func (l *Layer) Pristine() *tensor.Matrix { return l.W0 }

// Segments returns the number of column segments (row-tiles x outputs)
// — the population the stuck-column Bernoulli process draws over.
func (l *Layer) Segments() int { return l.nrt * l.out }

// Tiles returns the number of physical tiles (row-tiles x column-tiles)
// — each holds its own SpareCols spare columns.
func (l *Layer) Tiles() int { return l.nrt * l.nct }

// PristineXbar returns a kernel handle over the pristine mapping, or
// nil when the ADC is ideal (route W0 through the dense kernels
// instead). Used to measure the mapped baseline through exactly the
// arithmetic trials use.
func (l *Layer) PristineXbar() *tensor.Xbar {
	if l.mapCfg.ADCBits == 0 {
		return nil
	}
	return &tensor.Xbar{W: l.W0, TileRows: l.mapCfg.Rows, ADCBits: l.mapCfg.ADCBits,
		FS: l.fs, ClipCounter: met.adcClips}
}

// TrialStats counts what one programmed trial did to the array.
type TrialStats struct {
	// StuckCells and StuckCols are injected faults (devices and column
	// drivers respectively).
	StuckCells, StuckCols int
	// Flagged is the number of column segments the online detector
	// flagged; Remapped of those were repaired onto spares, Zeroed were
	// degraded to zero output.
	Flagged, Remapped, Zeroed int
	// ZeroedWeights is the total weight count inside zeroed segments.
	ZeroedWeights int
	// Rewrites counts spare-column programming operations — the
	// endurance spend of this trial's scrub, including write-verify
	// rejects.
	Rewrites int
}

// Trial is one programmed instance of a mapped layer: the pristine
// targets plus sampled variation and faults, materialized as an
// effective weight matrix the kernels consume. A Trial is reusable
// (Program resets it) but not concurrency-safe; ares builds a new one
// for every layer of every trial (corruptXbar calls NewTrial).
type Trial struct {
	ly         *Layer
	cfg        Config // full trial config, defaults applied
	W          *tensor.Matrix
	dPos, dNeg []float64 // per-device conductance deltas vs target
	sparesUsed []int     // per tile (rt*nct + ct)
	remapsUsed int
	Stats      TrialStats
}

// NewTrial binds a trial configuration (fault rates + online policy)
// to the mapped layer. The mapping subset of cfg must match the one
// the layer was built with.
func (l *Layer) NewTrial(cfg Config) (*Trial, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.MapKey() != l.mapKey {
		return nil, fmt.Errorf("crossbar: trial mapping %q does not match layer mapping %q", cfg.MapKey(), l.mapKey)
	}
	return &Trial{
		ly:         l,
		cfg:        cfg,
		W:          tensor.NewMatrix(l.out, l.in),
		dPos:       make([]float64, l.out*l.in),
		dNeg:       make([]float64, l.out*l.in),
		sparesUsed: make([]int, l.nrt*l.nct),
	}, nil
}

// Program writes the array: fresh per-device variation (fork 1),
// stuck-at cells (fork 2), and stuck column drivers (fork 3), then
// materializes the effective weights W = W0 + (dPos-dNeg)*wmax. With
// all three mechanisms off, W is a bit-identical copy of the pristine
// mapping. The trial's previous state is fully reset.
func (t *Trial) Program(src *stats.Source) {
	ly, cfg := t.ly, t.cfg
	t.Stats = TrialStats{}
	t.remapsUsed = 0
	clear(t.sparesUsed)
	clear(t.dPos)
	clear(t.dNeg)
	if cfg.VarSigma > 0 {
		vsrc := src.Fork(1)
		for i := range t.dPos {
			t.dPos[i] = varDelta(ly.gPos[i], cfg.VarSigma, vsrc)
			t.dNeg[i] = varDelta(ly.gNeg[i], cfg.VarSigma, vsrc)
		}
	}
	if cfg.StuckRate > 0 {
		csrc := src.Fork(2)
		forEachHit(2*len(t.dPos), cfg.StuckRate, csrc, func(d int, u *stats.Source) {
			g := 0.0
			if u.Float64() < stuckOnFrac {
				g = 1.0
			}
			w := d >> 1
			if d&1 == 0 {
				t.dPos[w] = g - ly.gPos[w]
			} else {
				t.dNeg[w] = g - ly.gNeg[w]
			}
			t.Stats.StuckCells++
		})
	}
	if cfg.StuckColRate > 0 {
		ksrc := src.Fork(3)
		forEachHit(ly.Segments(), cfg.StuckColRate, ksrc, func(s int, u *stats.Source) {
			pos := u.Float64() < 0.5
			g := 0.0
			if u.Float64() < stuckOnFrac {
				g = 1.0
			}
			rt, j := s/ly.out, s%ly.out
			lo, hi := ly.segRange(rt)
			for i := lo; i < hi; i++ {
				w := j*ly.in + i
				if pos {
					t.dPos[w] = g - ly.gPos[w]
				} else {
					t.dNeg[w] = g - ly.gNeg[w]
				}
			}
			t.Stats.StuckCols++
		})
	}
	for i, w0 := range ly.W0.Data {
		d := t.dPos[i] - t.dNeg[i]
		if d == 0 {
			t.W.Data[i] = w0
		} else {
			t.W.Data[i] = float32(float64(w0) + d*ly.wmax)
		}
	}
	met.stuckCells.Add(int64(t.Stats.StuckCells))
	met.stuckCols.Add(int64(t.Stats.StuckCols))
}

// varDelta samples one device's programming error: Gaussian around the
// target, clamped to the physical conductance window [0, 1].
func varDelta(target, sigma float64, src *stats.Source) float64 {
	g := target + src.Gaussian(0, sigma)
	if g < 0 {
		g = 0
	} else if g > 1 {
		g = 1
	}
	return g - target
}

// forEachHit visits each of n Bernoulli(p) hits via geometric
// skip-sampling (the envm.InjectArray idiom): cost scales with the
// number of hits, not n, which matters at per-column rates of 1e-4
// over millions of segments.
func forEachHit(n int, p float64, src *stats.Source, fn func(i int, src *stats.Source)) {
	if p <= 0 || n == 0 {
		return
	}
	if p >= 1 {
		for i := 0; i < n; i++ {
			fn(i, src)
		}
		return
	}
	logq := math.Log1p(-p)
	i := 0
	for {
		u := src.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		fgap := math.Log(u) / logq
		if fgap >= float64(n-i) {
			break
		}
		i += int(fgap)
		if i >= n {
			break
		}
		fn(i, src)
		i++
	}
}

// threshold returns the detection threshold for segment s: DetectSigma
// standard deviations of the expected pristine probe deviation. Each
// of the segment's rows contributes two devices with variation
// VarSigma, so the column-sum deviation has sigma
// VarSigma*wmax*sqrt(2*rows). With VarSigma zero the threshold is
// zero: any nonzero deviation flags.
func (t *Trial) threshold(s int) float64 {
	lo, hi := t.ly.segRange(s / t.ly.out)
	return t.cfg.DetectSigma * t.cfg.VarSigma * t.ly.wmax * math.Sqrt(2*float64(hi-lo))
}

// segDev returns the probe deviation of segment s: the column's analog
// response to an all-ones probe vector minus the digital reference sum
// the mapper recorded — in weight units, sum(W - W0) over the segment.
func (t *Trial) segDev(s int) float64 {
	rt, j := s/t.ly.out, s%t.ly.out
	lo, hi := t.ly.segRange(rt)
	dev := 0.0
	for i := lo; i < hi; i++ {
		w := j*t.ly.in + i
		dev += float64(t.W.Data[w]) - float64(t.ly.W0.Data[w])
	}
	return dev
}

// Detect runs the reference-column check over every segment and
// returns the flagged segment indices in ascending order.
func (t *Trial) Detect() []int {
	var flagged []int
	for s := 0; s < t.ly.Segments(); s++ {
		if math.Abs(t.segDev(s)) > t.threshold(s) {
			flagged = append(flagged, s)
		}
	}
	t.Stats.Flagged += len(flagged)
	met.detectHits.Add(int64(len(flagged)))
	return flagged
}

// Scrub repairs the flagged segments: each is rewritten from the
// pristine targets onto a spare column of its tile (fresh variation
// draws, write-verify against the detection threshold; a spare that is
// itself stuck at the ambient column-fault rate fails verify and the
// next spare is tried). Every programming operation spends one column
// write against the remap budget. A segment whose tile is out of
// spares — or whose budget is exhausted — is zeroed instead of left
// corrupt: the layer degrades gracefully rather than aborting.
func (t *Trial) Scrub(flagged []int, src *stats.Source) {
	ly, cfg := t.ly, t.cfg
	for _, s := range flagged {
		rt, j := s/ly.out, s%ly.out
		tile := rt*ly.nct + j/cfg.Cols
		repaired := false
		for {
			if cfg.MaxRemaps > 0 && t.remapsUsed >= cfg.MaxRemaps {
				break
			}
			if t.sparesUsed[tile] >= cfg.SpareCols {
				break
			}
			t.sparesUsed[tile]++
			t.remapsUsed++
			t.Stats.Rewrites++
			// The spare column carries stuck faults at the ambient
			// per-column rate; a bad spare is written, fails verify,
			// and stays consumed.
			if cfg.StuckColRate > 0 && src.Float64() < cfg.StuckColRate {
				continue
			}
			if t.programSegment(s, src) {
				repaired = true
				break
			}
		}
		if repaired {
			t.Stats.Remapped++
		} else {
			t.zeroSegment(s)
			t.Stats.Zeroed++
		}
	}
	met.colsRemapped.Add(int64(t.Stats.Remapped))
	met.colsZeroed.Add(int64(t.Stats.Zeroed))
	met.scrubRewrites.Add(int64(t.Stats.Rewrites))
}

// Online runs the full tolerance loop (detect, then scrub) and returns
// the flagged segments.
func (t *Trial) Online(src *stats.Source) []int {
	flagged := t.Detect()
	t.Scrub(flagged, src)
	return flagged
}

// programSegment rewrites segment s from the pristine targets with
// fresh variation draws and write-verifies it against the detection
// threshold.
func (t *Trial) programSegment(s int, src *stats.Source) bool {
	ly, cfg := t.ly, t.cfg
	rt, j := s/ly.out, s%ly.out
	lo, hi := ly.segRange(rt)
	for i := lo; i < hi; i++ {
		w := j*ly.in + i
		t.dPos[w] = 0
		t.dNeg[w] = 0
		if cfg.VarSigma > 0 {
			t.dPos[w] = varDelta(ly.gPos[w], cfg.VarSigma, src)
			t.dNeg[w] = varDelta(ly.gNeg[w], cfg.VarSigma, src)
		}
		d := t.dPos[w] - t.dNeg[w]
		if d == 0 {
			t.W.Data[w] = ly.W0.Data[w]
		} else {
			t.W.Data[w] = float32(float64(ly.W0.Data[w]) + d*ly.wmax)
		}
	}
	return math.Abs(t.segDev(s)) <= t.threshold(s)
}

// zeroSegment degrades segment s to zero output.
func (t *Trial) zeroSegment(s int) {
	ly := t.ly
	rt, j := s/ly.out, s%ly.out
	lo, hi := ly.segRange(rt)
	for i := lo; i < hi; i++ {
		t.W.Data[j*ly.in+i] = 0
	}
	t.Stats.ZeroedWeights += hi - lo
}

// Xbar returns the kernel handle over this trial's effective weights,
// or nil when the ADC is ideal (the caller overlays W onto the dense
// kernels instead).
func (t *Trial) Xbar() *tensor.Xbar {
	if t.cfg.ADCBits == 0 {
		return nil
	}
	return &tensor.Xbar{W: t.W, TileRows: t.cfg.Rows, ADCBits: t.cfg.ADCBits,
		FS: t.ly.fs, ClipCounter: met.adcClips}
}

// NSR returns the noise-to-signal ratio of the effective weights:
// sum((W-W0)^2) / sum(W0^2).
func (t *Trial) NSR() float64 {
	num, den := 0.0, 0.0
	for i, v := range t.W.Data {
		d := float64(v) - float64(t.ly.W0.Data[i])
		num += d * d
		w0 := float64(t.ly.W0.Data[i])
		den += w0 * w0
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// MismatchFrac returns the fraction of effective weights that differ
// from the pristine mapping.
func (t *Trial) MismatchFrac() float64 {
	n := 0
	for i, v := range t.W.Data {
		if v != t.ly.W0.Data[i] {
			n++
		}
	}
	return float64(n) / float64(len(t.W.Data))
}

package ares

import (
	"math"
	"slices"

	"repro/internal/bitstream"
	"repro/internal/ecc"
	"repro/internal/envm"
	"repro/internal/quant"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// The surrogate accuracy model. Real fault-injected inference is only
// tractable for the small models (see MeasuredEvaluator); for the
// ImageNet-scale networks the framework maps *measured corruption
// statistics* — obtained by actually decoding faulted streams — to a
// classification-error delta:
//
//	DeltaErr = headroom * (1 - exp(-s * (valueNSR + B*structFrac)))
//
// where headroom is the distance from baseline error to chance level,
// s is a per-model noise sensitivity, and B weights structural
// corruption (sparsity-pattern destruction from misalignment) more
// heavily than value drift. The constants are calibrated against (a) the
// measured TinyCNN/LeNet behaviour and (b) the paper's reported safe
// bits-per-cell decisions (see DESIGN.md section 6 and the calibration
// test TestSurrogateOrderingMatchesMeasured).

// StructWeight is the relative impact of structurally corrupted weights
// versus unit value-NSR.
const StructWeight = 4.0

// ECCDataBits is the SEC-DED codeword granularity used for protected
// streams: 512 data bits + 11 parity (~2.1% overhead on the protected
// structure). The paper quotes 24 parity bits per 4KB sector; at our
// calibrated worst-case CTT MLC3 fault rate (1e-3) such long codewords
// see multi-fault blocks too often to correct, so the implementation
// uses shorter sectors — the model-level ECC overhead in the optimal
// configurations remains ~1-2% of the protected structures and well
// under 1% of total DNN storage when (as in the paper's primary use)
// only the CSR metadata is protected.
const ECCDataBits = 512

// Sensitivity returns the per-model noise sensitivity s. Small-dataset
// models (MNIST, CIFAR) tolerate far more weight noise than ImageNet
// models, matching both the fault-injection literature and the paper's
// per-model bits-per-cell outcomes.
func Sensitivity(modelName string) float64 {
	switch modelName {
	case "LeNet5":
		return 0.3
	case "TinyCNN":
		return 0.5
	case "VGG12":
		return 1.7
	case "VGG16":
		return 4.0
	case "ResNet50":
		return 5.0
	}
	return 1.0
}

// Headroom returns the maximum possible error increase: chance-level
// error minus the baseline error.
func Headroom(classes int, baselineErr float64) float64 {
	maxErr := 1 - 1/float64(classes)
	h := maxErr - baselineErr
	if h < 0 {
		return 0
	}
	return h
}

// DeltaError maps corruption statistics to an expected classification
// error increase.
func DeltaError(sens, headroom, valueNSR, structFrac float64) float64 {
	x := sens * (valueNSR + StructWeight*structFrac)
	return headroom * (1 - math.Exp(-x))
}

// StreamDamage characterizes one stored structure's fault exposure: how
// many uncorrectable fault events to expect, and how much corruption a
// single event causes (measured by forcing faults and decoding).
type StreamDamage struct {
	Name string
	// LambdaEff is the expected number of uncorrectable fault events over
	// the full structure (after ECC, if configured).
	LambdaEff float64
	// DStruct is the structural corruption per event, as a fraction of
	// this layer's weights.
	DStruct float64
	// DNSR is the value noise-to-signal per event (this layer's signal).
	DNSR float64
	// DMismatch is the fraction of this layer's weights whose decoded
	// index differs per event — the cascade detector: a misalignment
	// event scrambles a large fraction in place.
	DMismatch float64
	// Catastrophic marks single events whose damage saturates (cascades).
	Catastrophic bool
}

// catastrophicThreshold: a single fault corrupting more than this
// fraction of a layer's weight indices is a cascade, handled as a rare
// event rather than linearly.
const catastrophicThreshold = 0.02

// Cascades reports whether a single fault event that changes dMismatch
// of a layer's decoded weight indices is a cascade. It is the one
// cascade rule: the explorer's damage probes (core.ProfileLayer, which
// the Explorer runs per layer) and the criticality ranker
// (internal/mitigate) both classify through it.
func Cascades(dMismatch float64) bool { return dMismatch >= catastrophicThreshold }

// LayerDamage is the full surrogate input for one layer.
type LayerDamage struct {
	Costs   []StreamCost
	Streams []StreamDamage
	// Weights is the layer's weight count; SignalSS its sum of squared
	// weights (for cross-layer NSR combination).
	Weights  int
	SignalSS float64
}

// DefaultDamageTrials is the number of forced-fault probes per stream
// that the explorer's damage profile and the criticality ranker take
// when not told otherwise.
const DefaultDamageTrials = 6

// LambdaEff returns the expected number of uncorrectable fault events
// for a structure of the given size. Without ECC every cell fault is an
// event. With ECC, single faults per 4KB block are corrected; the
// residual events are blocks with >= 2 faults (Poisson tail), each
// counted as one event (of roughly double damage, folded into the probe
// which forces two faults for ECC streams).
func LambdaEff(bits int64, sc envm.StoreConfig, eccOn bool) float64 {
	return LambdaEffWithBlock(bits, sc, eccOn, ECCDataBits)
}

// LambdaEffWithBlock is LambdaEff at an explicit SEC-DED data-block size
// (0 = ECCDataBits) — the mitigation planner's knob: shorter blocks trade
// parity overhead for a smaller >=2-faults-per-block residual.
func LambdaEffWithBlock(bits int64, sc envm.StoreConfig, eccOn bool, blockBits int) float64 {
	p := sc.FaultMap().TotalRate()
	cells := float64(envm.CellsFor(bits, sc.BPC))
	if !eccOn {
		return cells * p
	}
	if blockBits <= 0 {
		blockBits = ECCDataBits
	}
	code := ecc.NewBlockCode(blockBits)
	blocks := float64(code.Blocks(int(bits)))
	if blocks == 0 {
		return 0
	}
	lb := cells / blocks * p
	// P(>=2 faults in a block) for Poisson(lb).
	p2 := 1 - math.Exp(-lb) - lb*math.Exp(-lb)
	return blocks * p2
}

// Prober measures the per-event corruption of the streams of one
// encoded layer by forcing fault events and decoding. Damage is
// tech-independent: it depends only on the encoding, the bits-per-cell
// grouping, and the level mapping. A Prober holds the pristine
// reference decode, its signal sum and its decoder checkpoints, one
// working copy of the encoding, a decode buffer that holds the
// reference between trials, and each stream's SEC-DED parity from its
// first ECC probe. A trial forces its faults into the working copy and
// corrects only the ECC blocks that hold the forced cells. It then
// re-decodes into the buffer only what the changed bits can reach
// (sparse.Checkpoints.Redecode: from the last checkpoint before them to
// the first one after them where the decoder is back in its pristine
// state, or to the end of the layer for a fault that cascades),
// measures that stretch against the reference, and restores it and the
// changed bits from the pristine copies. A Prober is owned by one
// goroutine.
type Prober struct {
	pristine, work []*bitstream.Stream
	clone          sparse.Encoding
	centroids      []float32
	// ref is the pristine decode: identical to the clustered indices for
	// the lossless kinds, the projected indices for 2:4 — so a probe
	// measures fault damage only, never static projection loss.
	ref []uint8
	sig float64
	// ck holds the decoder states of ref's decode at the format's
	// checkpoints.
	ck *sparse.Checkpoints
	// dec receives each trial's re-decode; it holds ref outside it.
	dec []uint8
	// par holds each stream's pristine parity and prot its working
	// codeword over the working stream; both are nil until the stream's
	// first ECC probe.
	par  []*bitstream.Array
	prot []*ecc.Protected
}

// NewProber prepares the probes of enc, an encoding of cl.
func NewProber(enc sparse.Encoding, cl *quant.Clustered) *Prober {
	// Exploration encodes known kinds over layers produced by
	// quant.Cluster, so a clone failure is a programmer error.
	clone := sparse.Must(sparse.CloneEncoding(enc))
	ref := make([]uint8, len(cl.Indices))
	ck := sparse.DecodeCheckpoints(enc, ref)
	n := len(enc.Streams())
	return &Prober{
		pristine: enc.Streams(), work: clone.Streams(), clone: clone,
		centroids: cl.Centroids, ref: ref, sig: signalSS(ref, cl.Centroids), ck: ck, dec: slices.Clone(ref),
		par: make([]*bitstream.Array, n), prot: make([]*ecc.Protected, n),
	}
}

// Probe forces trials fault events into stream streamIdx under policy p
// and returns the mean corruption per event. For ECC-protected streams
// the event is two faults in one block (the uncorrectable case);
// otherwise a single cell fault. src supplies the event placement.
func (pb *Prober) Probe(streamIdx int, p StreamPolicy, trials int, src *stats.Source) (dStruct, dNSR, dMismatch float64) {
	cells := int(envm.CellsFor(pb.work[streamIdx].SizeBits(), p.BPC))
	if cells == 0 {
		return 0, 0, 0
	}
	code := ecc.NewBlockCode(ECCDataBits)
	for t := 0; t < trials; t++ {
		ev, ok := pb.force(streamIdx, p, cells, code, src)
		if !ok {
			continue
		}
		var st TrialStats
		from, to := pb.ck.Redecode(pb.clone, pb.dec, streamIdx, ev.lo, ev.hi)
		fillCorruption(&st, pb.ref[from:to], pb.dec[from:to], len(pb.ref), pb.centroids, pb.sig)
		dStruct += st.StructFrac
		dNSR += st.ValueNSR
		dMismatch += st.Mismatch
		copy(pb.dec[from:to], pb.ref[from:to])
		pb.undo(streamIdx, ev)
	}
	n := float64(trials)
	return dStruct / n, dNSR / n, dMismatch / n
}

// event is what one probe trial may have changed: data bits [lo, hi)
// of the probed stream and, with ECC, parity bits [pLo, pHi).
type event struct{ lo, hi, pLo, pHi int }

// force forces one fault event into the working copy of stream i, of
// cells cells under policy p, and returns the bits it may have changed.
// It places none, and reports false, when the ECC block it draws holds
// fewer than two cells.
func (pb *Prober) force(i int, p StreamPolicy, cells int, code ecc.BlockCode, src *stats.Source) (event, bool) {
	s := pb.work[i]
	if !p.ECC {
		c := src.Intn(cells)
		forceFault(s, c, p, src)
		return event{lo: c * p.BPC, hi: (c + 1) * p.BPC}, true
	}
	// Two faults in one block: pick a block, then two distinct cells
	// inside it. At BPC 3 a block's cells do not align with the ECC
	// blocks, so they can straddle two; Correct reads, and may rewrite,
	// only the blocks that hold them.
	nbits := s.Bits.Len()
	b := src.Intn(code.Blocks(nbits))
	cellsPerBlock := ECCDataBits / p.BPC
	cLo := b * cellsPerBlock
	cHi := min(cLo+cellsPerBlock, cells)
	if cHi-cLo < 2 {
		return event{}, false
	}
	c1 := cLo + src.Intn(cHi-cLo)
	c2 := cLo + src.Intn(cHi-cLo)
	for c2 == c1 {
		c2 = cLo + src.Intn(cHi-cLo)
	}
	forceFault(s, c1, p, src)
	forceFault(s, c2, p, src)
	bLo := min(c1, c2) * p.BPC / ECCDataBits
	bHi := (min(max(c1, c2)*p.BPC+p.BPC, nbits)-1)/ECCDataBits + 1
	pb.protect(i, code).CorrectBlocks(bLo, bHi)
	r := code.ParityBitsPerBlock()
	return event{bLo * ECCDataBits, bHi * ECCDataBits, bLo * r, bHi * r}, true
}

// undo restores the bits ev may have changed in the working copy of
// stream i and in its working parity from the pristine ones.
func (pb *Prober) undo(i int, ev event) {
	restore(pb.work[i].Bits, pb.pristine[i].Bits, ev.lo, ev.hi)
	if ev.pHi > ev.pLo {
		restore(pb.prot[i].Parity.Bits, pb.par[i], ev.pLo, ev.pHi)
	}
}

// protect returns the working codeword of stream i, computing the
// pristine parity on the stream's first ECC probe. Parity depends on
// the data bits only, not on the bits per cell, so every policy shares
// it.
func (pb *Prober) protect(i int, code ecc.BlockCode) *ecc.Protected {
	if pb.prot[i] == nil {
		par := code.Protect(pb.pristine[i].Bits).Parity
		pb.par[i] = par.Bits
		pb.prot[i] = &ecc.Protected{Code: code, Data: pb.work[i].Bits, Parity: par.Clone()}
	}
	return pb.prot[i]
}

// restore copies bits [lo, hi) of src into dst; bits past the end of
// the arrays are ignored.
func restore(dst, src *bitstream.Array, lo, hi int) {
	for i := lo; i < hi; i += 64 {
		n := min(64, hi-i)
		dst.SetBits(i, n, src.GetBits(i, n))
	}
}

// forceFault moves one cell's stored level to an adjacent level,
// respecting the configured level mapping (binary or Gray).
func forceFault(s *bitstream.Stream, cell int, p StreamPolicy, src *stats.Source) {
	bpc := p.BPC
	sym := s.Bits.GetBits(cell*bpc, bpc)
	level := sym
	if p.ECC {
		level = ecc.GrayInv(sym)
	}
	maxLevel := uint64(1)<<uint(bpc) - 1
	var newLevel uint64
	switch {
	case level == 0:
		newLevel = 1
	case level == maxLevel:
		newLevel = level - 1
	case src.Bernoulli(0.5):
		newLevel = level + 1
	default:
		newLevel = level - 1
	}
	out := newLevel
	if p.ECC {
		out = ecc.Gray(newLevel)
	}
	s.Bits.SetBits(cell*bpc, bpc, out)
}

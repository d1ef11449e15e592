package ares

import (
	"math"

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
// cascade rule: EvaluateLayer, the explorer's damage probes
// (internal/core) and the criticality ranker (internal/mitigate) all
// classify through it.
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

// EvalOptions tunes the damage estimator.
type EvalOptions struct {
	// DamageTrials is the number of forced-fault probes per stream
	// (default 6).
	DamageTrials int
	// Seed drives probe placement.
	Seed uint64
}

func (o EvalOptions) withDefaults() EvalOptions {
	if o.DamageTrials == 0 {
		o.DamageTrials = 6
	}
	return o
}

// EvaluateLayer measures the fault exposure of one clustered layer under
// cfg: exact storage costs, per-stream expected fault events, and
// per-event damage measured by forcing faults into cloned streams and
// decoding.
func EvaluateLayer(cl *quant.Clustered, cfg Config, opt EvalOptions) LayerDamage {
	opt = opt.withDefaults()
	// Exploration configs enumerate known kinds over layers produced by
	// quant.Cluster, so an encode failure here is a programmer error.
	enc := sparse.Must(EncodeLayer(cl, cfg))
	ld := LayerDamage{
		Costs:   Cost(enc, cfg),
		Weights: len(cl.Indices),
	}
	for _, idx := range cl.Indices {
		w := float64(cl.Centroids[idx])
		ld.SignalSS += w * w
	}
	src := stats.NewSource(opt.Seed)
	for i, s := range enc.Streams() {
		p := cfg.PolicyFor(s.Name)
		sd := StreamDamage{Name: s.Name}
		if p.BPC == 0 {
			ld.Streams = append(ld.Streams, sd)
			continue
		}
		sc := cfg.StoreConfig(p)
		sd.LambdaEff = LambdaEff(s.SizeBits(), sc, p.ECC)
		sd.DStruct, sd.DNSR, sd.DMismatch = probeDamage(enc, i, cl, p, opt.DamageTrials, src.Fork(uint64(i)+1))
		sd.Catastrophic = Cascades(sd.DMismatch)
		ld.Streams = append(ld.Streams, sd)
	}
	return ld
}

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

// ProbeStreamDamage measures the per-event corruption of one stream of an
// encoded layer under the given policy by forcing fault events and
// decoding (see probeDamage). Damage is tech-independent: it depends only
// on the encoding, the bits-per-cell grouping, and the level mapping.
func ProbeStreamDamage(enc sparse.Encoding, streamIdx int, cl *quant.Clustered, p StreamPolicy, trials int, seed uint64) (dStruct, dNSR, dMismatch float64) {
	return probeDamage(enc, streamIdx, cl, p, trials, stats.NewSource(seed))
}

// probeDamage forces fault events into clones of the encoding and
// measures the resulting corruption, averaged over trials. For
// ECC-protected streams the event is two faults in one block (the
// uncorrectable case); otherwise a single cell fault.
func probeDamage(enc sparse.Encoding, streamIdx int, cl *quant.Clustered, p StreamPolicy, trials int, src *stats.Source) (dStruct, dNSR, dMismatch float64) {
	// Reference = the pristine decode: identical to cl.Indices for the
	// lossless kinds, the projected indices for 2:4 — so the probe
	// measures fault damage only, never static projection loss.
	ref := enc.Decode()
	for t := 0; t < trials; t++ {
		clone := sparse.Must(sparse.CloneEncoding(enc))
		s := clone.Streams()[streamIdx]
		cells := int(envm.CellsFor(s.SizeBits(), p.BPC))
		if cells == 0 {
			return 0, 0, 0
		}
		if p.ECC {
			code := ecc.NewBlockCode(ECCDataBits)
			prot := code.Protect(s.Bits)
			// Two faults in one block: pick a block, then two distinct
			// cells inside it.
			blocks := code.Blocks(s.Bits.Len())
			b := src.Intn(blocks)
			cellsPerBlock := ECCDataBits / p.BPC
			lo := b * cellsPerBlock
			hi := lo + cellsPerBlock
			if hi > cells {
				hi = cells
			}
			if hi-lo < 2 {
				continue
			}
			c1 := lo + src.Intn(hi-lo)
			c2 := lo + src.Intn(hi-lo)
			for c2 == c1 {
				c2 = lo + src.Intn(hi-lo)
			}
			forceFault(s, c1, p, src)
			forceFault(s, c2, p, src)
			prot.Correct()
		} else {
			forceFault(s, src.Intn(cells), p, src)
		}
		decoded := clone.Decode()
		var st TrialStats
		fillCorruption(&st, ref, decoded, cl.Centroids)
		dStruct += st.StructFrac
		dNSR += st.ValueNSR
		dMismatch += st.Mismatch
	}
	n := float64(trials)
	return dStruct / n, dNSR / n, dMismatch / n
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

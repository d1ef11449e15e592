// Package ares re-implements the Ares application-level fault-injection
// framework the paper uses (Section 4.1), extended as the paper extends
// it: MLC eNVM inter-level faults, sparse-encoded weight structures, and
// dynamic error correction/mitigation.
//
// The pipeline per trial is exactly the paper's: encode the clustered
// weights into the chosen storage format, convert each structure into MLC
// cells under its own bits-per-cell policy, sample faults from the device
// model, apply protection (ECC correction over Gray-coded cells), decode
// back — faithfully reproducing misalignment cascades — and evaluate the
// resulting classification error.
//
// Two evaluators are provided (see DESIGN.md, "Accuracy-evaluation
// contract"): MeasuredEvaluator runs real inference on a trained model;
// Surrogate maps measured corruption statistics to an error delta for
// models whose training data is out of scope (ImageNet).
package ares

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/bitstream"
	"repro/internal/crossbar"
	"repro/internal/ecc"
	"repro/internal/envm"
	"repro/internal/quant"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// StreamPolicy selects how one stored structure is held in eNVM.
type StreamPolicy struct {
	// BPC is bits per cell for this structure. The sentinel value 0 means
	// "perfect storage": no faults are injected (used by the Figure 5
	// experiments, which isolate one structure at a time).
	BPC int
	// ECC enables Gray-coded SEC-DED protection (Section 3.3): the
	// structure's bits are covered by 4KB-block Hamming codes whose
	// parity is stored in cells with the same policy.
	ECC bool
}

// Config describes a complete storage configuration for one layer or
// model: the encoding format plus a per-structure cell policy.
type Config struct {
	Tech     envm.Tech
	Encoding sparse.Kind
	// Default applies to streams without an override.
	Default StreamPolicy
	// Overrides maps stream names to specific policies. A name must be
	// one of Encoding.StreamNames() (the format table in internal/sparse).
	Overrides map[string]StreamPolicy
	// RetentionYears evaluates the configuration after the given storage
	// age (drift-widened fault rates; 0 = freshly programmed).
	RetentionYears float64
	// ECCBlockBits overrides the SEC-DED data-block size for protected
	// streams (0 = the default ECCDataBits). Smaller blocks tolerate
	// higher raw fault rates at more parity overhead; the mitigation
	// planner (internal/mitigate) picks this per deployment.
	ECCBlockBits int
	// Degrade enables graceful decode degradation: an uncorrectable ECC
	// block is zeroed before decoding — collapsing its weights toward the
	// zero centroid and its metadata to an empty pattern — and counted in
	// TrialStats.DegradedBlocks, instead of cascading corrupt bits
	// through the decoder.
	Degrade bool
	// Crossbar, when non-nil, routes EvalTrial through the
	// compute-in-memory fault model (xbar.go): weights live as differential
	// conductance pairs on Tech's crossbar tiles and the device faults
	// perturb the analog matrix-vector product itself. The storage-path
	// knobs (Encoding, policies, ECC) are ignored on this route.
	Crossbar *crossbar.Config
}

// BlockBits resolves the SEC-DED data-block size for protected streams.
func (c Config) BlockBits() int {
	if c.ECCBlockBits > 0 {
		return c.ECCBlockBits
	}
	return ECCDataBits
}

// PolicyFor resolves the policy of a named stream.
func (c Config) PolicyFor(name string) StreamPolicy {
	if p, ok := c.Overrides[name]; ok {
		return p
	}
	return c.Default
}

// StoreConfig converts a stream policy into the envm storage config.
func (c Config) StoreConfig(p StreamPolicy) envm.StoreConfig {
	return envm.StoreConfig{Tech: c.Tech, BPC: p.BPC, Gray: p.ECC, RetentionYears: c.RetentionYears}
}

// Validate checks that every override names a stream the encoding
// stores and that every referenced policy is feasible on the tech. It
// runs per trial and per layer, so the accepting path does not allocate.
func (c Config) Validate() error {
	check := func(p StreamPolicy) error {
		if p.BPC == 0 { // perfect-storage sentinel
			return nil
		}
		return c.StoreConfig(p).Validate()
	}
	if err := check(c.Default); err != nil {
		return err
	}
	for name, p := range c.Overrides {
		if !slices.Contains(c.Encoding.StreamNames(), name) {
			return fmt.Errorf("ares: override stream %q: %v stores only %s",
				name, c.Encoding, strings.Join(c.Encoding.StreamNames(), ", "))
		}
		if err := check(p); err != nil {
			return fmt.Errorf("ares: stream %q: %w", name, err)
		}
	}
	if c.ECCBlockBits < 0 {
		return fmt.Errorf("ares: negative ECC block size %d", c.ECCBlockBits)
	}
	if c.ECCBlockBits > 0 && c.ECCBlockBits < 8 {
		return fmt.Errorf("ares: ECC block size %d below the 8-bit minimum", c.ECCBlockBits)
	}
	if c.Crossbar != nil {
		if err := c.Crossbar.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// String renders the configuration compactly and deterministically
// (overrides in sorted order), e.g.
// "CSR@MLC-CTT[default:3,colidx:3+ECC,rowcount:3+ECC]". It doubles as a
// cache key and as the campaign config ID, so it must be stable across
// processes for checkpoint resume to match.
func (c Config) String() string {
	s := fmt.Sprintf("%v@%s[default:%s", c.Encoding, c.Tech.Name, c.Default)
	names := make([]string, 0, len(c.Overrides))
	for name := range c.Overrides {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s += fmt.Sprintf(",%s:%s", name, c.Overrides[name])
	}
	// Non-default mitigation and retention settings are part of the
	// identity; the suffixes appear only when set so every pre-existing
	// cache key and checkpoint config ID is unchanged.
	if c.ECCBlockBits > 0 {
		s += fmt.Sprintf(",blk%d", c.ECCBlockBits)
	}
	if c.Degrade {
		s += ",degrade"
	}
	if c.RetentionYears != 0 {
		s += fmt.Sprintf(",ret%gy", c.RetentionYears)
	}
	if c.Crossbar != nil {
		s += ",xbar:" + c.Crossbar.String()
	}
	return s + "]"
}

// String renders a policy, e.g. "3+ECC".
func (p StreamPolicy) String() string {
	if p.ECC {
		return fmt.Sprintf("%d+ECC", p.BPC)
	}
	return fmt.Sprintf("%d", p.BPC)
}

// StreamCost is the storage bill for one structure.
type StreamCost struct {
	Name       string
	BPC        int
	ECC        bool
	DataBits   int64
	ParityBits int64
	Cells      int64
}

// TotalBits returns data + parity bits.
func (sc StreamCost) TotalBits() int64 { return sc.DataBits + sc.ParityBits }

// PriceStream is the storage bill of one structure of dataBits bits
// held under p: SEC-DED parity over blockBits-bit blocks when p.ECC is
// set, and the cells that hold data + parity at p.BPC bits per cell.
// It is the one stream bill: Cost, the design-space explorer
// (internal/core) and the protection planner (internal/mitigate) all
// price through it.
func PriceStream(name string, p StreamPolicy, dataBits int64, blockBits int) StreamCost {
	sc := StreamCost{Name: name, BPC: p.BPC, ECC: p.ECC, DataBits: dataBits}
	if p.ECC {
		sc.ParityBits = ecc.NewBlockCode(blockBits).ParityBits(int(dataBits))
	}
	sc.Cells = envm.CellsFor(sc.TotalBits(), p.BPC)
	return sc
}

// Cost computes the per-stream storage bill for an encoded layer under
// cfg: data bits, ECC parity bits, and total cells.
func Cost(enc sparse.Encoding, cfg Config) []StreamCost {
	var out []StreamCost
	for _, s := range enc.Streams() {
		out = append(out, PriceStream(s.Name, cfg.PolicyFor(s.Name), s.SizeBits(), cfg.BlockBits()))
	}
	return out
}

// TotalCells sums cells over a cost bill.
func TotalCells(costs []StreamCost) int64 {
	var total int64
	for _, c := range costs {
		total += c.Cells
	}
	return total
}

// TotalBits sums stored bits (data + parity) over a cost bill.
func TotalBits(costs []StreamCost) int64 {
	var total int64
	for _, c := range costs {
		total += c.TotalBits()
	}
	return total
}

// TrialStats summarizes the weight corruption of one injected trial.
type TrialStats struct {
	// Faults is the number of faulted cells across all streams.
	Faults int
	// Corrected and Detected count ECC events.
	Corrected, Detected int
	// StructFrac is the fraction of weight positions whose zero/non-zero
	// status flipped (structural corruption: sparsity pattern destroyed).
	StructFrac float64
	// ValueNSR is sum((w_dec-w_orig)^2) / sum(w_orig^2): weight-space
	// noise-to-signal of the decoded layer.
	ValueNSR float64
	// Mismatch is the fraction of positions with a different index.
	Mismatch float64
	// DegradedBlocks counts uncorrectable ECC blocks that were zeroed by
	// the graceful-degradation path (Config.Degrade); always 0 otherwise.
	DegradedBlocks int
}

// RunTrialChecked runs one layer's trial: it clones a pristine encoding,
// injects faults per cfg into every structure, applies ECC correction
// where configured, decodes, and compares against the original indices,
// returning the corruption statistics and the decoded index matrix. An
// invalid configuration or inconsistent inputs are reported as an error,
// so a campaign engine can fail one trial (or reject one config) without
// taking down the run, and a cancelled context aborts between streams.
func RunTrialChecked(ctx context.Context, enc sparse.Encoding, orig []uint8, centroids []float32, cfg Config, seed uint64) (TrialStats, []uint8, error) {
	if err := cfg.Validate(); err != nil {
		return TrialStats{}, nil, err
	}
	clone, err := sparse.CloneEncoding(enc)
	if err != nil {
		return TrialStats{}, nil, err
	}
	return storageStep(ctx, storedOf(clone), nil, orig, centroids, cfg, stats.NewSource(seed))
}

// stored is an encoding a trial injects into: the encoding, its
// streams (Streams order, fetched once, since Streams allocates), the
// buffer it decodes into, nil for a fresh one, and one ECC codeword
// per stream whose parity buffer a hot-path protect reuses, nil for
// fresh ones (see pristineLayer.protect).
type stored struct {
	enc     sparse.Encoding
	streams []*bitstream.Stream
	dec     []uint8
	prot    []ecc.Protected
}

// storedOf returns enc as a stored encoding that decodes into a fresh
// buffer.
func storedOf(enc sparse.Encoding) stored { return stored{enc: enc, streams: enc.Streams()} }

// storageStep is the storage trial step shared by RunTrialChecked, the
// storage corrupt step (every encoding) and the lifetime epoch loop: it
// injects faults per cfg into the caller-owned encoding w.enc (drawing
// from src), ECC-corrects, decodes, and compares the decoded indices
// against ref.
// A layer whose bits come out equal to its pristine pr decodes to ref,
// so it returns ref (read-only) and zero fractions without a decode.
func storageStep(ctx context.Context, w stored, pr *pristineLayer, ref []uint8, centroids []float32, cfg Config, src *stats.Source) (TrialStats, []uint8, error) {
	var st TrialStats
	if err := injectStreams(ctx, w, pr, cfg, src, &st); err != nil {
		return st, nil, err
	}
	if pr.clean(w.streams) {
		return st, ref, nil
	}
	decodeStart := time.Now()
	decoded := w.dec
	if decoded == nil {
		decoded = w.enc.Decode()
	} else {
		w.enc.DecodeInto(decoded)
	}
	met.decode.Since(decodeStart)
	if len(ref) != len(decoded) {
		return st, nil, fmt.Errorf("ares: %d original indices vs %d decoded", len(ref), len(decoded))
	}
	fillCorruption(&st, ref, decoded, len(ref), centroids, pr.signal(ref, centroids))
	return st, decoded, nil
}

// injectStreams injects faults per cfg into every stream of the
// caller-owned encoding w. Each ECC stream is protected over its current
// bits, injected and corrected, and with cfg.Degrade its uncorrectable
// blocks are zeroed instead of reaching the decoder. It is the one
// fault-injection loop (storageStep runs it for write-time and
// lifetime trials), and stream i draws from src.Fork(i+1), the seed
// contract, so every route draws identical fault maps for the same
// (cfg, seed). Protecting the current bits is also a scrub rewrite: the
// parity is recomputed over the residual damage. Given pr, a stream
// equal to its pristine copies the cached parity instead, and one that
// drew no fault skips Correct (a consistent codeword: zero syndromes).
func injectStreams(ctx context.Context, w stored, pr *pristineLayer, cfg Config, src *stats.Source, st *TrialStats) error {
	injectStart := time.Now()
	for i, s := range w.streams {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := cfg.PolicyFor(s.Name)
		if p.BPC == 0 {
			continue // perfect storage
		}
		sc := cfg.StoreConfig(p)
		ssrc := src.Fork(uint64(i) + 1)
		if !p.ECC {
			st.Faults += envm.InjectArray(s.Bits, sc, ssrc)
			continue
		}
		var buf *ecc.Protected
		if w.prot != nil {
			buf = &w.prot[i]
		}
		prot := pr.protect(cfg.Encoding, i, s.Bits, ecc.NewBlockCode(cfg.BlockBits()), buf)
		// Data cells draw from ssrc, parity cells from ssrc.Fork(2).
		n := envm.InjectArray(prot.Data, sc, ssrc) + envm.InjectArray(prot.Parity.Bits, sc, ssrc.Fork(2))
		st.Faults += n
		if pr != nil && n == 0 {
			continue
		}
		rep := prot.CorrectReport()
		st.Corrected += rep.Corrected
		st.Detected += rep.Detected
		met.eccCorrected.Add(int64(rep.Corrected))
		met.eccDetected.Add(int64(rep.Detected))
		if cfg.Degrade && len(rep.Bad) > 0 {
			for _, b := range rep.Bad {
				prot.ZeroBlock(b)
			}
			st.DegradedBlocks += len(rep.Bad)
			met.degradedBlocks.Add(int64(len(rep.Bad)))
		}
	}
	met.inject.Since(injectStart)
	return nil
}

// fillCorruption computes the corruption statistics between the
// original and decoded index matrices of a layer of n weights, given
// sig, the layer's signal sum. orig and decoded may be one stretch of
// the two, outside which they are equal: equal elements add nothing, so
// the statistics are those of the whole layer. For the same reason runs
// that compare equal are skipped whole; the rest accumulate in index
// order.
func fillCorruption(st *TrialStats, orig, decoded []uint8, n int, centroids []float32, sig float64) {
	if len(orig) != len(decoded) {
		panic("ares: index length mismatch")
	}
	if n == 0 {
		return
	}
	const run = 256
	var mismatch, structN int
	var deltaSS float64
	for lo := 0; lo < len(orig); lo += run {
		hi := min(lo+run, len(orig))
		if bytes.Equal(orig[lo:hi], decoded[lo:hi]) {
			continue
		}
		for i := lo; i < hi; i++ {
			o, d := orig[i], decoded[i]
			if o == d {
				continue
			}
			mismatch++
			if (o == 0) != (d == 0) {
				structN++
			}
			wo, wd := float64(centroids[o]), float64(centroids[d])
			deltaSS += (wd - wo) * (wd - wo)
		}
	}
	st.Mismatch = float64(mismatch) / float64(n)
	st.StructFrac = float64(structN) / float64(n)
	st.ValueNSR = valueNSR(deltaSS, sig)
}

// valueNSR is the value noise-to-signal ratio of a corrupted layer with
// squared weight error deltaSS and signal sum sig.
func valueNSR(deltaSS, sig float64) float64 {
	switch {
	case sig > 0:
		return deltaSS / sig
	case deltaSS > 0:
		return 1
	}
	return 0
}

// signalSS is the sum of squared weights of the reference ref, in
// index order: the denominator of a layer's value NSR. It depends only
// on the reference, so callers compute it once per layer.
func signalSS(ref []uint8, centroids []float32) float64 {
	var ss float64
	for _, o := range ref {
		w := float64(centroids[o])
		ss += w * w
	}
	return ss
}

// EncodeLayer encodes a clustered layer under the config's format. An
// unknown encoding kind (possible when the kind arrives from a CLI flag)
// is reported as an error. Kind24 is routed through Encode24 with the
// layer's centroid table so the 2-of-4 projection keeps the largest-
// magnitude weights (k-means centroids are sorted by value, not
// magnitude, so the index is not a usable proxy).
func EncodeLayer(cl *quant.Clustered, cfg Config) (sparse.Encoding, error) {
	if cfg.Encoding == sparse.Kind24 {
		return sparse.Encode24(cl.Indices, cl.Rows, cl.Cols, cl.IndexBits, cl.Centroids)
	}
	return sparse.Encode(cfg.Encoding, cl.Indices, cl.Rows, cl.Cols, cl.IndexBits)
}

package campaign

// Checkpoint format (v2, on the internal/durable WAL).
//
// The first record is a header object carrying the campaign base seed
// and format version; every following record is one completed trial
// outcome (success or terminal failure). Records are appended as trials
// finish, so a killed campaign loses at most the in-flight trials.
//
// Version 2 frames every record with a length and a CRC32C
// (durable.AppendFrame), which turns the failure modes of a killed or
// faulty writer into detectable, repairable states instead of silent
// data loss:
//
//   - a torn tail is truncated before the first new append, so resume
//     never glues a fresh record onto half-written garbage (the v1 bug:
//     O_APPEND after a torn line corrupted the next record and every
//     later load silently stopped there);
//   - a corrupt or undecodable interior line is logged with its line
//     number, counted in campaign.ckpt.torn_lines, and skipped — the
//     records after it still load because newlines resynchronize;
//   - records whose seed does not match the deterministic derivation
//     for (base seed, config, trial) are ignored as stale, so a
//     checkpoint can never silently poison a campaign with foreign
//     results.
//
// Version 1 files (plain JSONL) remain readable; new appends to them go
// out framed, producing a mixed file the loader handles per line.
//
// Float64 values round-trip exactly through encoding/json (Go emits the
// shortest representation that parses back to the same bits), which is
// what makes resumed aggregates bit-identical rather than merely close.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/durable"
)

// checkpointVersion is the format version new checkpoints are written
// with. Version 1 (unframed JSONL) is still accepted on load.
const checkpointVersion = 2

type header struct {
	Version int    `json:"version"`
	Seed    uint64 `json:"seed"`
}

type headerLine struct {
	Campaign *header `json:"campaign"`
}

// Record is one checkpointed trial outcome. Exactly one of Sample /
// ErrKind+ErrMsg is set.
type Record struct {
	Config  string  `json:"config"`
	Trial   int     `json:"trial"`
	Seed    uint64  `json:"seed"`
	Sample  *Sample `json:"sample,omitempty"`
	ErrKind string  `json:"err_kind,omitempty"`
	ErrMsg  string  `json:"err,omitempty"`
}

// checkpointWriter appends framed records to the WAL; the WAL holds the
// lock, applies the fsync policy, and serializes concurrent appends.
type checkpointWriter struct {
	w   *durable.WAL
	met *engineMetrics
}

// openCheckpoint opens (resume) or creates (fresh) the checkpoint WAL.
// Resume repairs any torn tail before the first append and reports what
// it fixed; a fresh file (or one whose content was entirely torn away)
// gets a v2 header.
func openCheckpoint(opt Options, met *engineMetrics) (*checkpointWriter, durable.RepairInfo, error) {
	wopt := durable.Options{
		FS:   opt.FS,
		Sync: opt.Fsync,
		Lock: opt.LockCheckpoint,
	}
	var rep durable.RepairInfo
	if opt.Resume {
		if _, err := statFS(opt.FS, opt.CheckpointPath); err == nil {
			w, r, err := durable.OpenAppend(opt.CheckpointPath, wopt)
			if err != nil {
				return nil, r, fmt.Errorf("campaign: open checkpoint: %w", err)
			}
			if r.ValidLines == 0 {
				// Nothing usable survived (empty file, or the header itself
				// was torn): start over with a fresh header.
				if err := writeCheckpointHeader(w, opt.Seed); err != nil {
					w.Close()
					return nil, r, err
				}
			}
			return &checkpointWriter{w: w, met: met}, r, nil
		}
	}
	w, err := durable.Create(opt.CheckpointPath, wopt)
	if err != nil {
		return nil, rep, fmt.Errorf("campaign: create checkpoint: %w", err)
	}
	if err := writeCheckpointHeader(w, opt.Seed); err != nil {
		w.Close()
		return nil, rep, err
	}
	return &checkpointWriter{w: w, met: met}, rep, nil
}

func statFS(fsys durable.FS, path string) (os.FileInfo, error) {
	if fsys == nil {
		return os.Stat(path)
	}
	return fsys.Stat(path)
}

func writeCheckpointHeader(w *durable.WAL, seed uint64) error {
	line, err := json.Marshal(headerLine{Campaign: &header{Version: checkpointVersion, Seed: seed}})
	if err != nil {
		return err
	}
	if err := w.Append(line); err != nil {
		return fmt.Errorf("campaign: write checkpoint header: %w", err)
	}
	return nil
}

// Append frames and writes one record, recording flush count and
// latency in the engine metrics.
func (cw *checkpointWriter) Append(rec *Record) error {
	start := time.Now()
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := cw.w.Append(line); err != nil {
		return err
	}
	if cw.met != nil {
		cw.met.ckptFlushes.Inc()
		cw.met.ckptLatency.Since(start)
	}
	return nil
}

// Close flushes per the fsync policy, releases the lock, and closes the
// file.
func (cw *checkpointWriter) Close() error { return cw.w.Close() }

// loadInfo describes what loadCheckpoint found beyond the records.
type loadInfo struct {
	// Records counts the usable records accepted for replay.
	Records int
	// TornLines counts interior lines skipped: corrupt v2 frames plus
	// undecodable JSON.
	TornLines int
	// TornTailBytes is the size of the unusable tail (repaired later by
	// openCheckpoint, reported here so resume can announce it).
	TornTailBytes int64
}

// loadCheckpoint reads a checkpoint file (v1, v2, or mixed) and returns
// the usable records keyed by (config, trial). A missing file is not an
// error (nothing to resume); a seed or version mismatch is, because
// silently mixing campaigns would corrupt the statistics. Interior
// corruption is logged to logw, counted, and skipped — never silently
// dropped, and never allowed past the CRC or the seed derivation check.
func loadCheckpoint(fsys durable.FS, path string, seed uint64, logw io.Writer, met *engineMetrics) (map[trialKey]*Record, *loadInfo, error) {
	sr, err := durable.Scan(fsys, path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, &loadInfo{}, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: open checkpoint: %w", err)
	}
	info := &loadInfo{TornTailBytes: sr.TornBytes()}
	warnf := func(format string, args ...any) {
		if logw != nil {
			fmt.Fprintf(logw, format+"\n", args...)
		}
	}
	for _, num := range sr.Corrupt {
		info.TornLines++
		warnf("campaign: checkpoint %s line %d: corrupt frame (CRC/length mismatch); skipping", path, num)
	}
	if len(sr.Lines) == 0 {
		// Empty file, or every line torn: treat as no checkpoint. The
		// writer will lay down a fresh header.
		if info.TornLines > 0 || info.TornTailBytes > 0 {
			warnf("campaign: checkpoint %s has no usable records; starting fresh", path)
		}
		reportTorn(met, info)
		return nil, info, nil
	}

	var hl headerLine
	if err := json.Unmarshal(sr.Lines[0].Payload, &hl); err != nil || hl.Campaign == nil {
		return nil, nil, fmt.Errorf("campaign: %s is not a campaign checkpoint (bad header)", path)
	}
	if hl.Campaign.Version != 1 && hl.Campaign.Version != checkpointVersion {
		return nil, nil, fmt.Errorf("campaign: checkpoint %s has format version %d, want 1 or %d",
			path, hl.Campaign.Version, checkpointVersion)
	}
	if hl.Campaign.Seed != seed {
		return nil, nil, fmt.Errorf("campaign: checkpoint %s was written with seed %d, campaign uses %d",
			path, hl.Campaign.Seed, seed)
	}

	out := map[trialKey]*Record{}
	for _, ln := range sr.Lines[1:] {
		if len(ln.Payload) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(ln.Payload, &rec); err != nil {
			info.TornLines++
			warnf("campaign: checkpoint %s line %d: undecodable record; skipping", path, ln.Num)
			continue
		}
		if !usableRecord(&rec, seed) {
			continue
		}
		out[trialKey{rec.Config, rec.Trial}] = &rec
	}
	info.Records = len(out)
	reportTorn(met, info)
	return out, info, nil
}

func reportTorn(met *engineMetrics, info *loadInfo) {
	if met != nil && info.TornLines > 0 {
		met.ckptTorn.Add(int64(info.TornLines))
	}
}

// usableRecord reports whether rec is a replayable outcome for a
// campaign with the given base seed: it names a config, carries an
// outcome, and its seed matches the deterministic derivation — the
// filter that keeps a checkpoint (or an externally preloaded record
// set) from poisoning a campaign with foreign results.
func usableRecord(rec *Record, seed uint64) bool {
	if rec == nil || rec.Config == "" || rec.Trial < 0 {
		return false
	}
	if rec.Sample == nil && rec.ErrKind == "" {
		return false // carries no outcome: not a replayable record
	}
	return rec.Seed == TrialSeed(seed, rec.Config, rec.Trial)
}

// CheckpointInfo summarizes one ReadCheckpoint pass.
type CheckpointInfo struct {
	// Records counts the usable records returned.
	Records int
	// TornLines counts corrupt or undecodable interior lines skipped.
	TornLines int
	// TornTailBytes is the size of the unusable tail (ReadCheckpoint
	// does not repair it; only an appending open does).
	TornTailBytes int64
}

// ReadCheckpoint loads the usable records of a checkpoint file without
// opening it for writing: the fleet coordinator reads completed shard
// WALs this way, and a fleet worker reads the WALs earlier lease epochs
// left behind. The records are validated exactly like a resume load
// (header seed and version, per-record seed derivation, CRC framing)
// and returned sorted by (config, trial). A missing file is not an
// error: it returns no records, the torn-tail of a killed writer is
// simply not read, and interior corruption is logged to logw and
// counted. A nil fsys reads the real filesystem.
func ReadCheckpoint(fsys durable.FS, path string, seed uint64, logw io.Writer) ([]*Record, CheckpointInfo, error) {
	recs, info, err := loadCheckpoint(fsys, path, seed, logw, nil)
	ci := CheckpointInfo{}
	if err != nil {
		return nil, ci, err
	}
	ci = CheckpointInfo{Records: info.Records, TornLines: info.TornLines, TornTailBytes: info.TornTailBytes}
	out := make([]*Record, 0, len(recs))
	for _, rec := range recs {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Config != out[j].Config {
			return out[i].Config < out[j].Config
		}
		return out[i].Trial < out[j].Trial
	})
	return out, ci, nil
}

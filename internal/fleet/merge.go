package fleet

// The coordinator merge: fold every record of every epoch of every
// shard, in deterministic order, into one campaign.Result.
//
// Merge is a pure read of the fleet directory — it writes nothing and
// holds nothing, so running it twice (or concurrently with a status
// probe) is idempotent by construction. Determinism: shards are visited
// in manifest order and epochs in ascending order, duplicates collapse
// to the first record seen (under the determinism contract duplicates
// are bit-identical; a mismatch is reported loudly as a contract
// violation), and campaign.Fold folds the deduplicated set strictly in
// (config input order, trial index) order while re-evaluating the
// early-stop decision on that in-order prefix. The result is therefore
// bit-identical to an uninterrupted single-process campaign, whatever
// the execution history — one process or twenty, with or without
// kill -9 and stolen shards.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/telemetry"
)

// MergeOptions tunes a merge.
type MergeOptions struct {
	// Dir is the fleet directory.
	Dir string
	// AllowPartial folds whatever records exist even when shards lack
	// done markers; the Result then reports Interrupted. Without it,
	// incomplete shards are an error.
	AllowPartial bool
	// Log receives warnings (nil = stderr).
	Log io.Writer
	// Metrics selects the telemetry registry (nil = telemetry.Default()).
	Metrics *telemetry.Registry
}

// MergeReport is the merge outcome.
type MergeReport struct {
	// Result is the folded campaign result (bit-identical to a
	// single-process run when every shard is done).
	Result *campaign.Result
	// Shards counts manifest shards; Done counts those with done markers.
	Shards, Done int
	// Records counts distinct (config, trial) records folded; Duplicates
	// counts records discarded as already seen (re-executed trials of
	// stolen shards, zombie appends).
	Records, Duplicates int
	// Mismatches counts duplicate records whose bytes differed from the
	// first copy — determinism-contract violations. Always 0 unless the
	// trial function is impure.
	Mismatches int
	// TornLines counts corrupt WAL lines skipped across all epochs.
	TornLines int
	// Quarantined lists shards withdrawn from the campaign by a
	// supervisor's crash-budget verdict. Their salvaged records are
	// folded, the missing coverage flags Result.Degraded, and — unlike
	// merely incomplete shards — they never make the merge fail: a
	// quarantined shard is never going to finish, and refusing to merge
	// around it would turn bounded coverage loss back into an outage.
	Quarantined []string
}

// Merge loads every shard WAL of the fleet directory and folds the
// union into one campaign result.
func Merge(opt MergeOptions) (*MergeReport, error) {
	fsys := durable.OS()
	logw := orStderr(opt.Log)
	m, err := LoadManifest(fsys, opt.Dir)
	if err != nil {
		return nil, err
	}
	rep := &MergeReport{Shards: len(m.Shards)}
	type key struct {
		config string
		trial  int
	}
	seen := map[key]*campaign.Record{}
	var all []*campaign.Record
	var incomplete []string
	for _, sh := range m.Shards {
		done, err := exists(fsys, donePath(opt.Dir, sh.ID))
		if err != nil {
			return nil, err
		}
		quarantined := false
		if !done {
			if quarantined, err = IsQuarantined(fsys, opt.Dir, sh.ID); err != nil {
				return nil, err
			}
		}
		switch {
		case done:
			rep.Done++
		case quarantined:
			rep.Quarantined = append(rep.Quarantined, sh.ID)
			fmt.Fprintf(logw, "fleet: merge: shard %s (%s) is quarantined; folding salvaged records as degraded coverage\n",
				sh.ID, sh.Config)
		default:
			incomplete = append(incomplete, sh.ID)
			if !opt.AllowPartial {
				continue // keep collecting the full list for the error
			}
		}
		top, err := topEpoch(fsys, opt.Dir, sh.ID)
		if err != nil {
			return nil, err
		}
		for e := 1; e <= top; e++ {
			recs, info, err := campaign.ReadCheckpoint(fsys, walPath(opt.Dir, sh.ID, e), m.Seed, logw)
			if err != nil {
				return nil, fmt.Errorf("fleet: merge shard %s epoch %d: %w", sh.ID, e, err)
			}
			rep.TornLines += info.TornLines
			for _, r := range recs {
				if r.Config != sh.Config || r.Trial < sh.Lo || r.Trial >= sh.Hi {
					fmt.Fprintf(logw, "fleet: merge: shard %s epoch %d holds out-of-shard record (%s, %d); ignoring\n",
						sh.ID, e, r.Config, r.Trial)
					continue
				}
				k := key{r.Config, r.Trial}
				if prev, ok := seen[k]; ok {
					rep.Duplicates++
					if !sameRecord(prev, r) {
						rep.Mismatches++
						fmt.Fprintf(logw, "fleet: merge: DETERMINISM VIOLATION: (%s, trial %d) differs between epochs — "+
							"the trial function is not a pure function of its seed\n", r.Config, r.Trial)
					}
					continue
				}
				seen[k] = r
				all = append(all, r)
			}
		}
	}
	if len(incomplete) > 0 && !opt.AllowPartial {
		return nil, fmt.Errorf("fleet: %d of %d shard(s) incomplete (%v); finish them or merge with AllowPartial",
			len(incomplete), len(m.Shards), incomplete)
	}
	res, err := campaign.Fold(m.Configs, campaign.Options{
		Seed:       m.Seed,
		MaxTrials:  m.MaxTrials,
		MinTrials:  m.MinTrials,
		CITarget:   m.CITarget,
		Confidence: m.Confidence,
		Metrics:    opt.Metrics,
	}, all)
	if err != nil {
		return nil, err
	}
	if len(rep.Quarantined) > 0 {
		// Reuse campaign.Result.Degraded: the aggregates that exist are
		// correct, but coverage is knowingly short of the plan — the same
		// semantics as a campaign that lost its checkpoint mid-run.
		res.Degraded = true
	}
	reg := opt.Metrics
	if reg == nil {
		reg = telemetry.Default()
	}
	reg.Gauge("fleet.shards.quarantined").Set(float64(len(rep.Quarantined)))
	rep.Result = res
	rep.Records = len(all)
	return rep, nil
}

// sameRecord compares two records bit-for-bit through their canonical
// JSON (float64s round-trip exactly).
func sameRecord(a, b *campaign.Record) bool {
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}

// Shard lease states reported by Status.
const (
	StateFree        = "free"        // never claimed
	StateLeased      = "leased"      // live holder
	StateStale       = "stale"       // holder dead or lease expired; stealable
	StateComplete    = "complete"    // done marker written
	StateQuarantined = "quarantined" // withdrawn by a crash-budget verdict
)

// ShardStatus is one shard's live state.
type ShardStatus struct {
	Shard Shard
	// State is one of the State* constants.
	State string
	// Epoch is the highest claimed epoch (0 when free).
	Epoch int
	// Owner is the holder recorded in the newest lease heartbeat.
	Owner string
	// HBAge is the age of the newest heartbeat (0 when free/unknown).
	HBAge time.Duration
	// HolderDead reports that the newest epoch's flock probe succeeded:
	// the kernel released the holder's lock with its process, so
	// whatever wrote the newest heartbeat no longer exists. Only
	// meaningful for leased/stale states (always false when free,
	// complete, or quarantined).
	HolderDead bool
	// Records counts distinct trials already on disk across all epochs.
	Records int
	// Quarantine carries the quarantine record when State is
	// StateQuarantined (nil otherwise).
	Quarantine *QuarantineRecord
}

// Status reports the live state of every shard, without writing
// anything.
func Status(fsys durable.FS, dir string) (*Manifest, []ShardStatus, error) {
	fsys = orFS(fsys)
	m, err := LoadManifest(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	now := time.Now()
	var out []ShardStatus
	for _, sh := range m.Shards {
		st := ShardStatus{Shard: sh, State: StateFree}
		top, err := topEpoch(fsys, dir, sh.ID)
		if err != nil {
			return nil, nil, err
		}
		st.Epoch = top
		if top > 0 {
			lp := leasePath(dir, sh.ID, top)
			if rec, ok := readLease(fsys, lp); ok {
				st.Owner = rec.Owner
				st.HBAge = now.Sub(time.UnixMilli(rec.HBMillis))
			}
			if stolen, _ := stealable(fsys, lp, 10*time.Second, time.Second, now); stolen {
				st.State = StateStale
			} else {
				st.State = StateLeased
			}
		}
		if done, err := exists(fsys, donePath(dir, sh.ID)); err != nil {
			return nil, nil, err
		} else if done {
			st.State = StateComplete
		} else if q, err := ReadQuarantine(fsys, dir, sh.ID); err != nil {
			return nil, nil, err
		} else if q != nil {
			st.State = StateQuarantined
			st.Quarantine = q
		}
		if top > 0 && (st.State == StateLeased || st.State == StateStale) {
			st.HolderDead = probeDead(fsys, leasePath(dir, sh.ID, top))
		}
		seen := map[int]bool{}
		for e := 1; e <= top; e++ {
			recs, _, err := campaign.ReadCheckpoint(fsys, walPath(dir, sh.ID, e), m.Seed, io.Discard)
			if err != nil {
				continue
			}
			for _, r := range recs {
				if r.Config == sh.Config && r.Trial >= sh.Lo && r.Trial < sh.Hi {
					seen[r.Trial] = true
				}
			}
		}
		st.Records = len(seen)
		out = append(out, st)
	}
	return m, out, nil
}

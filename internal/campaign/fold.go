package campaign

// Fold-only campaigns: building the aggregates of a campaign purely
// from records somebody else executed. This is the merge half of the
// fleet protocol (internal/fleet): workers execute disjoint trial
// spans into per-shard WALs, and the coordinator folds the union of
// their records here.
//
// Determinism argument: fold order is fixed — configs in input order,
// trials in index order within each config — and every record is a pure
// function of its derived seed. The adaptive early-stopping decision is
// re-evaluated on exactly the in-order prefix the live engine would
// have seen, so it stops at the same trial index. Therefore Fold over
// the records of any execution schedule (one process, twenty workers,
// workers killed and their shards re-executed by thieves) produces
// aggregates bit-identical to an uninterrupted single-process run.

// Fold builds a campaign Result from externally loaded records without
// executing any trials. Options supplies the statistical contract
// (Seed, MaxTrials, MinTrials, CITarget, Confidence); execution options
// (Workers, CheckpointPath, TrialTimeout, ...) are ignored. Records failing
// the seed derivation, referencing unknown configs, or carrying no
// outcome are dropped, exactly as a resume load drops them. Duplicate
// (config, trial) records collapse to one (under the determinism
// contract duplicates are bit-identical). The Result's Reused counts
// the records folded; Interrupted reports coverage holes — a trial
// index below MaxTrials (or below the early-stop point) that no record
// covers.
func Fold(configs []string, opt Options, recs []*Record) (*Result, error) {
	opt.CheckpointPath = ""
	opt.Resume = false
	opt.Preload = recs
	c, err := newCampaign(configs, nil, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	res.Reused = c.replayPreloaded()
	c.finalize(res)
	return res, nil
}

package main

// The -fleet N single-machine mode: run the campaign as an n-worker
// fleet (plan + lease-claimed shards + deterministic merge) inside one
// process. The merged result is bit-identical to the plain
// single-campaign path, and because every completed trial is already in
// a shard WAL, a killed run resumes from the same directory without
// losing work.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
)

// fleetRun executes the campaign described by (configs, run, opt) as an
// n-worker single-machine fleet rooted at dir. An empty dir uses a
// fresh temporary directory, removed on success and kept (with its
// path printed) on failure so the run can be resumed or inspected. A
// dir that already holds a manifest is resumed: completed shards are
// skipped, partial shards are stolen and finished.
func fleetRun(ctx context.Context, n int, dir string, configs []string, run campaign.RunFunc, opt campaign.Options) (*campaign.Result, error) {
	keep := dir != ""
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "fleet-")
		if err != nil {
			return nil, err
		}
	}
	_, err := fleet.LoadManifest(nil, dir)
	switch {
	case err == nil:
		fmt.Fprintf(os.Stderr, "fleet: resuming existing fleet directory %s\n", dir)
	case errors.Is(err, fs.ErrNotExist):
		// Aim for ~2 shards per worker per config so work stealing has
		// granularity to act on, without degenerating into per-trial
		// shards whose lease traffic would swamp the trial work.
		shardSize := (opt.MaxTrials + 2*n - 1) / (2 * n)
		if shardSize < 1 {
			shardSize = 1
		}
		_, err = fleet.Plan(fleet.PlanSpec{
			Dir:        dir,
			Seed:       opt.Seed,
			Configs:    configs,
			MaxTrials:  opt.MaxTrials,
			MinTrials:  opt.MinTrials,
			CITarget:   opt.CITarget,
			Confidence: opt.Confidence,
			ShardSize:  shardSize,
			SpecKind:   "inline", // RunFunc lives in this process; not campaignd-workable
		})
		if err != nil {
			return nil, err
		}
	default:
		return nil, err
	}

	rep, _, err := fleet.RunLocal(ctx, n, fleet.WorkerOptions{
		Dir: dir,
		Run: run,
		// Workers share one process and one page cache, so heartbeats are
		// cheap; a tight TTL means an interrupted run's leases expire
		// fast and a resume steals them without a 10s default stare-down.
		TTL:           2 * time.Second,
		Workers:       opt.Workers,
		Fsync:         opt.Fsync,
		Log:           os.Stderr,
		Progress:      opt.Progress,
		ProgressEvery: opt.ProgressEvery,
		Metrics:       opt.Metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet: directory %s kept for resume/inspection\n", dir)
		return nil, err
	}
	if !keep {
		os.RemoveAll(dir)
	}
	return rep.Result, nil
}

// Command campaignd coordinates fault-injection campaign fleets: it
// cuts a campaign into shards (plan), runs lease-claiming workers
// against the shared fleet directory (work), spawns and self-heals a
// whole worker fleet in one command (supervise), folds completed shard
// WALs into one deterministic result (merge), and reports live shard
// state (status; exit 2 when the fleet is stalled or degraded). Usage
// errors exit 2 as well, like the flag package's own; runtime errors
// exit 1.
//
// A fleet directory is the only coordination channel: any number of
// worker processes — on one machine or many sharing a filesystem —
// point at it and claim shards through flock-held lease files. Workers
// may be killed (even kill -9) at any moment; their shards are stolen
// and the merged result is bit-identical to an uninterrupted
// single-process run.
//
// Usage:
//
//	campaignd plan -dir fleet/ -spec synth -configs a,b -trials 64 -shard-size 8
//	campaignd supervise -dir fleet/ -n 4      # or: campaignd work -dir fleet/ &
//	campaignd status -dir fleet/
//	campaignd merge -dir fleet/
//
// supervise re-executes this binary as its workers: crashed workers
// restart under jittered exponential backoff, and a shard whose
// claimants die repeatedly without progress (a poison trial) is
// quarantined so the rest of the fleet converges with explicitly
// degraded coverage instead of crash-looping.
//
// The -spec kind is recorded in the manifest so every worker rebuilds
// the identical trial function:
//
//	synth  deterministic synthetic trials (protocol testing, benchmarks)
//	fig5   the paper's Figure 5 measured-model campaign (each worker
//	       trains the same model from the recorded seed)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/cliutil"
	"repro/internal/durable"
	"repro/internal/exper"
	"repro/internal/fleet"
	"repro/internal/stats"
	"repro/internal/supervise"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("campaignd: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "plan":
		cmdPlan(os.Args[2:])
	case "work":
		cmdWork(os.Args[2:])
	case "supervise":
		cmdSupervise(os.Args[2:])
	case "merge":
		cmdMerge(os.Args[2:])
	case "status":
		cmdStatus(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "campaignd: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: campaignd <subcommand> [flags]

  plan       cut a campaign into shards and write the fleet manifest
  work       run one worker: claim shards, execute trials, steal dead leases
  supervise  spawn and babysit N workers: restart crashes with backoff,
             quarantine poison shards that exhaust their crash budget
  merge      fold completed shard WALs into the campaign result
  status     report per-shard lease state and record counts
             (exit 2 when any shard is stalled or quarantined)

Exit status 2 also reports a usage error (a bad or missing flag, an
unknown subcommand), as the flag package does; 1 is a runtime error.
Run "campaignd <subcommand> -h" for flags.`)
}

// specKinds the work subcommand can rebuild a RunFunc for.
const (
	specSynth = "synth"
	specFig5  = "fig5"
)

// synthSpec parameterizes the synthetic trial function.
type synthSpec struct {
	// SleepMS stretches every trial so lease/steal behavior is
	// observable at human timescales.
	SleepMS int `json:"sleep_ms,omitempty"`
}

// fig5Spec records how to rebuild the Figure 5 environment.
type fig5Spec struct {
	EnvSeed uint64 `json:"env_seed"`
}

func cmdPlan(args []string) {
	fs := flag.NewFlagSet("campaignd plan", flag.ExitOnError)
	dir := fs.String("dir", "", "fleet directory (created; must not already hold a manifest)")
	spec := fs.String("spec", specSynth, "trial function: synth|fig5")
	name := fs.String("name", "", "campaign label for status output")
	seed := fs.Uint64("seed", 1, "campaign seed (fig5: the experiment-environment seed)")
	configs := fs.String("configs", "", "comma-separated config IDs (synth only; fig5 configs are fixed)")
	trials := fs.Int("trials", 12, "maximum trials per config")
	minTrials := fs.Int("min-trials", 0, "trials before early stopping may trigger")
	ciTarget := fs.Float64("ci-target", 0, "early-stop 95% CI half-width target, applied at merge time (0 = full budget)")
	confidence := fs.Float64("confidence", 0, "CI confidence level (0 = engine default 0.95)")
	shardSize := fs.Int("shard-size", 0, "maximum trials per shard (0 = one shard per config)")
	sleepMS := fs.Int("sleep-ms", 0, "synth: per-trial sleep in milliseconds")
	fs.Parse(args)
	if *dir == "" {
		cliutil.Usagef("campaignd: plan: -dir is required")
	}

	ps := fleet.PlanSpec{
		Dir: *dir, Name: *name,
		MaxTrials: *trials, MinTrials: *minTrials,
		CITarget: *ciTarget, Confidence: *confidence,
		ShardSize: *shardSize,
		SpecKind:  *spec,
	}
	switch *spec {
	case specSynth:
		ps.Seed = *seed
		ps.Configs = splitList(*configs)
		if len(ps.Configs) == 0 {
			cliutil.Usagef("campaignd: plan: -spec synth requires -configs")
		}
		raw, err := json.Marshal(synthSpec{SleepMS: *sleepMS})
		if err != nil {
			log.Fatal(err)
		}
		ps.Spec = raw
	case specFig5:
		// Mirror Env.Fig5: the campaign seed is the environment seed
		// plus the fixed offset, so fleet results are bit-identical to
		// "maxnvm fig5" at the same -seed.
		ps.Seed = *seed + 99
		ps.Configs = exper.Fig5Configs()
		raw, err := json.Marshal(fig5Spec{EnvSeed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		ps.Spec = raw
	default:
		cliutil.Usagef("campaignd: plan: unknown -spec %q (want synth or fig5)", *spec)
	}

	m, err := fleet.Plan(ps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planned %d shard(s) over %d config(s), %d trials each, into %s\n",
		len(m.Shards), len(m.Configs), m.MaxTrials, *dir)
	fmt.Printf("start workers with: campaignd work -dir %s\n", *dir)
}

// runFuncFor rebuilds the trial function the manifest records. Every
// worker process must end up with the same pure function, or the
// bit-identical merge contract breaks — which the merge then reports as
// determinism violations.
func runFuncFor(m *fleet.Manifest) (campaign.RunFunc, error) {
	switch m.SpecKind {
	case specSynth:
		var s synthSpec
		if len(m.Spec) > 0 {
			if err := json.Unmarshal(m.Spec, &s); err != nil {
				return nil, fmt.Errorf("campaignd: synth spec: %w", err)
			}
		}
		sleep := time.Duration(s.SleepMS) * time.Millisecond
		return func(ctx context.Context, t campaign.Trial) (campaign.Sample, error) {
			if sleep > 0 {
				select {
				case <-time.After(sleep):
				case <-ctx.Done():
					return campaign.Sample{}, ctx.Err()
				}
			}
			src := stats.NewSource(t.Seed)
			return campaign.Sample{
				Value: src.Gaussian(1, 0.25),
				Extra: map[string]float64{"faults": float64(src.Intn(100))},
			}, nil
		}, nil
	case specFig5:
		var s fig5Spec
		if err := json.Unmarshal(m.Spec, &s); err != nil {
			return nil, fmt.Errorf("campaignd: fig5 spec: %w", err)
		}
		fmt.Fprintln(os.Stderr, "campaignd: training measured model (TinyCNN on synthetic data)...")
		return exper.NewEnv(s.EnvSeed).Fig5Runner()
	default:
		return nil, fmt.Errorf("campaignd: manifest spec kind %q is not workable by this binary", m.SpecKind)
	}
}

func cmdWork(args []string) {
	fs := flag.NewFlagSet("campaignd work", flag.ExitOnError)
	dir := fs.String("dir", "", "fleet directory")
	name := fs.String("name", "", "worker name in leases and logs (default w<pid>)")
	ttl := fs.Duration("ttl", 10*time.Second, "lease staleness bound this worker declares")
	heartbeat := fs.Duration("heartbeat", 0, "lease renewal interval (0 = ttl/4)")
	poll := fs.Duration("poll", 0, "idle re-scan interval (0 = default 200ms)")
	wait := fs.Bool("wait", true, "keep polling (and stealing expired leases) until every shard is done")
	workers := fs.Int("workers", 0, "concurrent trial workers per shard (0 = auto)")
	progress := fs.Duration("progress", 5*time.Second, "progress-line interval on stderr (0 = silent)")
	poison := fs.String("poison", "", "chaos: comma-separated config:trial cells that kill this process (testing only)")
	tel := cliutil.AddFlagsTo(fs)
	tel.AddFsyncTo(fs)
	fs.Parse(args)
	if *dir == "" {
		cliutil.Usagef("campaignd: work: -dir is required")
	}
	cells, err := chaos.ParseCells(*poison)
	if err != nil {
		cliutil.Usagef("campaignd: work: %v", err)
	}
	tel.Start()
	defer tel.Dump()

	m, err := fleet.LoadManifest(nil, *dir)
	if err != nil {
		log.Fatal(err)
	}
	run, err := runFuncFor(m)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := cliutil.NotifyContext(context.Background())
	defer stop()

	opt := fleet.WorkerOptions{
		Dir: *dir, Name: *name, Run: run,
		TTL: *ttl, Heartbeat: *heartbeat, Poll: *poll,
		WaitForAll: *wait, Workers: *workers,
		Fsync: tel.SyncPolicy(), Log: os.Stderr,
		OnTrialStart: chaos.PoisonHook(cells, nil),
	}
	if *progress > 0 {
		opt.Progress = os.Stderr
		opt.ProgressEvery = *progress
	}
	rep, err := fleet.Work(ctx, opt)
	if rep != nil {
		fmt.Printf("worker done: %d shard(s) completed (%d stolen), %d trials executed, %d inherited, %d lost to fencing\n",
			len(rep.Completed), rep.Stolen, rep.Trials, rep.Reused, rep.Fenced)
	}
	if err != nil {
		if ctx.Err() != nil {
			fmt.Println("interrupted: completed trials are in the shard WALs; restart to continue")
			tel.Dump() // os.Exit skips the deferred dump
			os.Exit(130)
		}
		log.Fatal(err)
	}
}

// cmdSupervise runs the self-healing layer: it re-executes this binary
// as "campaignd work" subprocesses and supervises them — crash
// restarts with jittered backoff, poison-shard quarantine, stall
// reaping — until the fleet converges.
func cmdSupervise(args []string) {
	fs := flag.NewFlagSet("campaignd supervise", flag.ExitOnError)
	dir := fs.String("dir", "", "fleet directory")
	n := fs.Int("n", 2, "worker subprocesses to supervise")
	crashBudget := fs.Int("crash-budget", 3, "consecutive no-progress claimant deaths before a shard is quarantined")
	backoff := fs.Duration("backoff", 150*time.Millisecond, "restart backoff base (full jitter, doubles per crash)")
	backoffMax := fs.Duration("backoff-max", 5*time.Second, "restart backoff ceiling")
	maxRestarts := fs.Int("max-restarts", 100, "total restart budget before the supervisor gives up")
	stallTTL := fs.Duration("stall-ttl", 30*time.Second, "kill a worker whose newest lease heartbeat is older than this (0 = never)")
	poll := fs.Duration("poll", 500*time.Millisecond, "fleet-status polling interval")
	seed := fs.Uint64("seed", 1, "backoff jitter seed")
	ttl := fs.Duration("ttl", 10*time.Second, "lease TTL each worker declares")
	heartbeat := fs.Duration("heartbeat", 0, "worker lease renewal interval (0 = ttl/4)")
	workers := fs.Int("workers", 0, "concurrent trial workers per shard in each subprocess (0 = auto)")
	poison := fs.String("poison", "", "chaos: config:trial cells passed to every worker (testing only)")
	tel := cliutil.AddFlagsTo(fs)
	tel.AddFsyncTo(fs)
	fs.Parse(args)
	if *dir == "" {
		cliutil.Usagef("campaignd: supervise: -dir is required")
	}
	self, err := os.Executable()
	if err != nil {
		log.Fatalf("supervise: cannot find own binary: %v", err)
	}
	tel.Start()
	defer tel.Dump()

	ctx, stop := cliutil.NotifyContext(context.Background())
	defer stop()

	rep, err := supervise.Run(ctx, supervise.Options{
		Dir: *dir, Workers: *n,
		Command: func(slot int, name string) (*exec.Cmd, error) {
			argv := workerArgv(*dir, name, *ttl, *heartbeat, *workers, *poison, tel.SyncPolicy())
			cmd := exec.Command(self, argv...)
			cmd.Stdout = os.Stderr // worker chatter must not pollute the report
			cmd.Stderr = os.Stderr
			return cmd, nil
		},
		CrashBudget: *crashBudget,
		BackoffBase: *backoff, BackoffMax: *backoffMax,
		MaxRestarts: *maxRestarts, StallTTL: *stallTTL,
		Poll: *poll, Seed: *seed,
		Log: os.Stderr,
	})
	fmt.Printf("supervise done: %d restart(s), %d clean exit(s), %d stall kill(s), converged=%v\n",
		rep.Restarts, rep.CleanExits, rep.StallKills, rep.Converged)
	if len(rep.Quarantined) > 0 {
		fmt.Printf("WARNING: quarantined shard(s) %v — merged coverage will be degraded; "+
			"fix the trial function, remove the .quarantined marker(s), and re-run to recover\n",
			rep.Quarantined)
	}
	if err != nil {
		if ctx.Err() != nil {
			fmt.Println("interrupted: leases released by worker death are stealable; re-run supervise to continue")
			tel.Dump()
			os.Exit(130)
		}
		log.Fatal(err)
	}
	if rep.Converged {
		fmt.Printf("fleet converged: campaignd merge -dir %s\n", *dir)
	}
}

// workerArgv is the "campaignd work" command line supervise starts the
// worker called name with: its own lease settings, poison cells and
// -fsync policy passed through.
func workerArgv(dir, name string, ttl, heartbeat time.Duration, workers int, poison string, fsync durable.SyncPolicy) []string {
	argv := []string{"work",
		"-dir", dir, "-name", name,
		"-ttl", ttl.String(), "-heartbeat", heartbeat.String(),
		"-workers", fmt.Sprint(workers), "-wait",
		"-fsync", fsync.String(),
	}
	if poison != "" {
		argv = append(argv, "-poison", poison)
	}
	return argv
}

func cmdMerge(args []string) {
	fs := flag.NewFlagSet("campaignd merge", flag.ExitOnError)
	dir := fs.String("dir", "", "fleet directory")
	partial := fs.Bool("partial", false, "fold whatever records exist even if shards are incomplete")
	asJSON := fs.Bool("json", false, "emit the merged result as JSON on stdout")
	fs.Parse(args)
	if *dir == "" {
		cliutil.Usagef("campaignd: merge: -dir is required")
	}

	rep, err := fleet.Merge(fleet.MergeOptions{Dir: *dir, AllowPartial: *partial, Log: os.Stderr})
	if err != nil {
		if !*partial && strings.Contains(err.Error(), "incomplete") {
			log.Fatalf("%v (use -partial to fold what exists)", err)
		}
		log.Fatal(err)
	}
	res := rep.Result
	if *asJSON {
		out := struct {
			Result *campaign.Result   `json:"result"`
			Fleet  *fleet.MergeReport `json:"fleet"`
		}{res, rep}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("merged %d record(s) from %d/%d shard(s) (%d duplicate(s) collapsed, %d torn line(s) skipped)\n",
		rep.Records, rep.Done, rep.Shards, rep.Duplicates, rep.TornLines)
	if rep.Mismatches > 0 {
		fmt.Printf("WARNING: %d determinism violation(s) — the trial function differed between workers\n", rep.Mismatches)
	}
	for _, cr := range res.Configs {
		note := ""
		if cr.EarlyStopped {
			note = "  [early stop]"
		}
		if len(cr.Errors) > 0 {
			note += fmt.Sprintf("  [%d failed trials]", len(cr.Errors))
		}
		fmt.Printf("  %-30s mean %.6g ±%.4g  worst %.6g  n=%d%s\n",
			cr.Config, cr.Mean, cr.CIHalf, cr.Max, cr.N, note)
	}
	if len(rep.Quarantined) > 0 {
		fmt.Printf("DEGRADED: quarantined shard(s) %v excluded by supervisor verdict; "+
			"coverage stays short unless the markers are lifted and the fleet re-run\n", rep.Quarantined)
	}
	if res.Interrupted && len(rep.Quarantined) == 0 {
		fmt.Println("partial merge: coverage holes remain; finish the fleet and merge again")
	}
}

func cmdStatus(args []string) {
	fs := flag.NewFlagSet("campaignd status", flag.ExitOnError)
	dir := fs.String("dir", "", "fleet directory")
	fs.Parse(args)
	if *dir == "" {
		cliutil.Usagef("campaignd: status: -dir is required")
	}

	m, shards, err := fleet.Status(nil, *dir)
	if err != nil {
		log.Fatal(err)
	}
	label := m.Name
	if label == "" {
		label = m.SpecKind
	}
	complete, stale, quarantined := 0, 0, 0
	fmt.Printf("%-7s %-24s %-11s %-9s %-6s %-12s %-8s %s\n",
		"shard", "config", "trials", "state", "epoch", "owner", "hb age", "records")
	for _, st := range shards {
		switch st.State {
		case fleet.StateComplete:
			complete++
		case fleet.StateStale:
			stale++
		case fleet.StateQuarantined:
			quarantined++
		}
		hb := "-"
		if st.Owner != "" {
			hb = st.HBAge.Round(time.Millisecond).String()
		}
		owner := st.Owner
		if owner == "" {
			owner = "-"
		}
		fmt.Printf("%-7s %-24s %4d-%-6d %-9s %-6d %-12s %-8s %d/%d\n",
			st.Shard.ID, st.Shard.Config, st.Shard.Lo, st.Shard.Hi,
			st.State, st.Epoch, owner, hb, st.Records, st.Shard.Hi-st.Shard.Lo)
		if st.Quarantine != nil && st.Quarantine.Reason != "" {
			fmt.Printf("        ^ quarantined: %s\n", st.Quarantine.Reason)
		}
	}
	fmt.Printf("campaign %q: %d/%d shard(s) complete\n", label, complete, len(shards))
	if complete == len(shards) {
		fmt.Printf("all shards done: campaignd merge -dir %s\n", *dir)
	}
	// Degraded or wedged fleets exit non-zero so scripts and CI can gate
	// on fleet health without parsing the table.
	if stale > 0 || quarantined > 0 {
		fmt.Printf("DEGRADED: %d stalled lease(s), %d quarantined shard(s)\n", stale, quarantined)
		os.Exit(2)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

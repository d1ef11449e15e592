package campaign

// Tests for the fleet-facing engine extensions: trial spans, external
// record preload, fold-only merging, the jittered retry backoff, and
// worker identity prefixes.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestSpanPartitionFoldsBitIdentical is the core fleet determinism
// property at engine level: cutting the trial space into spans, running
// each span as its own campaign with its own checkpoint, and folding
// the union of the records must reproduce the single-process aggregates
// bit for bit — including the early-stopping decision, which only the
// merge fold makes.
func TestSpanPartitionFoldsBitIdentical(t *testing.T) {
	configs := []string{"cfgA", "cfgB"}
	for _, ci := range []float64{0, 0.08} {
		opt := Options{
			Seed: 7, MaxTrials: 24, MinTrials: 4, CITarget: ci,
			Workers: 4, Metrics: telemetry.NewRegistry(),
		}
		ref := mustRun(t, configs, detRun, opt)

		// Three spans per config, executed out of order by independent
		// campaigns that never early-stop (the worker contract).
		var recs []*Record
		dir := t.TempDir()
		for i, span := range [][2]int{{16, 24}, {0, 8}, {8, 16}} {
			for _, id := range configs {
				ckpt := filepath.Join(dir, id+string(rune('0'+i))+".wal")
				sopt := Options{
					Seed: opt.Seed, MaxTrials: opt.MaxTrials, Workers: 2,
					Spans:          []Span{{Config: id, Lo: span[0], Hi: span[1]}},
					CheckpointPath: ckpt,
					Metrics:        telemetry.NewRegistry(),
				}
				res := mustRun(t, []string{id}, detRun, sopt)
				if res.Executed != span[1]-span[0] {
					t.Fatalf("span %v of %s executed %d trials, want %d", span, id, res.Executed, span[1]-span[0])
				}
				loaded, info, err := ReadCheckpoint(nil, ckpt, opt.Seed, os.Stderr)
				if err != nil {
					t.Fatal(err)
				}
				if info.Records != span[1]-span[0] || info.TornLines != 0 {
					t.Fatalf("ReadCheckpoint info = %+v, want %d clean records", info, span[1]-span[0])
				}
				recs = append(recs, loaded...)
			}
		}
		merged, err := Fold(configs, opt, recs)
		if err != nil {
			t.Fatal(err)
		}
		if merged.Interrupted {
			t.Fatal("full span union reported a coverage hole")
		}
		sameAggregates(t, ref, merged)
		if ci > 0 {
			// The merge must have made the same early-stop call the live
			// run made (detRun's variance makes 0.08 reachable within 24).
			for i := range ref.Configs {
				if ref.Configs[i].EarlyStopped != merged.Configs[i].EarlyStopped {
					t.Fatalf("early-stop mismatch for %s", ref.Configs[i].Config)
				}
			}
		}
	}
}

// TestFoldDetectsCoverageHoles: a missing span must surface as
// Interrupted, not silently fold into wrong statistics.
func TestFoldDetectsCoverageHoles(t *testing.T) {
	opt := Options{Seed: 3, MaxTrials: 10, Metrics: telemetry.NewRegistry()}
	var recs []*Record
	for tr := 0; tr < 10; tr++ {
		if tr >= 4 && tr < 7 {
			continue // the hole
		}
		seed := TrialSeed(opt.Seed, "cfg", tr)
		s, _ := detRun(context.Background(), Trial{Config: "cfg", Index: tr, Seed: seed})
		recs = append(recs, &Record{Config: "cfg", Trial: tr, Seed: seed, Sample: &s})
	}
	res, err := Fold([]string{"cfg"}, opt, recs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("coverage hole not reported as Interrupted")
	}
	if n := res.Config("cfg").N; n != 4 {
		t.Fatalf("folded %d trials past the hole, want the 4-trial prefix", n)
	}
}

// TestFoldRejectsForeignRecords: wrong-seed records and duplicates must
// not perturb the fold.
func TestFoldRejectsForeignRecords(t *testing.T) {
	opt := Options{Seed: 11, MaxTrials: 5, Metrics: telemetry.NewRegistry()}
	ref := mustRun(t, []string{"cfg"}, detRun, opt)
	var recs []*Record
	for tr := 0; tr < 5; tr++ {
		seed := TrialSeed(opt.Seed, "cfg", tr)
		s, _ := detRun(context.Background(), Trial{Config: "cfg", Index: tr, Seed: seed})
		recs = append(recs, &Record{Config: "cfg", Trial: tr, Seed: seed, Sample: &s})
		recs = append(recs, &Record{Config: "cfg", Trial: tr, Seed: seed, Sample: &s}) // duplicate
	}
	forged := Sample{Value: 999}
	recs = append(recs,
		&Record{Config: "cfg", Trial: 2, Seed: 0xBAD, Sample: &forged},        // wrong seed
		&Record{Config: "ghost", Trial: 0, Seed: 1, Sample: &forged},          // unknown config
		&Record{Config: "cfg", Trial: 1, Seed: TrialSeed(opt.Seed, "cfg", 1)}, // no outcome
	)
	res, err := Fold([]string{"cfg"}, opt, recs)
	if err != nil {
		t.Fatal(err)
	}
	sameAggregates(t, ref, res)
}

// TestPreloadReplaysWithoutExecution: records handed in through
// Options.Preload must replay like checkpoint records — counted as
// Reused, never re-executed, bit-identical aggregates.
func TestPreloadReplaysWithoutExecution(t *testing.T) {
	configs := []string{"cfgA", "cfgB"}
	opt := Options{Seed: 21, MaxTrials: 8, Metrics: telemetry.NewRegistry()}
	ref := mustRun(t, configs, detRun, opt)

	ckpt := filepath.Join(t.TempDir(), "c.wal")
	wopt := opt
	wopt.CheckpointPath = ckpt
	wopt.Metrics = telemetry.NewRegistry()
	mustRun(t, configs, detRun, wopt)
	recs, _, err := ReadCheckpoint(nil, ckpt, opt.Seed, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}

	popt := opt
	popt.Preload = recs
	popt.Metrics = telemetry.NewRegistry()
	res := mustRun(t, configs, detRun, popt)
	if res.Executed != 0 || res.Reused != len(configs)*opt.MaxTrials {
		t.Fatalf("preload run executed=%d reused=%d, want 0/%d", res.Executed, res.Reused, len(configs)*opt.MaxTrials)
	}
	sameAggregates(t, ref, res)

	// A partial preload executes exactly the complement.
	hopt := opt
	hopt.Preload = recs[:5]
	hopt.Metrics = telemetry.NewRegistry()
	half := mustRun(t, configs, detRun, hopt)
	if half.Reused != 5 || half.Executed != len(configs)*opt.MaxTrials-5 {
		t.Fatalf("partial preload reused=%d executed=%d", half.Reused, half.Executed)
	}
	sameAggregates(t, ref, half)
}

// TestSpanValidation: malformed spans must fail construction loudly.
func TestSpanValidation(t *testing.T) {
	cases := []Span{
		{Config: "ghost", Lo: 0, Hi: 1},
		{Config: "cfg", Lo: -1, Hi: 2},
		{Config: "cfg", Lo: 3, Hi: 3},
		{Config: "cfg", Lo: 0, Hi: 11},
	}
	for _, sp := range cases {
		_, err := New([]string{"cfg"}, detRun, Options{
			Seed: 1, MaxTrials: 10, Spans: []Span{sp}, Metrics: telemetry.NewRegistry(),
		})
		if err == nil {
			t.Errorf("span %+v accepted", sp)
		}
	}
	_, err := New([]string{"cfg"}, detRun, Options{
		Seed: 1, MaxTrials: 10, Metrics: telemetry.NewRegistry(),
		Spans: []Span{{Config: "cfg", Lo: 0, Hi: 2}, {Config: "cfg", Lo: 2, Hi: 4}},
	})
	if err == nil {
		t.Error("double span for one config accepted")
	}
}

// TestIdentityPrefixesWarnAndProgress: with Options.Identity set, warn
// lines (checkpoint damage) and progress lines must carry the
// "[identity] " prefix so interleaved multi-worker stderr stays
// attributable.
func TestIdentityPrefixesWarnAndProgress(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "c.wal")
	opt := Options{Seed: 5, MaxTrials: 4, CheckpointPath: ckpt, Metrics: telemetry.NewRegistry()}
	mustRun(t, []string{"cfg"}, detRun, opt)
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	lines[2] = []byte("{not json")
	if err := os.WriteFile(ckpt, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	var logbuf, progbuf bytes.Buffer
	ropt := opt
	ropt.Resume = true
	ropt.Identity = "w3/shard s0007"
	ropt.Log = &logbuf
	ropt.Progress = &progbuf
	ropt.ProgressEvery = time.Millisecond
	ropt.Metrics = telemetry.NewRegistry()
	slow := func(ctx context.Context, tr Trial) (Sample, error) {
		time.Sleep(5 * time.Millisecond)
		return detRun(ctx, tr)
	}
	mustRun(t, []string{"cfg"}, slow, ropt)

	if !strings.Contains(logbuf.String(), "[w3/shard s0007] campaign: checkpoint") {
		t.Errorf("warn line lacks identity prefix:\n%s", logbuf.String())
	}
	if prog := progbuf.String(); prog != "" && !strings.HasPrefix(prog, "[w3/shard s0007] campaign:") {
		t.Errorf("progress line lacks identity prefix:\n%s", prog)
	}
}

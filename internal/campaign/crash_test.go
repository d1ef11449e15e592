package campaign

// Crash-recovery property tests: a campaign whose checkpoint storage
// dies mid-run (frozen at an arbitrary byte, out of space, torn by a
// kill) must still produce bit-identical aggregates, and a resume over
// whatever the dead run left on disk must reach the same aggregates as
// an uninterrupted reference run.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/durable"
	"repro/internal/errfs"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// TestCrashMatrixRecovery is the acceptance matrix: every fsync policy
// crossed with randomized crash points spanning the checkpoint file.
// For each cell, the crashed run must (a) complete with correct
// aggregates in degraded mode, and (b) leave a file a fresh process can
// resume from to bit-identical aggregates.
func TestCrashMatrixRecovery(t *testing.T) {
	configs := []string{"cfgA", "cfgB"}
	base := Options{Seed: 1234, MaxTrials: 12, Workers: 4, Log: io.Discard, Metrics: telemetry.NewRegistry()}
	ref := mustRun(t, configs, detRun, base)

	// Measure a full checkpoint so the crash points span the whole file,
	// from inside the header to inside the final record.
	probe := filepath.Join(t.TempDir(), "probe.ckpt")
	popt := base
	popt.CheckpointPath = probe
	mustRun(t, configs, detRun, popt)
	fi, err := os.Stat(probe)
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()
	if size < 100 {
		t.Fatalf("probe checkpoint implausibly small: %d bytes", size)
	}

	src := stats.NewSource(0xC4A54)
	for _, pol := range []durable.SyncPolicy{durable.SyncNever, durable.SyncInterval, durable.SyncAlways} {
		for i := 0; i < 4; i++ {
			point := 1 + int64(src.Intn(int(size-1)))
			t.Run(fmt.Sprintf("fsync=%s/crash@%d", pol, point), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "c.ckpt")
				fs := errfs.New(nil, errfs.Plan{CrashAtByte: point})
				copt := base
				copt.CheckpointPath = path
				copt.FS = fs
				copt.Fsync = pol
				copt.Metrics = telemetry.NewRegistry()

				crashed := mustRun(t, configs, detRun, copt)
				if !fs.Crashed() {
					t.Fatalf("crash point %d never reached (wrote %d bytes)", point, fs.BytesWritten())
				}
				if !crashed.Degraded {
					t.Fatal("campaign with dead disk not marked degraded")
				}
				if got := copt.Metrics.Gauge("campaign.ckpt.degraded").Value(); got != 1 {
					t.Fatalf("campaign.ckpt.degraded = %v, want 1", got)
				}
				// The science survived the dead disk.
				sameAggregates(t, ref, crashed)

				// A "new process" over the real filesystem sees exactly the
				// frozen image and must resume to the reference aggregates.
				ropt := base
				ropt.CheckpointPath = path
				ropt.Resume = true
				ropt.Metrics = telemetry.NewRegistry()
				resumed := mustRun(t, configs, detRun, ropt)
				if resumed.Degraded {
					t.Fatal("resume over healthy disk reported degraded")
				}
				sameAggregates(t, ref, resumed)
				if resumed.Reused+resumed.Executed < len(configs)*base.MaxTrials {
					t.Fatalf("coverage hole after resume: reused=%d executed=%d",
						resumed.Reused, resumed.Executed)
				}
			})
		}
	}
}

// tearTail simulates a kill mid-write: the file loses its final n bytes,
// cutting the last record's line in half (no trailing newline).
func tearTail(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= n {
		t.Fatalf("checkpoint too small to tear: %d bytes", fi.Size())
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// TestResumeTwiceAcrossTornTails is the regression for the v1 bug where
// O_APPEND after a torn final line glued the next record onto garbage.
// Two consecutive kill+tear+resume cycles must leave a fully clean file
// and bit-identical aggregates.
func TestResumeTwiceAcrossTornTails(t *testing.T) {
	configs := []string{"cfgA", "cfgB"}
	opt := Options{Seed: 99, MaxTrials: 20, Workers: 4, Log: io.Discard, Metrics: telemetry.NewRegistry()}
	ref := mustRun(t, configs, detRun, opt)

	ckpt := filepath.Join(t.TempDir(), "c.ckpt")
	runKilled := func(after int64) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var done atomic.Int64
		killRun := func(c context.Context, tr Trial) (Sample, error) {
			s, err := detRun(c, tr)
			if done.Add(1) == after {
				cancel()
			}
			return s, err
		}
		iopt := opt
		iopt.CheckpointPath = ckpt
		iopt.Resume = true
		c, err := New(configs, killRun, iopt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("killed run error = %v, want context.Canceled", err)
		}
	}

	runKilled(6)
	tearTail(t, ckpt, 7)
	runKilled(5)
	tearTail(t, ckpt, 9)

	fopt := opt
	fopt.CheckpointPath = ckpt
	fopt.Resume = true
	c, err := New(configs, detRun, fopt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Tearing 9 bytes off destroys the whole final line, so the repair
	// truncates the rest of that record too — the exact count depends on
	// the record's JSON length; what matters is that a repair happened.
	rec := c.Recovery()
	if !rec.Resumed || rec.RepairedBytes < 9 {
		t.Errorf("recovery = %+v, want Resumed with RepairedBytes >= 9", rec)
	}
	if res.Reused == 0 || res.Executed == 0 {
		t.Errorf("expected a mix of reused and executed trials: %+v", res)
	}
	sameAggregates(t, ref, res)

	// The file the repairs left behind must be completely clean: a final
	// verification resume replays everything with zero torn lines, zero
	// repaired bytes, zero re-execution. (Pre-fix, the glued line would
	// surface here as an undecodable record.)
	vc, err := New(configs, detRun, fopt)
	if err != nil {
		t.Fatal(err)
	}
	again, err := vc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if vr := vc.Recovery(); vr.TornLines != 0 || vr.RepairedBytes != 0 {
		t.Errorf("file not clean after repairs: %+v", vr)
	}
	if again.Executed != 0 {
		t.Errorf("clean resume re-executed %d trials", again.Executed)
	}
	sameAggregates(t, ref, again)
}

// TestLoadWarnsAndSkipsInteriorGarbage: mid-file damage must be logged
// with its line number, counted in campaign.ckpt.torn_lines, and
// skipped — the records after it still replay, and the damaged trials
// re-execute to the same aggregates.
func TestLoadWarnsAndSkipsInteriorGarbage(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "c.ckpt")
	opt := Options{Seed: 11, MaxTrials: 6, Workers: 2, Metrics: telemetry.NewRegistry()}
	ref := mustRun(t, []string{"cfg"}, detRun, opt)
	wopt := opt
	wopt.CheckpointPath = ckpt
	mustRun(t, []string{"cfg"}, detRun, wopt)

	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n")) // header, 6 records, ""
	if len(lines) != 8 {
		t.Fatalf("unexpected checkpoint shape: %d lines", len(lines))
	}
	lines[2] = []byte("v2 deadbeef 4 ????") // complete line, CRC mismatch
	lines[3] = []byte("{not json")          // unframed, undecodable
	if err := os.WriteFile(ckpt, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	var logbuf bytes.Buffer
	reg := telemetry.NewRegistry()
	ropt := wopt
	ropt.Resume = true
	ropt.Log = &logbuf
	ropt.Metrics = reg
	c, err := New([]string{"cfg"}, detRun, ropt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec := c.Recovery(); rec.TornLines != 2 {
		t.Errorf("TornLines = %d, want 2", rec.TornLines)
	}
	for _, want := range []string{"line 3", "line 4"} {
		if !strings.Contains(logbuf.String(), want) {
			t.Errorf("damage warning lacks %q:\n%s", want, logbuf.String())
		}
	}
	if got := reg.Counter("campaign.ckpt.torn_lines").Value(); got != 2 {
		t.Errorf("campaign.ckpt.torn_lines = %d, want 2", got)
	}
	if res.Reused != 4 || res.Executed != 2 {
		t.Errorf("reused=%d executed=%d, want 4 reused + 2 re-executed", res.Reused, res.Executed)
	}
	sameAggregates(t, ref, res)
}

// TestV1CheckpointResumes: a hand-written version-1 checkpoint (plain
// JSONL, no frames) must load under the v2 loader, and the new appends
// must go out framed, producing a valid mixed file.
func TestV1CheckpointResumes(t *testing.T) {
	const seed = 5
	ckpt := filepath.Join(t.TempDir(), "v1.jsonl")
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"campaign":{"version":1,"seed":%d}}`+"\n", seed)
	for trial := 0; trial < 3; trial++ {
		s := TrialSeed(seed, "cfg", trial)
		sample, err := detRun(context.Background(), Trial{Config: "cfg", Index: trial, Seed: s})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(&Record{Config: "cfg", Trial: trial, Seed: s, Sample: &sample})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(ckpt, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	ref := mustRun(t, []string{"cfg"}, detRun, Options{Seed: seed, MaxTrials: 6, Metrics: telemetry.NewRegistry()})
	ropt := Options{
		Seed: seed, MaxTrials: 6, CheckpointPath: ckpt, Resume: true,
		Log: io.Discard, Metrics: telemetry.NewRegistry(),
	}
	res := mustRun(t, []string{"cfg"}, detRun, ropt)
	if res.Reused != 3 || res.Executed != 3 {
		t.Fatalf("reused=%d executed=%d, want 3 each", res.Reused, res.Executed)
	}
	sameAggregates(t, ref, res)

	// The file is now mixed: 4 original raw lines + 3 framed appends.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	framed := 0
	for _, ln := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		if bytes.HasPrefix(ln, []byte("v2 ")) {
			framed++
		}
	}
	if framed != 3 {
		t.Errorf("framed appends = %d, want 3", framed)
	}

	again := mustRun(t, []string{"cfg"}, detRun, ropt)
	if again.Executed != 0 || again.Reused != 6 {
		t.Errorf("mixed-file resume: reused=%d executed=%d, want 6/0", again.Reused, again.Executed)
	}
	sameAggregates(t, ref, again)
}

// TestENOSPCDegradesButCompletes: running out of disk mid-campaign must
// not lose the aggregates, only the durability.
func TestENOSPCDegradesButCompletes(t *testing.T) {
	configs := []string{"cfgA", "cfgB"}
	base := Options{Seed: 8, MaxTrials: 10, Workers: 4, Log: io.Discard, Metrics: telemetry.NewRegistry()}
	ref := mustRun(t, configs, detRun, base)

	fs := errfs.New(nil, errfs.Plan{WriteQuota: 200})
	reg := telemetry.NewRegistry()
	opt := base
	opt.CheckpointPath = filepath.Join(t.TempDir(), "c.ckpt")
	opt.FS = fs
	opt.Metrics = reg
	res := mustRun(t, configs, detRun, opt)
	if fs.Fired(errfs.FaultENOSPC) == 0 {
		t.Fatal("quota never hit; test is vacuous")
	}
	if !res.Degraded {
		t.Fatal("full disk did not mark the result degraded")
	}
	if got := reg.Gauge("campaign.ckpt.degraded").Value(); got != 1 {
		t.Errorf("campaign.ckpt.degraded = %v, want 1", got)
	}
	sameAggregates(t, ref, res)
}

// TestCheckpointLockConflict: a checkpoint held by a live writer must
// abort the second campaign with durable.ErrLocked — this is the one
// storage failure that degradation must not paper over.
func TestCheckpointLockConflict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	w, err := durable.Create(path, durable.Options{Lock: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	opt := Options{
		Seed: 1, MaxTrials: 2, CheckpointPath: path, Resume: true,
		Log: io.Discard, Metrics: telemetry.NewRegistry(),
	}
	c, err := New([]string{"cfg"}, detRun, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); !errors.Is(err, durable.ErrLocked) {
		t.Fatalf("contended checkpoint: err = %v, want durable.ErrLocked", err)
	}

	// Releasing the lock unblocks a fresh campaign.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := New([]string{"cfg"}, detRun, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Run(context.Background()); err != nil {
		t.Fatalf("campaign after lock release: %v", err)
	}
}

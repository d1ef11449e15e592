package cliutil

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/telemetry"
)

// AddFlagsTo must register the observability flags on the given set
// and leave flag.CommandLine alone, so repeated test registrations do
// not panic on duplicate flag names.
func TestAddFlagsToWiresFlags(t *testing.T) {
	for i := 0; i < 3; i++ { // would panic on flag.CommandLine
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		tel := AddFlagsTo(fs)
		path := filepath.Join(t.TempDir(), "m.json")
		if err := fs.Parse([]string{"-metrics", path, "-pprof", ""}); err != nil {
			t.Fatal(err)
		}
		if tel.metricsPath != path {
			t.Fatalf("-metrics not wired: %q", tel.metricsPath)
		}
	}
}

// Dump writes a parseable JSON snapshot of the default registry — the
// path every CLI takes on exit, including after SIGINT.
func TestDumpWritesSnapshot(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	tel := AddFlagsTo(fs)
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := fs.Parse([]string{"-metrics", path}); err != nil {
		t.Fatal(err)
	}
	telemetry.Default().Counter("cliutil.test.dump").Inc()
	tel.Dump()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("snapshot is not JSON: %v", err)
	}
	// Dump is documented as safe to call repeatedly (last snapshot wins).
	tel.Dump()
}

// A Dump failure (unwritable path) is reported, not fatal: losing the
// telemetry snapshot must never lose the campaign results.
func TestDumpReportsUnwritablePath(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	tel := AddFlagsTo(fs)
	if err := fs.Parse([]string{"-metrics", t.TempDir()}); err != nil { // a directory
		t.Fatal(err)
	}
	tel.Dump() // must not panic or exit
}

// Start without -pprof is a no-op; with an address it serves
// /debug/pprof until the process exits.
func TestStartPprof(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	tel := AddFlagsTo(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	tel.Start() // no address: returns immediately

	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	tel2 := AddFlagsTo(fs2)
	if err := fs2.Parse([]string{"-pprof", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	tel2.Start() // server goroutine; lives for the test binary's lifetime
	time.Sleep(10 * time.Millisecond)
}

func TestDumpWithoutPathIsNoop(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	tel := AddFlagsTo(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	tel.Dump() // must not create files or panic
}

// The graceful-shutdown contract: SIGINT cancels the context instead of
// killing the process, so campaigns can flush checkpoints and print
// partial aggregates before exiting.
func TestNotifyContextCancelsOnSIGINT(t *testing.T) {
	ctx, stop := NotifyContext(context.Background())
	defer stop()
	select {
	case <-ctx.Done():
		t.Fatal("context cancelled before any signal")
	default:
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGINT did not cancel the context")
	}
	// stop restores default handling; a fresh context starts uncancelled.
	stop()
	ctx2, stop2 := NotifyContext(context.Background())
	defer stop2()
	select {
	case <-ctx2.Done():
		t.Fatal("fresh context already cancelled")
	default:
	}
}

// The durability flag: -fsync parses through durable.ParseSyncPolicy,
// defaulting to the interval policy.
func TestDurabilityFlags(t *testing.T) {
	cases := []struct {
		args []string
		sync durable.SyncPolicy
	}{
		{nil, durable.SyncInterval},
		{[]string{"-fsync", "never"}, durable.SyncNever},
		{[]string{"-fsync", "interval"}, durable.SyncInterval},
		{[]string{"-fsync", "always"}, durable.SyncAlways},
		{[]string{"-fsync", "every-record"}, durable.SyncAlways},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		tel := AddFlagsTo(fs)
		tel.AddFsyncTo(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if tel.SyncPolicy() != tc.sync {
			t.Errorf("%v: sync=%v, want %v", tc.args, tel.SyncPolicy(), tc.sync)
		}
	}

	// Only the CLIs that write a checkpoint or shard WAL register it.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	AddFlagsTo(fs)
	if fs.Lookup("fsync") != nil {
		t.Error("AddFlagsTo registers -fsync")
	}

	// A bad policy is a flag-parse error, not a silent default.
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	AddFlagsTo(fs).AddFsyncTo(fs)
	if err := fs.Parse([]string{"-fsync", "sometimes"}); err == nil {
		t.Error("bogus -fsync value accepted")
	}
}

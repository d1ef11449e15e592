package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
)

// TestWorkerArgvForwardsFsync: supervise passes its -fsync policy on to
// every worker it starts, so "supervise -fsync always" makes the shard
// WAL appends durable per record.
func TestWorkerArgvForwardsFsync(t *testing.T) {
	for _, p := range []durable.SyncPolicy{durable.SyncNever, durable.SyncInterval, durable.SyncAlways} {
		argv := workerArgv("fleet", "w1", 2*time.Second, 0, 3, "", p)
		i := slices.Index(argv, "-fsync")
		if i < 0 || i+1 >= len(argv) || argv[i+1] != p.String() {
			t.Errorf("%v: worker argv %q does not carry -fsync %s", p, argv, p)
		}
		if argv[0] != "work" || slices.Contains(argv, "-poison") {
			t.Errorf("%v: worker argv %q", p, argv)
		}
	}
	argv := workerArgv("fleet", "w1", 2*time.Second, 0, 3, "bad:2", durable.SyncAlways)
	if i := slices.Index(argv, "-poison"); i < 0 || argv[i+1] != "bad:2" {
		t.Errorf("worker argv %q drops -poison", argv)
	}
}

// TestUsageErrorsExit2: a missing or bad flag exits 2, as the flag
// package's own parse errors and an unknown subcommand do, and creates
// nothing.
func TestUsageErrorsExit2(t *testing.T) {
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "campaignd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dir := filepath.Join(tmp, "fleet")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"plan"}, "plan: -dir is required"},
		{[]string{"plan", "-dir", dir, "-spec", "synth"}, "-spec synth requires -configs"},
		{[]string{"plan", "-dir", dir, "-spec", "bogus"}, `unknown -spec "bogus"`},
		{[]string{"work"}, "work: -dir is required"},
		{[]string{"work", "-dir", dir, "-poison", "nocolon"}, "want config:trial"},
		{[]string{"supervise"}, "supervise: -dir is required"},
		{[]string{"merge"}, "merge: -dir is required"},
		{[]string{"status"}, "status: -dir is required"},
		{[]string{"bogus"}, `unknown subcommand "bogus"`},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("campaignd %q: %v, want exit status 2", tc.args, err)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("campaignd %q: stderr %q, want %q", tc.args, stderr.String(), tc.want)
		}
	}
	if _, err := os.Stat(dir); err == nil {
		t.Error("a usage error created the fleet directory")
	}
}

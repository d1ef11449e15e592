package main

import (
	"slices"
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

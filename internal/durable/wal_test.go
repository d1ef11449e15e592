package durable_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/errfs"
)

func writeRecords(t *testing.T, path string, opt durable.Options, payloads ...string) {
	t.Helper()
	w, err := durable.Create(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func scanPayloads(t *testing.T, path string) []string {
	t.Helper()
	sr, err := durable.Scan(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(sr.Lines))
	for i, ln := range sr.Lines {
		out[i] = string(ln.Payload)
	}
	return out
}

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range []string{"", "x", `{"v":1.25}`, strings.Repeat("abc", 1000)} {
		frame := durable.AppendFrame(nil, []byte(payload))
		if frame[len(frame)-1] != '\n' {
			t.Fatal("frame not newline-terminated")
		}
		got, ok := durable.ParseFrame(frame[:len(frame)-1])
		if !ok || string(got) != payload {
			t.Fatalf("round trip failed for %q: ok=%v got=%q", payload, ok, got)
		}
	}
}

func TestParseFrameRejectsCorruption(t *testing.T) {
	frame := durable.AppendFrame(nil, []byte(`{"trial":7}`))
	line := frame[:len(frame)-1]
	cases := map[string][]byte{
		"no prefix":     []byte(`{"trial":7}`),
		"bad prefix":    append([]byte("v3 "), line[3:]...),
		"truncated":     line[:len(line)-2],
		"short header":  []byte("v2 0"),
		"bad crc hex":   append([]byte("v2 zzzzzzzz"), line[11:]...),
		"empty":         nil,
		"length bigger": []byte("v2 00000000 99 x"),
	}
	for name, c := range cases {
		if _, ok := durable.ParseFrame(c); ok {
			t.Errorf("%s accepted", name)
		}
	}
	// Single-bit flip in the payload must fail the CRC.
	for i := range line {
		if i < len("v2 ") {
			continue
		}
		mut := append([]byte(nil), line...)
		mut[i] ^= 0x40
		if payload, ok := durable.ParseFrame(mut); ok && string(payload) == `{"trial":7}` {
			// A flip in the length field could still parse if it happens to
			// re-frame consistently; the payload must differ then. Equality
			// means the CRC failed to catch a change.
			t.Errorf("bit flip at %d accepted with identical payload", i)
		}
	}
}

func TestAppendRejectsNewlinePayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	w, err := durable.Create(path, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append([]byte("a\nb")); err == nil {
		t.Fatal("newline payload accepted")
	}
}

func TestScanTornTailDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	writeRecords(t, path, durable.Options{}, "one", "two", "three")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the file mid-final-record, as a kill -9 would.
	cut := len(full) - 4
	if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	sr, err := durable.Scan(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if got := scanPayloads(t, path); len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("valid prefix wrong: %q", got)
	}
	if sr.TornBytes() <= 0 {
		t.Fatalf("torn tail not detected: %+v", sr)
	}
}

func TestOpenAppendRepairsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	writeRecords(t, path, durable.Options{}, "one", "two")
	full, _ := os.ReadFile(path)
	os.WriteFile(path, full[:len(full)-3], 0o644) // torn tail over "two"

	w, rep, err := durable.OpenAppend(path, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TruncatedBytes <= 0 || rep.ValidLines != 1 {
		t.Fatalf("repair info wrong: %+v", rep)
	}
	if err := w.Append([]byte("three")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The torn record is gone; the new record is NOT glued onto garbage.
	if got := scanPayloads(t, path); len(got) != 2 || got[0] != "one" || got[1] != "three" {
		t.Fatalf("after repair+append: %q", got)
	}
}

func TestScanSkipsCorruptInteriorLineButKeepsLaterOnes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	var buf []byte
	buf = durable.AppendFrame(buf, []byte("one"))
	bad := durable.AppendFrame(nil, []byte("evil"))
	bad[len(bad)/2] ^= 0xff // corrupt the middle: CRC must fail
	buf = append(buf, bad...)
	buf = durable.AppendFrame(buf, []byte("two"))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	sr, err := durable.Scan(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Lines) != 2 || string(sr.Lines[0].Payload) != "one" || string(sr.Lines[1].Payload) != "two" {
		t.Fatalf("lines = %+v", sr.Lines)
	}
	if len(sr.Corrupt) != 1 || sr.Corrupt[0] != 2 {
		t.Fatalf("corrupt line numbers = %v, want [2]", sr.Corrupt)
	}
	if sr.TornBytes() != 0 {
		t.Fatalf("interior corruption misreported as torn tail: %+v", sr)
	}
}

func TestScanPassesThroughUnframedV1Lines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	content := "{\"campaign\":{\"version\":1,\"seed\":9}}\n{\"config\":\"a\"}\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	sr, err := durable.Scan(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Lines) != 2 || sr.Lines[0].Framed || sr.Lines[1].Framed {
		t.Fatalf("v1 lines not passed through: %+v", sr.Lines)
	}
	// Appending to a v1 file produces a mixed file both halves of which
	// scan cleanly.
	w, rep, err := durable.OpenAppend(path, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ValidLines != 2 || rep.TruncatedBytes != 0 {
		t.Fatalf("repair info on clean v1 file: %+v", rep)
	}
	if err := w.Append([]byte(`{"config":"b"}`)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	sr2, err := durable.Scan(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr2.Lines) != 3 || !sr2.Lines[2].Framed {
		t.Fatalf("mixed file scan: %+v", sr2.Lines)
	}
}

func TestScanMissingFile(t *testing.T) {
	_, err := durable.Scan(nil, filepath.Join(t.TempDir(), "absent"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
}

func TestSyncPolicies(t *testing.T) {
	cases := []struct {
		policy durable.SyncPolicy
		// syncs per N appends: always = N (+1 close), never = 0,
		// interval = 0 (+1 close), since N appends take far less than
		// the 1s window.
		wantAppendSyncs func(n int) int
		closeSyncs      int
	}{
		{durable.SyncAlways, func(n int) int { return n }, 1},
		{durable.SyncNever, func(int) int { return 0 }, 0},
		{durable.SyncInterval, func(int) int { return 0 }, 1},
	}
	for _, c := range cases {
		t.Run(c.policy.String(), func(t *testing.T) {
			fs := errfs.New(nil, errfs.Plan{})
			path := filepath.Join(t.TempDir(), "w.wal")
			opt := durable.Options{FS: fs, Sync: c.policy}
			w, err := durable.Create(path, opt)
			if err != nil {
				t.Fatal(err)
			}
			const n = 5
			for i := 0; i < n; i++ {
				if err := w.Append([]byte(fmt.Sprintf("rec%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := fs.SyncCalls(), c.wantAppendSyncs(n); got != want {
				t.Fatalf("append syncs = %d, want %d", got, want)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if got, want := fs.SyncCalls(), c.wantAppendSyncs(n)+c.closeSyncs; got != want {
				t.Fatalf("total syncs = %d, want %d", got, want)
			}
		})
	}
}

func TestSyncIntervalElapsedTriggersSync(t *testing.T) {
	fs := errfs.New(nil, errfs.Plan{})
	path := filepath.Join(t.TempDir(), "w.wal")
	w, err := durable.Create(path, durable.Options{FS: fs, Sync: durable.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Past the 1s window, the next append syncs.
	time.Sleep(1100 * time.Millisecond)
	if err := w.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if fs.SyncCalls() == 0 {
		t.Fatal("elapsed interval did not sync")
	}
}

func TestExclusiveLockConflicts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	opt := durable.Options{Lock: true}
	w, err := durable.Create(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, _, err := durable.OpenAppend(path, opt); !errors.Is(err, durable.ErrLocked) {
		t.Fatalf("second writer got %v, want ErrLocked", err)
	}
	if _, err := durable.Create(path, opt); !errors.Is(err, durable.ErrLocked) {
		t.Fatalf("contended create got %v, want ErrLocked", err)
	}
	// The contended Create must not have truncated the live writer's file.
	if err := w.Append([]byte("still here")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if got := scanPayloads(t, path); len(got) != 1 || got[0] != "still here" {
		t.Fatalf("live writer's data damaged by contended create: %q", got)
	}
	// Lock released on Close: reopening succeeds.
	w2, _, err := durable.OpenAppend(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
}

func TestAppendSurfacesWriteFaults(t *testing.T) {
	// Create writes nothing, so write op 1 is the first Append.
	t.Run("eio", func(t *testing.T) {
		fs := errfs.New(nil, errfs.Plan{FailWriteAt: 1})
		w, err := durable.Create(filepath.Join(t.TempDir(), "w.wal"), durable.Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if err := w.Append([]byte("x")); err == nil {
			t.Fatal("EIO write not surfaced")
		}
	})
	t.Run("short write leaves recoverable prefix", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "w.wal")
		fs := errfs.New(nil, errfs.Plan{ShortWriteAt: 2})
		w, err := durable.Create(path, durable.Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append([]byte("good")); err != nil {
			t.Fatal(err)
		}
		if err := w.Append([]byte("torn")); err == nil {
			t.Fatal("short write not surfaced")
		}
		w.Close()
		// The half-written record is a torn tail; repair recovers "good".
		w2, rep, err := durable.OpenAppend(path, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		w2.Close()
		if rep.ValidLines != 1 || rep.TruncatedBytes <= 0 {
			t.Fatalf("short-write tail not repaired: %+v", rep)
		}
	})
	t.Run("fsync failure surfaces under always", func(t *testing.T) {
		fs := errfs.New(nil, errfs.Plan{FailSyncAt: 1})
		w, err := durable.Create(filepath.Join(t.TempDir(), "w.wal"), durable.Options{FS: fs, Sync: durable.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if err := w.Append([]byte("x")); err == nil {
			t.Fatal("fsync failure not surfaced")
		}
	})
}

func TestAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	w, err := durable.Create(path, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
	if err := w.Append([]byte("x")); err == nil {
		t.Fatal("append after close accepted")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := map[string]durable.SyncPolicy{
		"never": durable.SyncNever, "interval": durable.SyncInterval,
		"always": durable.SyncAlways, "every-record": durable.SyncAlways,
		"ALWAYS": durable.SyncAlways,
	}
	for in, want := range cases {
		got, err := durable.ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := durable.ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
	for _, p := range []durable.SyncPolicy{durable.SyncNever, durable.SyncInterval, durable.SyncAlways} {
		rt, err := durable.ParseSyncPolicy(p.String())
		if err != nil || rt != p {
			t.Errorf("String/Parse round trip broken for %v", p)
		}
	}
}

func TestScanOversizedLineIsCorrupt(t *testing.T) {
	// A framed line longer than MaxLineBytes is rejected, not buffered
	// forever. Build it cheaply: huge declared length, small file.
	path := filepath.Join(t.TempDir(), "w.wal")
	line := []byte("v2 00000000 999999999 short\n")
	ok := durable.AppendFrame(nil, []byte("fine"))
	if err := os.WriteFile(path, append(line, ok...), 0o644); err != nil {
		t.Fatal(err)
	}
	sr, err := durable.Scan(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Corrupt) != 1 || len(sr.Lines) != 1 || string(sr.Lines[0].Payload) != "fine" {
		t.Fatalf("scan = corrupt %v lines %+v", sr.Corrupt, sr.Lines)
	}
}

func TestFrameBytesAreStable(t *testing.T) {
	// The on-disk framing is a compatibility surface: golden bytes.
	got := durable.AppendFrame(nil, []byte("hello"))
	want := "v2 9a71bb4c 5 hello\n"
	if !bytes.Equal(got, []byte(want)) {
		t.Fatalf("frame bytes changed: %q want %q", got, want)
	}
}

package durable

// Write-ahead log v2.
//
// The WAL is a line-oriented append-only file. Every record written by
// this package is framed as
//
//	v2 <crc32c:8 hex> <len decimal> <payload>\n
//
// where the CRC32C (Castagnoli) and the length cover the payload bytes
// exactly. The framing makes every failure mode of a killed writer
// detectable on reopen:
//
//   - a torn tail (the final line has no '\n', or its frame fails the
//     length/CRC check) is truncated away before any new append, so a
//     fresh record is never glued onto half-written garbage;
//   - a corrupt interior line (complete, framed, bad CRC — e.g. a
//     latent media error) is reported with its line number and skipped;
//     the records after it remain readable because '\n' resynchronizes
//     the stream;
//   - unframed lines (plain JSONL from the v1 format) are passed
//     through for the caller to validate, keeping v1 files readable
//     while all new writes go out framed.
//
// Appends are a single Write call per record so the torn-write surface
// is one contiguous byte range, and fsync follows the configured policy
// (never / interval / every record).

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// framePrefix marks a framed v2 line.
const framePrefix = "v2 "

// MaxLineBytes bounds one record line; longer lines are treated as
// corrupt rather than buffered without limit.
const MaxLineBytes = 16 << 20

// SyncPolicy selects when appends reach stable storage. The zero value
// is SyncInterval: bounded data loss without paying an fsync per record.
type SyncPolicy int

const (
	// SyncInterval fsyncs at most once per syncWindow (1s), amortized
	// over appends (and once more on Close).
	SyncInterval SyncPolicy = iota
	// SyncNever leaves flushing entirely to the OS.
	SyncNever
	// SyncAlways fsyncs after every record: a returned Append is durable.
	SyncAlways
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncNever:
		return "never"
	case SyncAlways:
		return "always"
	default:
		return "interval"
	}
}

// ParseSyncPolicy parses a -fsync flag value. "every-record" and
// "every" are accepted as spellings of "always".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "never":
		return SyncNever, nil
	case "interval", "":
		return SyncInterval, nil
	case "always", "every-record", "every":
		return SyncAlways, nil
	}
	return SyncInterval, fmt.Errorf("durable: unknown fsync policy %q (want never|interval|always)", s)
}

// syncWindow is the amortization window of the SyncInterval policy.
const syncWindow = time.Second

// Options tunes a WAL.
type Options struct {
	// FS is the filesystem to operate on (nil = the real one).
	FS FS
	// Sync is the fsync policy (zero value = SyncInterval).
	Sync SyncPolicy
	// Lock takes a non-blocking exclusive lock on the file for the
	// WAL's lifetime; opening a locked file fails with ErrLocked.
	Lock bool
	// Warn receives loud non-fatal warnings (nil = os.Stderr), e.g.
	// Lock requested on a platform where LockSupported is false.
	Warn io.Writer
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OS()
	}
	return o
}

// AppendFrame appends the framed representation of payload to dst and
// returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	crc := crc32.Checksum(payload, castagnoli)
	dst = fmt.Appendf(dst, "%s%08x %d ", framePrefix, crc, len(payload))
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// ParseFrame validates one complete line (without its trailing newline)
// against the v2 frame format and returns the payload. ok is false when
// the prefix, length, or CRC does not check out.
func ParseFrame(line []byte) (payload []byte, ok bool) {
	rest, found := bytes.CutPrefix(line, []byte(framePrefix))
	if !found {
		return nil, false
	}
	if len(rest) < 10 || rest[8] != ' ' {
		return nil, false
	}
	crc, err := strconv.ParseUint(string(rest[:8]), 16, 32)
	if err != nil {
		return nil, false
	}
	rest = rest[9:]
	sp := bytes.IndexByte(rest, ' ')
	if sp < 1 {
		return nil, false
	}
	n, err := strconv.Atoi(string(rest[:sp]))
	if err != nil || n < 0 {
		return nil, false
	}
	payload = rest[sp+1:]
	if len(payload) != n {
		return nil, false
	}
	if crc32.Checksum(payload, castagnoli) != uint32(crc) {
		return nil, false
	}
	return payload, true
}

// Line is one validated line of a scanned log file.
type Line struct {
	// Payload is the frame payload (framed lines) or the raw line
	// (unframed v1 lines, validity left to the caller).
	Payload []byte
	// Framed reports whether the line carried (and passed) a v2 frame.
	Framed bool
	// Num is the 1-based line number in the file, counting corrupt
	// lines.
	Num int
}

// ScanResult describes one pass over a log file.
type ScanResult struct {
	// Lines holds the complete, frame-valid lines in file order.
	Lines []Line
	// Corrupt lists the 1-based line numbers of complete lines whose v2
	// frame failed validation (bad CRC, wrong length, oversized).
	Corrupt []int
	// Size is the total byte size scanned.
	Size int64
	// ValidSize is the offset just past the last complete valid line;
	// Size - ValidSize is the torn tail a repair would truncate.
	ValidSize int64
}

// TornBytes returns the size of the unusable tail (0 for a clean file).
func (s *ScanResult) TornBytes() int64 { return s.Size - s.ValidSize }

// Scan reads a log file and classifies every line. Missing files
// surface the underlying fs error (errors.Is os.ErrNotExist).
func Scan(fsys FS, path string) (*ScanResult, error) {
	if fsys == nil {
		fsys = OS()
	}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return scanReader(f)
}

// scanReader is Scan over an already-open file positioned at offset 0.
func scanReader(r io.Reader) (*ScanResult, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	res := &ScanResult{}
	var off int64
	num := 0
	for {
		line, err := br.ReadBytes('\n')
		off += int64(len(line))
		res.Size = off
		if err == io.EOF {
			// A non-empty remainder is an incomplete final line: the torn
			// tail of a killed writer. It is not a Line and not Corrupt —
			// it is the bytes a repair truncates.
			return res, nil
		}
		if err != nil {
			return nil, err
		}
		num++
		body := line[:len(line)-1]
		if bytes.HasPrefix(body, []byte(framePrefix)) {
			payload, ok := ParseFrame(body)
			if !ok || len(body) > MaxLineBytes {
				res.Corrupt = append(res.Corrupt, num)
				continue
			}
			res.Lines = append(res.Lines, Line{Payload: append([]byte(nil), payload...), Framed: true, Num: num})
		} else {
			res.Lines = append(res.Lines, Line{Payload: append([]byte(nil), body...), Num: num})
		}
		res.ValidSize = off
	}
}

// RepairInfo reports what OpenAppend found and fixed before appending.
type RepairInfo struct {
	// ValidLines counts the usable lines kept.
	ValidLines int
	// CorruptLines counts complete interior lines failing frame
	// validation (kept in place, reported for the caller to log).
	CorruptLines int
	// TruncatedBytes is the torn tail removed before the first append.
	TruncatedBytes int64
}

// WAL is an open write-ahead log. Append is safe for concurrent use.
type WAL struct {
	mu       sync.Mutex
	f        File
	path     string
	opt      Options
	lastSync time.Time
	scratch  []byte
	closed   bool
}

// Create opens path as a fresh WAL, truncating any existing content —
// after taking the lock, so a contended create cannot destroy a live
// writer's file.
func Create(path string, opt Options) (*WAL, error) {
	opt = opt.withDefaults()
	f, err := openLocked(path, opt)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: truncate %s: %w", path, err)
	}
	return &WAL{f: f, path: path, opt: opt, lastSync: time.Now()}, nil
}

// OpenAppend opens an existing (or new) WAL for appending: it takes the
// lock, scans the current content, truncates any torn tail, and leaves
// the file positioned so the next Append lands directly after the last
// valid line.
func OpenAppend(path string, opt Options) (*WAL, RepairInfo, error) {
	opt = opt.withDefaults()
	var rep RepairInfo
	f, err := openLocked(path, opt)
	if err != nil {
		return nil, rep, err
	}
	scan, err := scanReader(f)
	if err != nil {
		f.Close()
		return nil, rep, fmt.Errorf("durable: scan %s: %w", path, err)
	}
	rep = RepairInfo{
		ValidLines:     len(scan.Lines),
		CorruptLines:   len(scan.Corrupt),
		TruncatedBytes: scan.TornBytes(),
	}
	if rep.TruncatedBytes > 0 {
		if err := f.Truncate(scan.ValidSize); err != nil {
			f.Close()
			return nil, rep, fmt.Errorf("durable: repair %s: %w", path, err)
		}
	}
	return &WAL{f: f, path: path, opt: opt, lastSync: time.Now()}, rep, nil
}

// lockSupported mirrors LockSupported through a var so tests can
// exercise the unsupported-platform warning on any platform.
var lockSupported = LockSupported

// openLocked opens path read-write in append mode and applies the lock
// policy. O_APPEND means writes always land at the (possibly repaired)
// end of file without tracking offsets.
func openLocked(path string, opt Options) (File, error) {
	f, err := opt.FS.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", path, err)
	}
	if opt.Lock {
		if !lockSupported {
			w := opt.Warn
			if w == nil {
				w = os.Stderr
			}
			fmt.Fprintf(w, "durable: WARNING: %s: exclusive locking is not supported on this platform; "+
				"a second writer would NOT be excluded\n", path)
		}
		if err := f.Lock(); err != nil {
			f.Close()
			if errors.Is(err, ErrLocked) {
				return nil, fmt.Errorf("durable: %s: %w", path, ErrLocked)
			}
			return nil, fmt.Errorf("durable: lock %s: %w", path, err)
		}
	}
	return f, nil
}

// Append frames payload and writes it as one Write call, then applies
// the fsync policy. The payload must not contain a newline (framing is
// line-oriented).
func (w *WAL) Append(payload []byte) error {
	if bytes.IndexByte(payload, '\n') >= 0 {
		return fmt.Errorf("durable: append %s: payload contains newline", w.path)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("durable: append %s: WAL closed", w.path)
	}
	w.scratch = AppendFrame(w.scratch[:0], payload)
	n, err := w.f.Write(w.scratch)
	if err != nil {
		return fmt.Errorf("durable: append %s: %w", w.path, err)
	}
	if n < len(w.scratch) {
		return fmt.Errorf("durable: append %s: %w", w.path, io.ErrShortWrite)
	}
	switch w.opt.Sync {
	case SyncAlways:
		return w.syncLocked()
	case SyncInterval:
		if time.Since(w.lastSync) >= syncWindow {
			return w.syncLocked()
		}
	}
	return nil
}

// Sync forces an fsync regardless of policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	w.lastSync = time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync %s: %w", w.path, err)
	}
	return nil
}

// Close syncs (unless the policy is SyncNever), releases the lock, and
// closes the file. Closing twice is a no-op.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var firstErr error
	if w.opt.Sync != SyncNever {
		firstErr = w.syncLocked()
	}
	if w.opt.Lock {
		w.f.Unlock() // best effort; Close releases flock anyway
	}
	if err := w.f.Close(); firstErr == nil {
		firstErr = err
	}
	return firstErr
}

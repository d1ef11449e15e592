// Package durable is the crash-safe storage layer under the campaign
// checkpoints and the whole-file artifacts (telemetry snapshots, bench
// baselines, sweep results).
//
// The rest of this repository spends its life modeling faulty storage
// cells; durable applies the same mindset to the filesystem the results
// land on. It assumes the process can be killed mid-write and the disk
// can return short writes, ENOSPC, or EIO at any moment, and provides:
//
//   - a write-ahead log (WAL) of length-framed, CRC32C-checksummed
//     records with torn-tail detection and truncate-and-repair on
//     reopen (wal.go);
//   - configurable fsync policies (never / interval / every-record);
//   - exclusive advisory file locking so two writers cannot interleave
//     one log;
//   - atomic whole-file replacement via temp file + fsync + rename +
//     directory sync (atomic.go).
//
// All I/O goes through the FS interface so tests can substitute the
// fault-injecting filesystem in internal/errfs and prove recovery under
// injected failures rather than assuming it.
package durable

import (
	"errors"
	"io"
	"os"
	"syscall"
)

// ErrLocked reports that an exclusive file lock is already held by
// another writer (possibly in another process).
var ErrLocked = errors.New("durable: file locked by another writer")

// FS is the filesystem surface durable needs. The zero-dependency OS
// implementation is OS(); internal/errfs wraps any FS with injected
// faults.
type FS interface {
	// OpenFile opens a file with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// Stat returns file metadata.
	Stat(name string) (os.FileInfo, error)
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory, making renames within it durable.
	SyncDir(dir string) error
}

// File is one open file. Reads and writes follow the os.File contract;
// Lock takes a non-blocking exclusive advisory lock on the whole file
// (ErrLocked when contended) that Unlock or Close releases.
type File interface {
	io.Reader
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
	Lock() error
	Unlock() error
}

// osFS is the real filesystem.
type osFS struct{}

// OS returns the real-filesystem implementation of FS.
func OS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &osFile{f}, nil
}

func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Stat(name string) (os.FileInfo, error) {
	return os.Stat(name)
}

// SyncDir fsyncs the directory so a completed rename survives a power
// cut. Filesystems that do not support fsync on directories report
// EINVAL/ENOTSUP; those are ignored — the rename itself succeeded and
// there is nothing more the caller could do.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

// osFile adds advisory locking to *os.File.
type osFile struct{ *os.File }

func (f *osFile) Lock() error   { return flockFile(f.File) }
func (f *osFile) Unlock() error { return funlockFile(f.File) }

// statFS is fs.Stat with a nil-means-OS default.
func statFS(fsys FS, name string) (os.FileInfo, error) {
	if fsys == nil {
		fsys = OS()
	}
	return fsys.Stat(name)
}

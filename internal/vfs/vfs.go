// Package vfs is the filesystem seam under TEA's durable storage: a small
// interface covering exactly the operations the WAL, snapshot, and index
// writers perform (open/create/rename/sync/remove/stat), a passthrough OS
// implementation, ReplaceFile, the one atomic file replace that snapshots
// and saved indices land by, and FaultFS, the filesystem adapter of
// internal/fault's seeded plan, which turns "the disk misbehaved" into a
// deterministic, scriptable event.
//
// Every durability claim in the storage layer — "a crash at rename leaves
// either the old or the new snapshot", "an ENOSPC mid-checkpoint never
// damages prior generations", "a torn WAL tail is repaired" — is only a
// claim until the failing operation can actually be made to fail. Threading
// an FS through internal/wal, internal/stream, and persistence.go makes
// every one of those paths testable under injected ENOSPC, fsync failures,
// torn (short) writes, and crash-at-rename, without root, loop devices, or
// filesystem tricks.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// ErrNoSpace is the no-space-left-on-device error injected by FaultFS's
// default fault and matched by IsNoSpace. It aliases syscall.ENOSPC so real
// disk-full errors and injected ones satisfy the same errors.Is check.
var ErrNoSpace error = syscall.ENOSPC

// IsNoSpace reports whether err is a disk-full condition, injected or real.
func IsNoSpace(err error) bool {
	return errors.Is(err, syscall.ENOSPC)
}

// File is the handle contract the storage layer needs: sequential and
// positional I/O, durability (Sync), and truncation.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Seeker
	io.Closer
	// Name returns the path the file was opened with.
	Name() string
	// Stat returns file metadata.
	Stat() (fs.FileInfo, error)
	// Sync flushes the file's data to stable storage.
	Sync() error
	// Truncate changes the file's size.
	Truncate(size int64) error
}

// FS is the filesystem interface durable storage runs against. OS is the
// real implementation; FaultFS wraps any FS to inject failures. All methods
// must be safe for concurrent use.
type FS interface {
	// OpenFile opens name with the given flag and permissions.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Rename atomically renames oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// Stat returns metadata for name.
	Stat(name string) (fs.FileInfo, error)
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm fs.FileMode) error
	// Glob returns the paths matching pattern (filepath.Glob rules).
	Glob(pattern string) ([]string, error)
	// SyncDir fsyncs a directory, making renames and creations durable.
	SyncDir(dir string) error
}

// Open opens name read-only on fsys.
func Open(fsys FS, name string) (File, error) {
	return fsys.OpenFile(name, os.O_RDONLY, 0)
}

// ReplaceFile replaces path with the bytes write produces, atomically: write
// fills a temp file named by pattern (os.CreateTemp rules) in path's
// directory, which is fsynced, closed and renamed over path; then the
// directory is fsynced. Any failure up to the rename removes the temp file
// and leaves path as it was, so a crash leaves the old file or the new one,
// never a torn one. A failed directory sync is an error: until the
// directory entry is durable, a crash can lose the rename and bring the old
// file back. The file lands with the mode os.Create gives, 0666 less the
// umask.
func ReplaceFile(fsys FS, path, pattern string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := createTemp(fsys, dir, pattern)
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	return nil
}

// createTemp is os.CreateTemp with os.Create's mode instead of 0600: the
// temp file becomes the replaced file, which other users may need to read.
func createTemp(fsys FS, dir, pattern string) (File, error) {
	prefix, suffix, _ := strings.Cut(pattern, "*")
	for try := 0; ; try++ {
		name := filepath.Join(dir, prefix+strconv.FormatUint(uint64(rand.Uint32()), 10)+suffix)
		f, err := fsys.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) || try == 10000 {
			return f, err
		}
	}
}

// OS is the passthrough filesystem. The zero value is ready to use; the OS
// variable is the conventional instance.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) Stat(name string) (fs.FileInfo, error) {
	return os.Stat(name)
}
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Glob(pattern string) ([]string, error)        { return filepath.Glob(pattern) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

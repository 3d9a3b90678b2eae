package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync/atomic"

	"github.com/tea-graph/tea/internal/fault"
)

// ErrCrashed is returned for every mutating operation after a Crash fault
// fired: the simulated process is "dead" and the test should reopen the
// directory the way recovery would.
var ErrCrashed = errors.New("vfs: filesystem crashed (simulated)")

// FaultFS wraps an FS with a fault.Plan, matched against each operation's
// file path. A Fail fault's nil Err means ErrNoSpace. A Torn fault writes a
// seeded strict prefix of the buffer before failing — the on-disk residue of
// a torn write. A Crash fault does the same to a write, lets a seeded coin
// decide whether a rename completed, and then flips the whole filesystem into
// the crashed state: every further mutating operation returns ErrCrashed.
// Other kinds fail the operation like Fail. A FaultFS whose plan has no armed
// faults is transparent.
type FaultFS struct {
	*fault.Plan
	base    FS
	crashed atomic.Bool
}

// NewFaultFS wraps base with plan.
func NewFaultFS(base FS, plan *fault.Plan) *FaultFS {
	return &FaultFS{Plan: plan, base: base}
}

// Heal disarms every fault and clears the crashed state — the operator freed
// space, replaced the disk, or restarted the machine.
func (f *FaultFS) Heal() {
	f.Plan.Heal()
	f.crashed.Store(false)
}

// Crashed reports whether a Crash fault has fired.
func (f *FaultFS) Crashed() bool { return f.crashed.Load() }

// check consults the plan for one operation op on path; a nil error lets the
// operation proceed. Otherwise keep is how much of the operation lands before
// it fails: the torn prefix of a write (n is its length), or 1 when a
// crashing rename (n is 2) completed.
func (f *FaultFS) check(op fault.Op, path string, n int) (keep int, err error) {
	if f.crashed.Load() {
		return 0, ErrCrashed
	}
	flt, draw := f.Check(op, path, n)
	if flt == nil {
		return 0, nil
	}
	cause := flt.Err
	if cause == nil {
		cause = ErrNoSpace
	}
	err = fmt.Errorf("vfs: injected %s fault on %s: %w", op, path, cause)
	switch flt.Kind {
	case fault.Torn:
		return draw, err
	case fault.Crash:
		f.crashed.Store(true)
		return draw, fmt.Errorf("%w: %v", ErrCrashed, err)
	}
	return 0, err
}

// OpenFile opens name, faulting creation when O_CREATE is requested.
func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if flag&os.O_CREATE != 0 {
		if _, err := f.check(fault.Create, name, 0); err != nil {
			return nil, err
		}
	}
	file, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, path: name}, nil
}

// Rename renames, subject to Rename faults. Under a Crash fault a seeded
// coin decides whether the rename completed before the simulated crash.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	if landed, err := f.check(fault.Rename, newpath, 2); err != nil {
		if landed == 1 {
			_ = f.base.Rename(oldpath, newpath)
		}
		return err
	}
	return f.base.Rename(oldpath, newpath)
}

// Remove deletes, subject to Remove faults.
func (f *FaultFS) Remove(name string) error {
	if _, err := f.check(fault.Remove, name, 0); err != nil {
		return err
	}
	return f.base.Remove(name)
}

// Stat is never faulted: metadata reads don't mutate anything.
func (f *FaultFS) Stat(name string) (fs.FileInfo, error) { return f.base.Stat(name) }

// MkdirAll is never faulted.
func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	return f.base.MkdirAll(path, perm)
}

// Glob is never faulted.
func (f *FaultFS) Glob(pattern string) ([]string, error) { return f.base.Glob(pattern) }

// SyncDir fsyncs a directory, subject to Sync faults.
func (f *FaultFS) SyncDir(dir string) error {
	if _, err := f.check(fault.Sync, dir, 0); err != nil {
		return err
	}
	return f.base.SyncDir(dir)
}

// faultFile wraps a File with the owning FaultFS's fault plan.
type faultFile struct {
	File
	fs   *FaultFS
	path string
}

func (f *faultFile) Write(p []byte) (int, error) {
	if torn, err := f.fs.check(fault.Write, f.path, len(p)); err != nil {
		n := 0
		if torn > 0 {
			n, _ = f.File.Write(p[:torn])
		}
		return n, err
	}
	return f.File.Write(p)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if torn, err := f.fs.check(fault.Write, f.path, len(p)); err != nil {
		n := 0
		if torn > 0 {
			n, _ = f.File.WriteAt(p[:torn], off)
		}
		return n, err
	}
	return f.File.WriteAt(p, off)
}

func (f *faultFile) Sync() error {
	if _, err := f.fs.check(fault.Sync, f.path, 0); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if _, err := f.fs.check(fault.Truncate, f.path, 0); err != nil {
		return err
	}
	return f.File.Truncate(size)
}

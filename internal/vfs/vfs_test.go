package vfs

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/tea-graph/tea/internal/fault"
)

func writeFile(t *testing.T, fsys FS, path string, data []byte) error {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a")
	if err := writeFile(t, OS, path, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := OS.Rename(path, filepath.Join(dir, "b")); err != nil {
		t.Fatal(err)
	}
	if err := OS.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	st, err := OS.Stat(filepath.Join(dir, "b"))
	if err != nil || st.Size() != 5 {
		t.Fatalf("stat: %v size %d", err, st.Size())
	}
	got, err := OS.Glob(filepath.Join(dir, "*"))
	if err != nil || len(got) != 1 {
		t.Fatalf("glob: %v %v", got, err)
	}
}

func TestFaultENOSPCAfterN(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, fault.New(1))
	ffs.Inject(fault.Fault{Op: fault.Write, After: 2})
	f, err := ffs.OpenFile(filepath.Join(dir, "x"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 2; i++ {
		if _, err := f.Write([]byte("ok")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	_, err = f.Write([]byte("boom"))
	if !IsNoSpace(err) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	// Sticky until healed.
	if _, err := f.Write([]byte("again")); !IsNoSpace(err) {
		t.Fatalf("fault not sticky: %v", err)
	}
	ffs.Heal()
	if _, err := f.Write([]byte("fine")); err != nil {
		t.Fatalf("after heal: %v", err)
	}
	if ffs.Fired() != 2 {
		t.Fatalf("fired = %d, want 2", ffs.Fired())
	}
}

func TestFaultTornWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, fault.New(7))
	ffs.Inject(fault.Fault{Op: fault.Write, Kind: fault.Torn, Once: true})
	path := filepath.Join(dir, "torn")
	err := writeFile(t, ffs, path, []byte("0123456789abcdef"))
	if err == nil {
		t.Fatal("torn write did not fail")
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= 16 {
		t.Fatalf("torn write left %d bytes, want a strict prefix of 16", st.Size())
	}
	// Once: the next write goes through whole.
	if err := writeFile(t, ffs, path, []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
}

func TestFaultCrashAtRename(t *testing.T) {
	// Both coin outcomes must occur across seeds, and after the crash every
	// mutating op fails until Heal.
	outcomes := map[bool]bool{}
	for seed := int64(0); seed < 16; seed++ {
		dir := t.TempDir()
		ffs := NewFaultFS(OS, fault.New(seed))
		ffs.Inject(fault.Fault{Op: fault.Rename, Kind: fault.Crash})
		old := filepath.Join(dir, "old")
		if err := writeFile(t, ffs, old, []byte("x")); err != nil {
			t.Fatal(err)
		}
		err := ffs.Rename(old, filepath.Join(dir, "new"))
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("rename err = %v, want ErrCrashed", err)
		}
		_, statErr := os.Stat(filepath.Join(dir, "new"))
		outcomes[statErr == nil] = true
		if !ffs.Crashed() {
			t.Fatal("not crashed after crash fault")
		}
		if err := writeFile(t, ffs, filepath.Join(dir, "z"), []byte("y")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("write after crash: %v", err)
		}
		if err := ffs.Remove(old); !errors.Is(err, ErrCrashed) {
			t.Fatalf("remove after crash: %v", err)
		}
		ffs.Heal()
		if err := writeFile(t, ffs, filepath.Join(dir, "z"), []byte("y")); err != nil {
			t.Fatalf("write after heal: %v", err)
		}
	}
	if !outcomes[true] || !outcomes[false] {
		t.Fatalf("crash-at-rename never exercised both orders: %v", outcomes)
	}
}

func TestFaultPathFilterAndSync(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, fault.New(3))
	ffs.Inject(fault.Fault{Op: fault.Sync, Target: "victim", Err: errors.New("injected: fsync")})
	ok := filepath.Join(dir, "bystander")
	if err := writeFile(t, ffs, ok, []byte("x")); err != nil {
		t.Fatalf("bystander faulted: %v", err)
	}
	err := writeFile(t, ffs, filepath.Join(dir, "victim"), []byte("x"))
	if err == nil || IsNoSpace(err) {
		t.Fatalf("victim sync err = %v", err)
	}
	// Directory syncs match OpSync faults too.
	ffs.Heal()
	ffs.Inject(fault.Fault{Op: fault.Sync, Err: errors.New("injected: dirsync")})
	if err := ffs.SyncDir(dir); err == nil {
		t.Fatal("dir sync did not fault")
	}
}

func TestFaultCreate(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, fault.New(3))
	ffs.Inject(fault.Fault{Op: fault.Create})
	if _, err := ffs.OpenFile(filepath.Join(dir, "n"), os.O_RDWR|os.O_CREATE, 0o644); !IsNoSpace(err) {
		t.Fatalf("create: %v", err)
	}
	if _, err := ffs.CreateTemp(dir, "tmp-*"); !IsNoSpace(err) {
		t.Fatalf("createtemp: %v", err)
	}
	// Opening an existing file is not creation.
	ffs.Heal()
	if err := writeFile(t, ffs, filepath.Join(dir, "e"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(fault.Fault{Op: fault.Create})
	if _, err := ffs.OpenFile(filepath.Join(dir, "e"), os.O_RDWR, 0); err != nil {
		t.Fatalf("plain open faulted: %v", err)
	}
}

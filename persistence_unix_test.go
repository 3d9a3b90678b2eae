//go:build unix

package tea

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// A saved index lands with the mode os.Create gives, not the temp file's
// 0600, so other users can load it: 0644 under umask 022.
func TestSaveIndexFileMode(t *testing.T) {
	old := syscall.Umask(0o022)
	defer syscall.Umask(old)
	eng, err := NewEngine(CommuteGraph(), Unbiased(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.teai")
	if err := SaveIndex(eng, path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if mode := fi.Mode().Perm(); mode != 0o644 {
		t.Fatalf("saved index has mode %#o, want 0644", mode)
	}
}

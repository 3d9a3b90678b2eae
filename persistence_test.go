package tea

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/tea-graph/tea/internal/fault"
	"github.com/tea-graph/tea/internal/vfs"
)

func TestSaveAndLoadIndex(t *testing.T) {
	profile := DatasetProfile{Name: "t", Vertices: 300, Edges: 8000, Skew: 0.8, Seed: 41}
	g, err := profile.Build()
	if err != nil {
		t.Fatal(err)
	}
	app := ExponentialWalk(0.001)
	eng, err := NewEngine(g, app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.teai")
	if err := SaveIndex(eng, path); err != nil {
		t.Fatal(err)
	}

	loaded, err := NewEngineWithIndex(g, app, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Same seed must reproduce the exact same walks through the loaded index.
	a, err := eng.Run(WalkConfig{Length: 12, Seed: 6, KeepPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Run(WalkConfig{Length: 12, Seed: 6, KeepPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost.Steps != b.Cost.Steps {
		t.Fatalf("steps %d vs %d", a.Cost.Steps, b.Cost.Steps)
	}
	for i := range a.Paths {
		if len(a.Paths[i].Vertices) != len(b.Paths[i].Vertices) {
			t.Fatalf("path %d length differs", i)
		}
		for j := range a.Paths[i].Vertices {
			if a.Paths[i].Vertices[j] != b.Paths[i].Vertices[j] {
				t.Fatalf("path %d vertex %d differs", i, j)
			}
		}
	}
}

func TestSaveIndexRejectsNonHPAT(t *testing.T) {
	g := CommuteGraph()
	eng, err := NewEngine(g, Unbiased(), Options{Method: MethodITS})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveIndex(eng, filepath.Join(t.TempDir(), "x")); err == nil {
		t.Fatal("ITS engine saved as HPAT")
	}
}

// A failed save must leave a previously saved index untouched: SaveIndex
// writes to a temp file and renames only on success.
func TestSaveIndexFailureLeavesOldFileIntact(t *testing.T) {
	profile := DatasetProfile{Name: "t", Vertices: 100, Edges: 1000, Skew: 0.8, Seed: 42}
	g, err := profile.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, Unbiased(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "index.teai")
	if err := SaveIndex(eng, path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Inject a write failure: the very first write of the new index fails
	// mid-save.
	fileFS = vfs.NewFaultFS(vfs.OS, fault.New(1, fault.Fault{Op: fault.Write, Target: ".tea-index-"}))
	defer func() { fileFS = vfs.OS }()

	if err := SaveIndex(eng, path); err == nil {
		t.Fatal("save through a failing write succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("old index gone after failed save: %v", err)
	}
	if len(after) != len(before) {
		t.Fatalf("old index changed by failed save: %d -> %d bytes", len(before), len(after))
	}
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("old index byte %d changed by failed save", i)
		}
	}
	// And the failed attempt cleaned up its temp file.
	if tmps, _ := filepath.Glob(filepath.Join(dir, ".tea-index-*")); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
	// A healthy retry still works and the result loads.
	fileFS = vfs.OS
	if err := SaveIndex(eng, path); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngineWithIndex(g, Unbiased(), path, Options{}); err != nil {
		t.Fatal(err)
	}
}

// A torn write of a .teag leaves the previous file's bytes and no temp file.
func TestWriteBinaryFileFailureLeavesOldFileIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.teag")
	if err := WriteBinaryFile(path, []Edge{{Src: 0, Dst: 1, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fileFS = vfs.NewFaultFS(vfs.OS, fault.New(1, fault.Fault{Op: fault.Write, Target: ".teag-"}))
	defer func() { fileFS = vfs.OS }()
	if err := WriteBinaryFile(path, []Edge{{Src: 0, Dst: 1, Time: 1}, {Src: 1, Dst: 2, Time: 2}}); err == nil {
		t.Fatal("write through a failing filesystem succeeded")
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(before) {
		t.Fatalf("old file changed by a failed write (err %v)", err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, ".teag-*")); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}

func TestLoadIndexErrors(t *testing.T) {
	g := CommuteGraph()
	if _, err := NewEngineWithIndex(g, Unbiased(), "/nonexistent/idx", Options{}); err == nil {
		t.Fatal("missing index accepted")
	}
}

// TestSaveIndexBytesPinned pins the file SaveIndex writes for a fixed
// engine, footer included.
func TestSaveIndexBytesPinned(t *testing.T) {
	const want = "8ec21a8e1352c6ca41b204bf11e47bbd8072fbe8e3cedced669f3106862dbab5"
	profile := DatasetProfile{Name: "t", Vertices: 120, Edges: 2500, Skew: 0.8, Seed: 43}
	g, err := profile.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, ExponentialWalk(0.002), Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.teai")
	if err := SaveIndex(eng, path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("SaveIndex (%d bytes): sha256 %s, want %s", len(b), got, want)
	}
}

// An engine loaded by NewEngineWithIndex holds no weights, yet walks
// exactly like the engine that saved the index, and saving it again (its
// weights rebuilt from the graph) writes the same file, which
// TestSaveIndexBytesPinned pins.
func TestLoadedIndexWalksAndSavesIdentically(t *testing.T) {
	profile := DatasetProfile{Name: "t", Vertices: 120, Edges: 2500, Skew: 0.8, Seed: 43}
	g, err := profile.Build()
	if err != nil {
		t.Fatal(err)
	}
	app := ExponentialWalk(0.002)
	eng, err := NewEngine(g, app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	built, loadedPath := filepath.Join(dir, "built.teai"), filepath.Join(dir, "loaded.teai")
	if err := SaveIndex(eng, built); err != nil {
		t.Fatal(err)
	}
	loaded, err := NewEngineWithIndex(g, app, built, Options{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := WalkConfig{Length: 40, Seed: 9, WalksPerVertex: 2, KeepPaths: true}
	a, err := eng.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || !reflect.DeepEqual(a.Paths, b.Paths) {
		t.Fatalf("loaded engine walks differ: cost %+v vs %+v", a.Cost, b.Cost)
	}
	if err := SaveIndex(loaded, loadedPath); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(built)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(loadedPath); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("re-saved index differs from the saved one (err %v)", err)
	}
}

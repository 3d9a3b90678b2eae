package tea

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/tea-graph/tea/internal/chksum"
	"github.com/tea-graph/tea/internal/edgeio"
	"github.com/tea-graph/tea/internal/hpat"
)

func writeMutated(t *testing.T, dir, name string, data []byte, mutate func([]byte) []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, mutate(append([]byte(nil), data...)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Every way a binary edge file can rot — truncation at any layer, a flipped
// payload byte, a damaged footer — must surface as a classified error, and a
// pre-footer (legacy) file must still load.
func TestLoadBinaryFileCorruption(t *testing.T) {
	edges := []Edge{
		{Src: 0, Dst: 1, Time: 1},
		{Src: 1, Dst: 2, Time: 3},
		{Src: 2, Dst: 0, Time: 5},
		{Src: 0, Dst: 2, Time: 7},
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.bin")
	if err := WriteBinaryFile(good, edges); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"empty", func(b []byte) []byte { return nil }, edgeio.ErrBadFormat},
		{"mid-magic", func(b []byte) []byte { return b[:4] }, edgeio.ErrBadFormat},
		{"mid-count", func(b []byte) []byte { return b[:12] }, edgeio.ErrBadFormat},
		{"mid-record", func(b []byte) []byte { return b[:len(b)-chksum.FooterSize-7] }, edgeio.ErrBadFormat},
		{"payload-bitflip", func(b []byte) []byte { b[20] ^= 0x40; return b }, edgeio.ErrCorrupt},
		{"partial-footer", func(b []byte) []byte { return b[:len(b)-3] }, edgeio.ErrCorrupt},
		{"footer-bitflip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, edgeio.ErrCorrupt},
	} {
		path := writeMutated(t, dir, tc.name+".bin", data, tc.mutate)
		if _, err := LoadBinaryFile(path); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// A legacy file (no footer at all) still loads.
	legacy := writeMutated(t, dir, "legacy.bin", data, func(b []byte) []byte {
		return b[:len(b)-chksum.FooterSize]
	})
	g, err := LoadBinaryFile(legacy)
	if err != nil {
		t.Fatalf("legacy file rejected: %v", err)
	}
	if g.NumEdges() != len(edges) {
		t.Fatalf("legacy load got %d edges, want %d", g.NumEdges(), len(edges))
	}
}

// The serialized HPAT index gets the same treatment, except that its format
// (v2) has always carried the footer: a footer-less index is corrupt, and a
// file of the previous format version is refused by name, never mis-parsed.
func TestNewEngineWithIndexCorruption(t *testing.T) {
	profile := DatasetProfile{Name: "t", Vertices: 200, Edges: 4000, Skew: 0.8, Seed: 17}
	g, err := profile.Build()
	if err != nil {
		t.Fatal(err)
	}
	app := ExponentialWalk(0.001)
	eng, err := NewEngine(g, app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.teai")
	if err := SaveIndex(eng, good); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"empty", func(b []byte) []byte { return nil }, hpat.ErrIndexFormat},
		{"mid-header", func(b []byte) []byte { return b[:20] }, hpat.ErrIndexFormat},
		{"truncated-half", func(b []byte) []byte { return b[:len(b)/2] }, hpat.ErrIndexFormat},
		{"v1-magic", func(b []byte) []byte { b[7] = 1; return b }, hpat.ErrIndexFormat},
		{"payload-bitflip", func(b []byte) []byte { b[100] ^= 0x40; return b }, hpat.ErrIndexCorrupt},
		{"slots-bitflip", func(b []byte) []byte { b[len(b)-chksum.FooterSize-5] ^= 0x01; return b }, hpat.ErrIndexCorrupt},
		{"no-footer", func(b []byte) []byte { return b[:len(b)-chksum.FooterSize] }, hpat.ErrIndexCorrupt},
		{"partial-footer", func(b []byte) []byte { return b[:len(b)-3] }, hpat.ErrIndexCorrupt},
		{"footer-bitflip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, hpat.ErrIndexCorrupt},
	} {
		path := writeMutated(t, dir, tc.name+".teai", data, tc.mutate)
		_, err := NewEngineWithIndex(g, app, path, Options{})
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if tc.name == "v1-magic" && !strings.Contains(err.Error(), "format version 1, rebuild with SaveIndex") {
			t.Errorf("v1 index: err = %v, want the version named", err)
		}
	}

	// The intact file reproduces the builder's seeded walks byte for byte.
	loaded, err := NewEngineWithIndex(g, app, good, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := WalkConfig{Length: 10, Seed: 3, KeepPaths: true}
	a, err := eng.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Paths, b.Paths) {
		t.Fatal("loaded index walks differ from the engine that saved it")
	}
}

package tea

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/hpat"
)

// indexTemp creates the temporary file SaveIndex writes into. A seam so
// tests can inject write failures without filesystem tricks.
var indexTemp = func(dir string) (*os.File, error) {
	return os.CreateTemp(dir, ".tea-index-*")
}

// SaveIndex persists an engine's HPAT index (trunk alias tables, prefix
// sums, and the edge weights) so preprocessing can be done once and reused:
// load it back with NewEngineWithIndex. Only HPAT-method engines (the
// default) can be saved.
//
// The write is atomic: the index goes to a temp file in the same directory,
// is fsynced, and is renamed over path only then — a crash or write failure
// partway leaves any previous index at path intact instead of replacing it
// with a truncated one.
func SaveIndex(eng *Engine, path string) error {
	idx, ok := eng.Sampler().(*hpat.Index)
	if !ok {
		return fmt.Errorf("tea: engine sampler %q is not an HPAT index", eng.Sampler().Name())
	}
	dir := filepath.Dir(path)
	f, err := indexTemp(dir)
	if err != nil {
		return fmt.Errorf("tea: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := idx.WriteTo(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("tea: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tea: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tea: %w", err)
	}
	// The rename is not durable until the directory entry is: a crash before
	// the directory sync can silently resurrect the previous index.
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("tea: sync index dir: %w", err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("tea: sync index dir: %w", err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("tea: sync index dir: %w", err)
	}
	return nil
}

// NewEngineWithIndex builds an engine whose HPAT index is loaded from a file
// written by SaveIndex instead of rebuilt; g must be the same graph the
// index was built for. The app must use the same Dynamic_weight the index
// was built with — the stored per-edge weights are reused verbatim.
//
// The file must be whole and of the current format: a missing or mismatched
// CRC-32C footer is hpat.ErrIndexCorrupt, and a file written in an older
// index format is hpat.ErrIndexFormat naming its version — rebuild the
// engine and SaveIndex again.
func NewEngineWithIndex(g *Graph, app App, path string, opts Options) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tea: %w", err)
	}
	defer f.Close()
	idx, err := hpat.ReadIndex(f, g)
	if err != nil {
		return nil, err
	}
	opts.ExternalSampler = idx
	opts.ExternalWeights = idx.Weights()
	return core.NewEngine(g, app, opts)
}

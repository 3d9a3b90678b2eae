package tea

import (
	"fmt"
	"io"
	"os"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/hpat"
	"github.com/tea-graph/tea/internal/vfs"
)

// fileFS is the filesystem SaveIndex and WriteBinaryFile write through, so
// tests can inject write failures.
var fileFS = vfs.OS

// SaveIndex persists an engine's HPAT index (trunk alias tables, prefix
// sums, and the edge weights) so preprocessing can be done once and reused:
// load it back with NewEngineWithIndex. Only HPAT-method engines (the
// default) can be saved.
//
// The write is atomic (vfs.ReplaceFile): a crash or write failure partway
// leaves any previous index at path intact instead of replacing it with a
// truncated one.
func SaveIndex(eng *Engine, path string) error {
	idx, ok := eng.Sampler().(*hpat.Index)
	if !ok {
		return fmt.Errorf("tea: engine sampler %q is not an HPAT index", eng.Sampler().Name())
	}
	err := vfs.ReplaceFile(fileFS, path, ".tea-index-*", func(w io.Writer) error {
		_, err := idx.WriteTo(w)
		return err
	})
	if err != nil {
		return fmt.Errorf("tea: %w", err)
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

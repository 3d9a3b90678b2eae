package hpat

import "github.com/tea-graph/tea/internal/xrand"

// Table is a self-contained HPAT over one contiguous, newest-first weight
// run. The streaming engine (§3.5) keeps one Table per segment of a vertex's
// edge list and merges segments LSM-style, so Tables must own their storage
// (unlike Index, which packs the whole graph into flat arrays).
type Table struct {
	w     []float64
	cum   []float64
	slots []uint64
}

// NewTable builds a standalone HPAT for the given weights (newest first).
// The weight slice is copied so callers may reuse their buffers.
func NewTable(w []float64) *Table {
	n := len(w)
	t := &Table{
		w:     append([]float64(nil), w...),
		cum:   make([]float64, n+1),
		slots: make([]uint64, slotCount(n)),
	}
	buildBlock(t.w, t.cum, t.slots, new(blockScratch))
	return t
}

// Len returns the number of edges the table covers.
func (t *Table) Len() int { return len(t.w) }

// Total returns the combined weight of the k newest edges (k ≤ Len).
func (t *Table) Total(k int) float64 { return t.cum[k] }

// Weights returns the table's weight array, newest first. Read-only.
func (t *Table) Weights() []float64 { return t.w }

// Sample draws an index from the k newest edges of the table. aux may be nil,
// in which case the decomposition is computed on the fly.
func (t *Table) Sample(k int, aux *AuxIndex, r *xrand.Rand) (idx int, evaluated int64, ok bool) {
	if k <= 0 || len(t.w) == 0 {
		return 0, 0, false
	}
	if k > len(t.w) {
		k = len(t.w)
	}
	var dec []DecompEntry
	if aux != nil && k <= aux.MaxSize() {
		dec = aux.Decomp(k)
	} else {
		var buf [maxLevels]DecompEntry
		dec = Decompose(k, buf[:0])
	}
	return sampleBlock(t.cum, t.slots, len(t.w), k, dec, r)
}

// MemoryBytes returns the table footprint.
func (t *Table) MemoryBytes() int64 {
	return int64(len(t.w))*8 + int64(len(t.cum))*8 + int64(len(t.slots))*8
}

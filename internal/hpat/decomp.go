// Package hpat implements the Hierarchical Persistent Alias Table of §3.3 of
// the TEA paper together with its auxiliary index (§3.4).
//
// For a vertex with n out-edges (newest first), HPAT keeps, for every level
// k ≤ ⌊log2 n⌋, alias tables over the trunks τ^{k,i} = edges
// [i·2^k, (i+1)·2^k). A temporal candidate set is always a prefix of length
// m, and m binary-decomposes into at most ⌊log2 m⌋+1 aligned trunks; inverse
// transform sampling over those trunk boundaries (using the vertex's per-edge
// prefix-sum array C) picks a trunk in O(log log D), and the trunk's alias
// table picks the edge in O(1). Tables are stored from level minTableLevel
// up; the trunks below it are sampled together as one tail run by ITS on C
// (layout.go).
//
// The auxiliary index exploits that the decomposition depends only on m, not
// on the vertex: one global table for m = 1..maxDegree gives O(1) lookup.
package hpat

import (
	"fmt"
	"math/bits"

	"github.com/tea-graph/tea/internal/par"
)

// DecompEntry is one trunk of a prefix decomposition: the trunk spans edges
// [Pos, Pos+2^Level).
type DecompEntry struct {
	Pos   int32
	Level uint8
}

// Size returns the trunk length 2^Level.
func (d DecompEntry) Size() int { return 1 << d.Level }

// Decompose appends the binary decomposition of the prefix length m to buf:
// greedy largest-power-of-two trunks from position 0. Every produced trunk is
// aligned (Pos is a multiple of its size), which is what makes the HPAT trunk
// tables applicable.
func Decompose(m int, buf []DecompEntry) []DecompEntry {
	pos := int32(0)
	for m > 0 {
		level := uint8(bits.Len(uint(m)) - 1)
		buf = append(buf, DecompEntry{Pos: pos, Level: level})
		pos += 1 << level
		m -= 1 << level
	}
	return buf
}

// AuxIndex is the global auxiliary index of §3.4: the precomputed trunk
// decomposition of every candidate-set size 1..MaxSize. Lookup is O(1); the
// table holds Σ_{m≤D} popcount(m) entries.
type AuxIndex struct {
	off     []int64
	entries []DecompEntry
}

// BuildAuxIndex precomputes decompositions for sizes 1..maxSize with the
// given number of threads (<1 means GOMAXPROCS). Every size's entries sit at
// an offset fixed by the popcounts before the fill, so sizes are filled
// independently in parallel (§4.2 "auxiliary index generation").
func BuildAuxIndex(maxSize, threads int) *AuxIndex {
	if maxSize < 0 {
		maxSize = 0
	}
	off := make([]int64, maxSize+2)
	total := int64(0)
	for m := 0; m <= maxSize; m++ {
		total += int64(bits.OnesCount(uint(m)))
		off[m+1] = total
	}
	entries := make([]DecompEntry, total)
	par.For(maxSize+1, threads, func(_, lo, hi int) {
		for m := lo; m < hi; m++ {
			fillDecomp(m, entries[off[m]:off[m+1]])
		}
	})
	return &AuxIndex{off: off, entries: entries}
}

// fillDecomp writes the decomposition of m into dst, which must have exactly
// popcount(m) entries.
func fillDecomp(m int, dst []DecompEntry) {
	pos := int32(0)
	i := 0
	for m > 0 {
		level := uint8(bits.Len(uint(m)) - 1)
		dst[i] = DecompEntry{Pos: pos, Level: level}
		pos += 1 << level
		m -= 1 << level
		i++
	}
}

// MaxSize returns the largest size the index covers.
func (a *AuxIndex) MaxSize() int { return len(a.off) - 2 }

// Decomp returns the decomposition of size m as a shared read-only slice.
// It panics if m is outside [0, MaxSize].
func (a *AuxIndex) Decomp(m int) []DecompEntry {
	if m < 0 || m > a.MaxSize() {
		panic(fmt.Sprintf("hpat: decomposition size %d outside index range [0,%d]", m, a.MaxSize()))
	}
	return a.entries[a.off[m]:a.off[m+1]]
}

// MemoryBytes returns the footprint of the index.
func (a *AuxIndex) MemoryBytes() int64 {
	return int64(len(a.off))*8 + int64(len(a.entries))*8
}

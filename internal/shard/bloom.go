package shard

import (
	"math"

	"github.com/tea-graph/tea/internal/temporal"
)

// edgeBloom is a Bloom filter over directed vertex pairs, replicated to
// every partition so temporal node2vec's β test — "is the candidate a
// neighbor of the previous vertex?" (d(w,v) = 1 in Eq. 4) — can be answered
// locally even when the previous vertex's adjacency lives on another shard.
// This is the standard replicated-membership trick a networked deployment
// would use: bits-per-edge memory instead of full adjacency replication,
// with a small, quantifiable false-positive probability (false positives
// upgrade a 1/q candidate to β=1; no path is ever invalidated).
type edgeBloom struct {
	bits   []uint64
	mask   uint64
	hashes int
}

// newEdgeBloom sizes the filter at ~bitsPerEdge bits per edge (rounded to a
// power of two) with the corresponding optimal hash count.
func newEdgeBloom(numEdges int, bitsPerEdge int) *edgeBloom {
	if numEdges < 1 {
		numEdges = 1
	}
	if bitsPerEdge < 1 {
		bitsPerEdge = 10
	}
	want := uint64(numEdges) * uint64(bitsPerEdge)
	size := uint64(64)
	for size < want {
		size <<= 1
	}
	k := int(math.Round(float64(size) / float64(numEdges) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &edgeBloom{
		bits:   make([]uint64, size/64),
		mask:   size - 1,
		hashes: k,
	}
}

// mix64 is the splitmix64 finalizer: a fast, well-dispersed 64-bit mixer
// (the same construction xrand uses for seed expansion).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func pairKey(u, v temporal.Vertex) uint64 {
	return uint64(u)<<32 | uint64(v)
}

// add inserts the directed pair (u, v).
func (b *edgeBloom) add(u, v temporal.Vertex) {
	h1 := mix64(pairKey(u, v))
	h2 := mix64(h1 ^ 0x9e3779b97f4a7c15)
	if h2 == 0 {
		h2 = 1
	}
	for i := 0; i < b.hashes; i++ {
		pos := (h1 + uint64(i)*h2) & b.mask
		b.bits[pos>>6] |= 1 << (pos & 63)
	}
}

// has reports whether (u, v) may be present (no false negatives).
func (b *edgeBloom) has(u, v temporal.Vertex) bool {
	h1 := mix64(pairKey(u, v))
	h2 := mix64(h1 ^ 0x9e3779b97f4a7c15)
	if h2 == 0 {
		h2 = 1
	}
	for i := 0; i < b.hashes; i++ {
		pos := (h1 + uint64(i)*h2) & b.mask
		if b.bits[pos>>6]&(1<<(pos&63)) == 0 {
			return false
		}
	}
	return true
}

// memoryBytes reports the filter footprint.
func (b *edgeBloom) memoryBytes() int64 { return int64(len(b.bits)) * 8 }

// Package shard turns the walk engine into an N-process cluster: a
// consistent-hash Partitioner assigns every vertex to exactly one shard, each
// shard builds the HPAT index of its own vertices only, and walkers migrate
// between shards in batched frames over a compact binary RPC (package
// shard/wire). The execution model is the walker-centric migration model the
// paper credits to KnightKing (§4.4), with at most one message per step:
// PAT/HPAT sampling needs no rejection round trips, so a whole frontier
// crosses a shard boundary in a single frame per peer per round, and the
// receiving shard takes every consecutive step it owns before answering.
//
// The correctness oracle is the engine's determinism invariant: a walker's
// randomness is its private stream root.Split(walkID), carried inside the
// migration frame, so seeded walks replay byte-identically for any shard
// count — including one. Cluster runs the same nodes inside one process.
package shard

import (
	"fmt"
	"sort"

	"github.com/tea-graph/tea/internal/temporal"
)

// ringPointsPerPartition is the number of virtual nodes each partition
// places on the hash ring. 256 points keep the expected max/mean partition
// load within ~1.15 (the skew test enforces ≤ 1.2 on adversarial strided-id
// graphs) while the whole ring stays small enough that Owner's binary search
// is a handful of cache lines.
const ringPointsPerPartition = 256

// ringSalt separates the ring-point input domain from the vertex-hash input
// domain. Without it, partition 0's points are mix64(0<<32|rep) = mix64(rep)
// — exactly the hashes of vertex ids < ringPointsPerPartition — so the
// binary search for any small-id vertex lands on partition 0's own point and
// shard 0 silently owns every small vertex (the common case: compact
// sequential ids). Any fixed odd constant works; it only has to make the two
// input sets disjoint.
const ringSalt = 0x5bf03635bd1b96a5

// Partitioner maps vertex ids onto shard ids via a consistent-hash ring. It
// is a pure function of the partition count: every process that constructs a
// Partitioner with the same count computes identical ownership, which is what
// lets the stateless router and every shard agree without any coordination.
//
// A plain id%partitions assignment degenerates under strided vertex ids
// (e.g. ids minted as k·P+c by an upstream system put every vertex on one
// shard); hashing each id through a 64-bit mixer first makes the assignment
// insensitive to any id structure.
type Partitioner struct {
	partitions int
	points     []uint64 // sorted ring positions
	owner      []int32  // owner[i] is the partition owning points[i]
}

// NewPartitioner builds the ring for the given partition count.
func NewPartitioner(partitions int) (*Partitioner, error) {
	if partitions < 1 {
		return nil, fmt.Errorf("shard: need at least one partition, got %d", partitions)
	}
	p := &Partitioner{
		partitions: partitions,
		points:     make([]uint64, 0, partitions*ringPointsPerPartition),
		owner:      make([]int32, 0, partitions*ringPointsPerPartition),
	}
	type pt struct {
		pos  uint64
		part int32
	}
	pts := make([]pt, 0, partitions*ringPointsPerPartition)
	for part := 0; part < partitions; part++ {
		for rep := 0; rep < ringPointsPerPartition; rep++ {
			pos := mix64(ringSalt ^ (uint64(part)<<32 | uint64(rep)))
			pts = append(pts, pt{pos: pos, part: int32(part)})
		}
	}
	// Ties (vanishingly rare) are broken by partition id so the ring is a
	// deterministic function of the count alone.
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].pos != pts[b].pos {
			return pts[a].pos < pts[b].pos
		}
		return pts[a].part < pts[b].part
	})
	for _, q := range pts {
		p.points = append(p.points, q.pos)
		p.owner = append(p.owner, q.part)
	}
	return p, nil
}

// MustPartitioner is NewPartitioner for callers with a validated count.
func MustPartitioner(partitions int) *Partitioner {
	p, err := NewPartitioner(partitions)
	if err != nil {
		panic(err)
	}
	return p
}

// Partitions returns the partition count the ring was built for.
func (p *Partitioner) Partitions() int { return p.partitions }

// Owner returns the shard owning vertex v: the first ring point at or after
// the vertex's hashed position, wrapping at the top.
func (p *Partitioner) Owner(v temporal.Vertex) int {
	if p.partitions == 1 {
		return 0
	}
	h := mix64(uint64(v))
	pts := p.points
	// Binary search for the first point >= h.
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(pts) {
		lo = 0 // wrap
	}
	return int(p.owner[lo])
}

// mix64 is the splitmix64 finalizer: a fast, well-dispersed 64-bit mixer
// (the same construction xrand uses for seed expansion).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

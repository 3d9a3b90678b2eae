// Package shard turns the walk engine into an N-process cluster: a
// Partitioner assigns every vertex to exactly one shard by the time its
// out-edges are active, each shard builds the HPAT index of its own vertices
// only, and walkers migrate between shards in batched frames over a compact
// binary RPC (package shard/wire). The execution model is the walker-centric
// migration model the paper credits to KnightKing (§4.4), with at most one
// message per step: PAT/HPAT sampling needs no rejection round trips, so a
// whole frontier crosses a shard boundary in a single frame per peer per
// round, and the receiving shard takes every consecutive step it owns before
// answering. A temporal walk's timestamps only increase, so on a graph whose
// vertices are active in short stretches of time a walk moves forward through
// the timeline's cuts and rarely changes owner.
//
// The correctness oracle is the engine's determinism invariant: a walker's
// randomness is its private stream root.Split(walkID), carried inside the
// migration frame, so seeded walks replay byte-identically for any shard
// count — including one. Cluster runs the same nodes inside one process.
package shard

import (
	"fmt"
	"math"
	"slices"

	"github.com/tea-graph/tea/internal/temporal"
)

// Partitioner maps vertex ids onto shard ids by activity time. Every vertex
// has a key, the median timestamp of its out-edges (the latest timestamp of
// its in-edges if it has none, since that is where walkers reach it).
// Vertices sorted by (key, id) are cut into Partitions contiguous ranges of
// equal out-edge count, so each shard holds one stretch of the timeline and a
// walk, whose timestamps only increase, stays on one shard for most of its
// steps. A vertex is never split: a hub larger than E/P lands whole on one
// shard.
//
// The table is a pure function of the graph and the partition count, computed
// in integers only, so every process and replica that loads the same graph
// file derives the same ownership with no coordination.
type Partitioner struct {
	partitions int
	owner      []uint16 // owner[v] is the shard owning vertex v
}

// NewPartitioner computes the owner table of g for the given partition count.
func NewPartitioner(g *temporal.Graph, partitions int) (*Partitioner, error) {
	if partitions < 1 || partitions > math.MaxUint16+1 {
		return nil, fmt.Errorf("shard: partition count %d outside [1, %d]", partitions, math.MaxUint16+1)
	}
	order := make([]keyed, g.NumVertices())
	sinks := false
	for i := range order {
		v := temporal.Vertex(i)
		order[i] = keyed{key: temporal.MinTime, v: v}
		if ts := g.OutTimes(v); len(ts) > 0 {
			order[i].key = ts[len(ts)/2]
		} else {
			sinks = true
		}
	}
	if sinks {
		for u := range order {
			ts := g.OutTimes(temporal.Vertex(u))
			for i, d := range g.OutDst(temporal.Vertex(u)) {
				if g.Degree(d) == 0 {
					order[d].key = max(order[d].key, ts[i])
				}
			}
		}
	}
	order = sortByKey(order)

	// Vertex v goes to the partition holding the midpoint of its edge range
	// [cum, cum+deg) on the sorted order's edge axis.
	p := &Partitioner{partitions: partitions, owner: make([]uint16, len(order))}
	twoE, parts := 2*uint64(g.NumEdges()), uint64(partitions)
	var cum uint64
	for _, k := range order {
		deg := uint64(g.Degree(k.v))
		if twoE > 0 {
			p.owner[k.v] = uint16(min(parts-1, (2*cum+deg)*parts/twoE))
		}
		cum += deg
	}
	return p, nil
}

// keyed is one vertex and its activity-time key.
type keyed struct {
	key temporal.Time
	v   temporal.Vertex
}

// sortByKey orders recs by key with a stable LSD radix sort on the
// sign-flipped key, the §4.2 build's sort: one pass histograms all eight
// bytes, then one scatter pass runs per byte that varies across recs. recs
// arrive in id order, so the result is their (key, id) order.
func sortByKey(recs []keyed) []keyed {
	ukey := func(r keyed) uint64 { return uint64(r.key) ^ 1<<63 }
	var count [8][256]int
	for _, r := range recs {
		k := ukey(r)
		for b := range count {
			count[b][byte(k>>(8*b))]++
		}
	}
	buf := make([]keyed, len(recs))
	for b := range count {
		next := &count[b]
		if slices.Contains(next[:], len(recs)) {
			continue // every key has the same byte b
		}
		for i, sum := 0, 0; i < len(next); i++ {
			next[i], sum = sum, sum+next[i]
		}
		for _, r := range recs {
			d := byte(ukey(r) >> (8 * b))
			buf[next[d]] = r
			next[d]++
		}
		recs, buf = buf, recs
	}
	return recs
}

// Partitions returns the partition count the table was built for.
func (p *Partitioner) Partitions() int { return p.partitions }

// Owner returns the shard owning vertex v.
func (p *Partitioner) Owner(v temporal.Vertex) int { return int(p.owner[v]) }

// memoryBytes reports the owner table's footprint.
func (p *Partitioner) memoryBytes() int64 { return int64(len(p.owner)) * 2 }

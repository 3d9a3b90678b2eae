package hpat

import (
	"context"
	"fmt"
	"testing"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// SampleBatch is held to Sample entry by entry — edge, evaluated count, ok
// and the walker's stream state afterwards — and both are held to drawByHand,
// a plain re-derivation of the draw from the prefix sums and slots that
// shares none of resolve's code: a draw that consumed its stream in another
// order would agree with itself across the two paths but not with it.

// weightedIndex builds an index over a graph whose vertex u has degs[u]
// out-edges (times 1..degs[u], so the newest-first position i is edge time
// degs[u]-i) weighted w(u, i).
func weightedIndex(t testing.TB, degs []int, w func(u, i int) float64, cfg Config) *Index {
	t.Helper()
	var edges []temporal.Edge
	for u, d := range degs {
		for i := 0; i < d; i++ {
			edges = append(edges, temporal.Edge{Src: temporal.Vertex(u), Dst: temporal.Vertex((u + 1 + i) % len(degs)), Time: temporal.Time(d - i)})
		}
	}
	g, err := temporal.FromEdges(edges, temporal.WithNumVertices(len(degs)))
	if err != nil {
		t.Fatal(err)
	}
	flat := make([]float64, g.NumEdges())
	for u := range degs {
		lo, hi := g.EdgeRange(temporal.Vertex(u))
		for e := lo; e < hi; e++ {
			flat[e] = w(u, e-lo)
		}
	}
	return Build(sampling.WrapGraphWeights(g, flat), cfg)
}

// drawByHand replays one draw from its definition: x = Range(total) picks
// the first trunk of k's decomposition (an edge, inside the tail run) whose
// end sum exceeds x; a table trunk then spends one more word, whose top bits
// pick the slot and whose low 32 bits test the slot's threshold.
func drawByHand(idx *Index, u temporal.Vertex, k int, r *xrand.Rand) (int, bool) {
	cum := idx.cumRun(u)
	deg := len(cum) - 1
	k = min(k, deg)
	if k <= 0 || !(cum[k] > 0) {
		return 0, false
	}
	x := r.Range(cum[k])
	for _, d := range Decompose(k, nil) {
		if !(cum[int(d.Pos)+d.Size()] > x) {
			continue
		}
		if d.Level < minTableLevel {
			e := int(d.Pos)
			for !(cum[e+1] > x) {
				e++
			}
			return e, true
		}
		v := r.Uint64()
		i := int(v >> (64 - d.Level))
		s := idx.slots[idx.slotOff[u]+int64(levelBase(deg, int(d.Level))+int(d.Pos)+i)]
		if uint32(v) < uint32(s>>32) {
			return int(d.Pos) + i, true
		}
		return int(d.Pos) + int(uint32(s))&(d.Size()-1), true
	}
	return -1, true // x at or past the total: no trunk holds it
}

// batchCase is one SampleBatch call's frontier: entry i draws from the ks[i]
// newest edges of us[i] with a stream seeded seeds[i].
type batchCase struct {
	us    []temporal.Vertex
	ks    []int32
	seeds []uint64
}

// checkBatch runs c through SampleBatch, Sample and drawByHand on separate
// copies of every stream and fails on the first disagreement.
func checkBatch(t testing.TB, label string, idx *Index, c batchCase) {
	t.Helper()
	n := len(c.us)
	batchRs := make([]*xrand.Rand, n)
	edges, evals, oks := make([]int32, n), make([]int64, n), make([]bool, n)
	for i := range batchRs {
		batchRs[i] = xrand.New(c.seeds[i])
	}
	idx.SampleBatch(context.Background(), c.us, c.ks, batchRs, edges, evals, oks)
	for i, u := range c.us {
		r, hand := xrand.New(c.seeds[i]), xrand.New(c.seeds[i])
		e, ev, ok := idx.Sample(u, int(c.ks[i]), r)
		if int(edges[i]) != e || evals[i] != ev || oks[i] != ok {
			t.Fatalf("%s entry %d (u=%d k=%d): batch (%d, %d, %v), Sample (%d, %d, %v)",
				label, i, u, c.ks[i], edges[i], evals[i], oks[i], e, ev, ok)
		}
		if he, hok := drawByHand(idx, u, int(c.ks[i]), hand); he != e || hok != ok {
			t.Fatalf("%s entry %d (u=%d k=%d): Sample (%d, %v), by hand (%d, %v)", label, i, u, c.ks[i], e, ok, he, hok)
		}
		s0, s1, s2, s3 := r.State()
		b0, b1, b2, b3 := batchRs[i].State()
		h0, h1, h2, h3 := hand.State()
		if [4]uint64{b0, b1, b2, b3} != [4]uint64{s0, s1, s2, s3} || [4]uint64{h0, h1, h2, h3} != [4]uint64{s0, s1, s2, s3} {
			t.Fatalf("%s entry %d (u=%d k=%d): streams diverge after the draw", label, i, u, c.ks[i])
		}
	}
}

// batchDegrees are the test graph's vertices: empty, tail-run only (< 32),
// the table floor and its neighbours, and hubs with trunks of level ≥ 9.
var batchDegrees = []int{0, 1, 5, 31, 32, 33, 100, 600, 1500}

// batchWeights gives every hub both zero-weight prefixes and zero-weight
// trunks: vertex 3's first 40 edges weigh nothing, vertex 7's trunk [64,128)
// and vertex 8's trunk [512,1024) weigh nothing, vertex 2 weighs nothing at
// all; the rest vary with position.
func batchWeights(u, i int) float64 {
	switch {
	case u == 2, u == 3 && i < 40, u == 7 && i >= 64 && i < 128, u == 8 && i >= 512 && i < 1024:
		return 0
	}
	return float64(1 + (i*7+u*13)%11)
}

// frontier returns n entries cycling through every vertex with k drawn from
// {-3, 0, 1, deg/2, deg-1, deg, deg+7, uniform in [1, deg]}.
func frontier(n int, r *xrand.Rand) batchCase {
	c := batchCase{us: make([]temporal.Vertex, n), ks: make([]int32, n), seeds: make([]uint64, n)}
	for i := range c.us {
		u := i % len(batchDegrees)
		deg := batchDegrees[u]
		ks := []int{-3, 0, 1, deg / 2, deg - 1, deg, deg + 7, 1 + r.IntN(max(deg, 1))}
		c.us[i] = temporal.Vertex(u)
		c.ks[i] = int32(ks[r.IntN(len(ks))])
		c.seeds[i] = r.Uint64()
	}
	return c
}

func TestSampleBatchMatchesSample(t *testing.T) {
	for _, disableAux := range []bool{false, true} {
		idx := weightedIndex(t, batchDegrees, batchWeights, Config{Threads: 1, DisableAuxIndex: disableAux})
		r := xrand.New(11)
		for _, n := range []int{0, 1, 63, 64, 65, 200} {
			for rep := 0; rep < 20; rep++ {
				checkBatch(t, fmt.Sprintf("%s n=%d rep=%d", idx.Name(), n, rep), idx, frontier(n, r))
			}
		}
		// Every (vertex, k) pair once, in one call.
		var all batchCase
		for u, deg := range batchDegrees {
			for k := -1; k <= deg+1; k++ {
				all.us = append(all.us, temporal.Vertex(u))
				all.ks = append(all.ks, int32(k))
				all.seeds = append(all.seeds, uint64(len(all.seeds)))
			}
		}
		checkBatch(t, idx.Name()+" every prefix", idx, all)
	}
}

func TestSampleBatchAllocatesNothing(t *testing.T) {
	for _, disableAux := range []bool{false, true} {
		idx := weightedIndex(t, batchDegrees, batchWeights, Config{Threads: 1, DisableAuxIndex: disableAux})
		c := frontier(200, xrand.New(12))
		rs := make([]*xrand.Rand, len(c.us))
		for i := range rs {
			rs[i] = xrand.New(c.seeds[i])
		}
		edges, evals, oks := make([]int32, len(c.us)), make([]int64, len(c.us)), make([]bool, len(c.us))
		if a := testing.AllocsPerRun(50, func() {
			idx.SampleBatch(context.Background(), c.us, c.ks, rs, edges, evals, oks)
		}); a != 0 {
			t.Fatalf("%s: SampleBatch allocates %v times per call", idx.Name(), a)
		}
	}
}

// FuzzSampleBatch builds a hub from arbitrary weights (zero bytes make
// zero-weight runs) beside a small vertex and holds a frontier of arbitrary
// length over both to Sample and drawByHand.
func FuzzSampleBatch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, uint64(1), uint8(3))
	f.Add([]byte{0, 0, 0}, uint64(2), uint8(1))
	f.Add(make([]byte, 40), uint64(3), uint8(64))
	f.Add([]byte{}, uint64(4), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64, n uint8) {
		if len(raw) > 2048 {
			raw = raw[:2048]
		}
		degs := []int{len(raw), 3}
		w := func(u, i int) float64 {
			if u == 0 {
				return float64(raw[i])
			}
			return float64(i + 1)
		}
		r := xrand.New(seed)
		for _, disableAux := range []bool{false, true} {
			idx := weightedIndex(t, degs, w, Config{Threads: 1, DisableAuxIndex: disableAux})
			c := batchCase{us: make([]temporal.Vertex, n), ks: make([]int32, n), seeds: make([]uint64, n)}
			for i := range c.us {
				u := r.IntN(2)
				c.us[i] = temporal.Vertex(u)
				c.ks[i] = int32(r.IntN(degs[u]+3) - 1)
				c.seeds[i] = r.Uint64()
			}
			checkBatch(t, idx.Name(), idx, c)
		}
	})
}

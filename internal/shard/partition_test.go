package shard

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
)

func mustPartitioner(t testing.TB, g *temporal.Graph, parts int) *Partitioner {
	t.Helper()
	p, err := NewPartitioner(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// activityWindowGraph builds v vertices on a timeline of 100·v time units,
// each active during one window: the vertex at activity rank i emits 1..2·deg
// edges at times in [100·i, 100·i+window), each to a vertex whose window
// starts within window/2 of the edge's time, so a walker arrives while its
// new vertex is still emitting edges. Ids are a seeded permutation of the
// ranks, so no ownership can come from id order.
func activityWindowGraph(t testing.TB, v, deg int, window int64, seed int64) *temporal.Graph {
	t.Helper()
	const span = 100
	r := rand.New(rand.NewSource(seed))
	id := r.Perm(v)
	var edges []temporal.Edge
	for i := 0; i < v; i++ {
		for k := 1 + r.Intn(2*deg); k > 0; k-- {
			at := int64(i)*span + r.Int63n(window)
			hi := min(int64(v-1), (at+window/2)/span)
			lo := min(hi, max(0, (at-window/2)/span))
			j := lo + r.Int63n(hi-lo+1)
			edges = append(edges, temporal.Edge{Src: temporal.Vertex(id[i]), Dst: temporal.Vertex(id[j]), Time: temporal.Time(at)})
		}
	}
	return temporal.MustFromEdges(edges, temporal.WithNumVertices(v))
}

// checkOwnedEdgeSkew requires every partition to own about E/P out-edges,
// max/mean ≤ 1.2, at P ∈ {2, 3, 4, 8}.
func checkOwnedEdgeSkew(t *testing.T, name string, g *temporal.Graph) {
	t.Helper()
	for _, parts := range []int{2, 3, 4, 8} {
		p := mustPartitioner(t, g, parts)
		owned := make([]int, parts)
		for v := range temporal.Vertex(g.NumVertices()) {
			owned[p.Owner(v)] += g.Degree(v)
		}
		mean := float64(g.NumEdges()) / float64(parts)
		for part, n := range owned {
			if skew := float64(n) / mean; skew > 1.2 {
				t.Fatalf("%s parts=%d: partition %d owns %.3f× the mean (owned=%v)", name, parts, part, skew, owned)
			}
		}
	}
}

func TestPartitionerValidation(t *testing.T) {
	g := testutil.RandomGraph(t, 50, 500, 100, 1)
	for _, parts := range []int{0, -3, 1<<16 + 1} {
		if _, err := NewPartitioner(g, parts); err == nil {
			t.Fatalf("%d partitions accepted", parts)
		}
	}
	if p := mustPartitioner(t, g, 4); p.Partitions() != 4 {
		t.Fatalf("partitions = %d", p.Partitions())
	}
}

// The table is a function of the edge set, not of the order the edges arrive
// in: every process that loads the same graph derives the same ownership.
// The timestamps repeat, so ties between keys are exercised too.
func TestPartitionerDeterministic(t *testing.T) {
	g := testutil.RandomGraph(t, 300, 6000, 500, 2)
	edges := g.Edges(nil)
	rand.New(rand.NewSource(3)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	shuffled := temporal.MustFromEdges(edges, temporal.WithNumVertices(g.NumVertices()))
	for _, parts := range []int{2, 3, 8, 17} {
		a, b := mustPartitioner(t, g, parts), mustPartitioner(t, shuffled, parts)
		if !reflect.DeepEqual(a.owner, b.owner) {
			t.Fatalf("parts=%d: shuffled edges give a different table", parts)
		}
		for v, o := range a.owner {
			if int(o) >= parts {
				t.Fatalf("parts=%d vertex %d: owner %d out of range", parts, v, o)
			}
		}
	}
}

func TestPartitionerSinglePartition(t *testing.T) {
	g := testutil.RandomGraph(t, 200, 3000, 600, 4)
	p := mustPartitioner(t, g, 1)
	for v := range temporal.Vertex(g.NumVertices()) {
		if p.Owner(v) != 0 {
			t.Fatalf("vertex %d not owned by the only partition", v)
		}
	}
}

// Strided ids (k·P+c, minted by an upstream system) put every vertex on one
// shard under id%P; the table never looks at id structure.
func TestPartitionerStridedSkew(t *testing.T) {
	const active = 4000
	for _, stride := range []int{3, 8, 16} {
		r := rand.New(rand.NewSource(int64(stride)))
		edges := make([]temporal.Edge, 10*active)
		for i := range edges {
			edges[i] = temporal.Edge{Src: temporal.Vertex(r.Intn(active) * stride), Dst: temporal.Vertex(r.Intn(active) * stride), Time: temporal.Time(r.Intn(5000))}
		}
		checkOwnedEdgeSkew(t, fmt.Sprintf("stride %d", stride), temporal.MustFromEdges(edges))
	}
}

// Sequential ids with uniform random times: no time locality to exploit,
// balance all the same.
func TestPartitionerSequentialSkew(t *testing.T) {
	checkOwnedEdgeSkew(t, "sequential", testutil.RandomGraph(t, 4000, 40000, 5000, 5))
}

func TestPartitionerActivityWindowSkew(t *testing.T) {
	checkOwnedEdgeSkew(t, "activity-window", activityWindowGraph(t, 4000, 10, 12000, 6))
}

// A vertex is never split: a hub with more than E/P out-edges lands whole on
// one shard, and no other shard holds any of its edges.
func TestPartitionerHubStaysWhole(t *testing.T) {
	const hubDeg = 5000
	g := testutil.SkewedGraph(t, 1000, hubDeg)
	for _, parts := range []int{2, 4, 8} {
		c, err := NewCluster(g, sampling.WeightSpec{}, ClusterConfig{Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		hub := c.nodes[0].Partitioner().Owner(0)
		for _, n := range c.nodes {
			want := 0
			if n.ShardID() == hub {
				want = hubDeg
			}
			if got := n.eng.Graph().Degree(0); got != want {
				t.Fatalf("parts=%d shard %d: holds %d of the hub's edges, want %d", parts, n.ShardID(), got, want)
			}
		}
	}
}

// The point of the table: on a graph whose vertices are active in short
// windows (3 % of the timeline here), consecutive vertices of a walk almost
// always share an owner. Hashing the same ids changes owner on about
// (P−1)/P of the steps.
func TestPartitionerKeepsWalksLocal(t *testing.T) {
	const parts = 3
	g := activityWindowGraph(t, 3000, 10, 9000, 7)
	c, err := NewCluster(g, sampling.Exponential(0.0002), ClusterConfig{Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ClusterRunConfig{Length: 40, Seed: 8, KeepPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	part := c.nodes[0].Partitioner()
	var steps, changes, hashChanges int
	for _, p := range res.Paths {
		for i := 1; i < len(p); i++ {
			steps++
			if part.Owner(p[i]) != part.Owner(p[i-1]) {
				changes++
			}
			if mix64(uint64(p[i]))%parts != mix64(uint64(p[i-1]))%parts {
				hashChanges++
			}
		}
	}
	t.Logf("%d steps: owner changes %d, hashed-id changes %d", steps, changes, hashChanges)
	if mean := float64(steps) / float64(len(res.Paths)); mean < 20 {
		t.Fatalf("walks average %.1f steps; the graph should keep them running", mean)
	}
	if share := float64(changes) / float64(steps); share > 0.05 {
		t.Fatalf("owner changes on %.3f of %d steps, want ≤ 0.05", share, steps)
	}
	if share := float64(hashChanges) / float64(steps); share < 0.5 {
		t.Fatalf("hashed ids change owner on only %.3f of the steps; the walks are not a locality test", share)
	}
}

// sortedOwners is the owner table as a comparison sort computes it: the
// same keys, sink fix-up and cut as NewPartitioner, with the vertices put
// in (key, id) order by slices.SortFunc. It is the radix order's oracle.
func sortedOwners(g *temporal.Graph, partitions int) []uint16 {
	order := make([]keyed, g.NumVertices())
	for i := range order {
		v := temporal.Vertex(i)
		order[i] = keyed{key: temporal.MinTime, v: v}
		if ts := g.OutTimes(v); len(ts) > 0 {
			order[i].key = ts[len(ts)/2]
		}
	}
	for u := range order {
		ts := g.OutTimes(temporal.Vertex(u))
		for i, d := range g.OutDst(temporal.Vertex(u)) {
			if g.Degree(d) == 0 {
				order[d].key = max(order[d].key, ts[i])
			}
		}
	}
	slices.SortFunc(order, func(a, b keyed) int { return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.v, b.v)) })
	owner := make([]uint16, len(order))
	twoE, parts := 2*uint64(g.NumEdges()), uint64(partitions)
	var cum uint64
	for _, k := range order {
		deg := uint64(g.Degree(k.v))
		if twoE > 0 {
			owner[k.v] = uint16(min(parts-1, (2*cum+deg)*parts/twoE))
		}
		cum += deg
	}
	return owner
}

// The radix-ordered table equals the comparison-sorted one on graphs with
// sinks (keyed by their latest in-edge), isolated vertices (keyed
// MinTime), negative keys, keys that differ only in a high byte, edges at
// the ends of the Time domain, and ties.
func TestPartitionerMatchesComparisonSort(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	wide := func(n, v int) *temporal.Graph {
		edges := make([]temporal.Edge, n)
		for i := range edges {
			at := temporal.Time(r.Int63() - r.Int63())
			switch r.Intn(8) {
			case 0:
				at = temporal.MinTime + temporal.Time(r.Intn(3))
			case 1:
				at = temporal.MaxTime - temporal.Time(r.Intn(3))
			case 2:
				at = temporal.Time(r.Intn(4)) << 40
			}
			// Sources are the lower two thirds of the ids, so the rest are
			// sinks or isolated.
			edges[i] = temporal.Edge{Src: temporal.Vertex(r.Intn(2 * v / 3)), Dst: temporal.Vertex(r.Intn(v)), Time: at}
		}
		return temporal.MustFromEdges(edges, temporal.WithNumVertices(v+v/4))
	}
	graphs := map[string]*temporal.Graph{
		"ties":            testutil.RandomGraph(t, 300, 6000, 50, 2),
		"activity-window": activityWindowGraph(t, 2000, 10, 6000, 6),
		"hub":             testutil.SkewedGraph(t, 1000, 3000),
		"wide-keys":       wide(5000, 900),
		"sinks-only-in":   wide(40, 200),
		"one-vertex":      temporal.MustFromEdges([]temporal.Edge{{Src: 0, Dst: 0, Time: -1}}),
		"edgeless":        temporal.MustFromEdges(nil, temporal.WithNumVertices(7)),
	}
	for name, g := range graphs {
		for _, parts := range []int{1, 2, 3, 8, 17} {
			if got, want := mustPartitioner(t, g, parts).owner, sortedOwners(g, parts); !slices.Equal(got, want) {
				t.Fatalf("%s parts=%d: radix-ordered table differs from the comparison sort's", name, parts)
			}
		}
	}
}

func BenchmarkNewPartitioner(b *testing.B) {
	g := activityWindowGraph(b, 50000, 10, 150000, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustPartitioner(b, g, 8)
	}
}

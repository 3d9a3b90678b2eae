package shard

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
)

func TestClusterValidation(t *testing.T) {
	g := temporal.CommuteGraph()
	if _, err := NewCluster(g, sampling.WeightSpec{}, ClusterConfig{Partitions: 0}); err == nil {
		t.Fatal("zero partitions accepted")
	}
	spec := sampling.WeightSpec{Custom: func(temporal.Time) float64 { return 1 }}
	if _, err := NewCluster(g, spec, ClusterConfig{Partitions: 2}); err == nil {
		t.Fatal("custom weight accepted")
	}
	c, err := NewCluster(g, sampling.WeightSpec{}, ClusterConfig{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.Partitions() != 3 {
		t.Fatalf("partitions = %d", c.Partitions())
	}
	if c.MemoryBytes() <= 0 {
		t.Fatal("memory")
	}
}

func TestClusterNode2VecValidation(t *testing.T) {
	g := temporal.CommuteGraph()
	for _, n2v := range []Node2Vec{{P: 0, Q: 2}, {P: 0.5, Q: -1}, {P: math.NaN(), Q: 2}} {
		if _, err := NewCluster(g, sampling.Exponential(0.5), ClusterConfig{Partitions: 2, Node2Vec: &n2v}); err == nil {
			t.Fatalf("node2vec %+v accepted", n2v)
		}
	}
	plain, err := NewCluster(g, sampling.Exponential(0.5), ClusterConfig{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	n2v, err := NewCluster(g, sampling.Exponential(0.5), ClusterConfig{Partitions: 2, Node2Vec: &Node2Vec{P: 0.5, Q: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Each node holds its own copy of the Bloom filter.
	if got, want := n2v.MemoryBytes()-plain.MemoryBytes(), 2*n2v.nodes[0].bloom.memoryBytes(); got != want {
		t.Fatalf("node2vec memory overhead %d, want %d (one filter per node)", got, want)
	}
}

// engineRun is the single-process oracle the cluster must reproduce.
func engineRun(t *testing.T, g *temporal.Graph, app core.App, cfg core.WalkConfig) *core.Result {
	t.Helper()
	eng, err := core.NewEngine(g, app, core.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Threads = 2
	res, err := eng.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Partition invariance for every weight kind, checked against the engine:
// walks and cost are identical at any partition count.
func TestClusterPartitionInvariance(t *testing.T) {
	g := testutil.RandomGraph(t, 150, 4000, 800, 31)
	specs := []sampling.WeightSpec{
		{Kind: sampling.WeightUniform},
		{Kind: sampling.WeightLinearTime},
		{Kind: sampling.WeightLinearRank},
		sampling.Exponential(0.01),
	}
	const length, walksPer, seed = 15, 2, 9
	for _, spec := range specs {
		ref := engineRun(t, g, core.App{Name: "ref", Weight: spec},
			core.WalkConfig{Length: length, WalksPerVertex: walksPer, Seed: seed, KeepPaths: true})
		for _, parts := range []int{1, 2, 5} {
			c, err := NewCluster(g, spec, ClusterConfig{Partitions: parts})
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(ClusterRunConfig{Length: length, Seed: seed, KeepPaths: true, WalksPerVertex: walksPer})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != ref.Cost {
				t.Fatalf("%v parts=%d: cost %+v, engine %+v", spec.Kind, parts, res.Cost, ref.Cost)
			}
			for wi, p := range ref.Paths {
				if !reflect.DeepEqual(res.Paths[wi], p.Vertices) {
					t.Fatalf("%v parts=%d: walk %d is %v, engine %v", spec.Kind, parts, wi, res.Paths[wi], p.Vertices)
				}
			}
		}
	}
}

// The shared partitioner keeps strided-id load balanced, and the cluster
// walks correctly on such a graph.
func TestClusterStridedIDPartitionSkew(t *testing.T) {
	const parts, active = 4, 2000
	var edges []temporal.Edge
	for i := 0; i < active; i++ {
		src := temporal.Vertex(i * parts)
		edges = append(edges,
			temporal.Edge{Src: src, Dst: temporal.Vertex(((i + 7) % active) * parts), Time: temporal.Time(i%97 + 1)},
			temporal.Edge{Src: src, Dst: temporal.Vertex(((i + 13) % active) * parts), Time: temporal.Time(i%89 + 2)})
	}
	g := temporal.MustFromEdges(edges)
	c, err := NewCluster(g, sampling.WeightSpec{}, ClusterConfig{Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, parts)
	for _, n := range c.nodes {
		counts[n.ShardID()] = n.OwnedEdges() / 2
	}
	for part, n := range counts {
		if ratio := float64(n) / (active / parts); ratio > 1.2 {
			t.Fatalf("partition %d owns %.2f× the mean load of strided-id vertices (counts=%v)", part, ratio, counts)
		}
	}
	res, err := c.Run(ClusterRunConfig{Length: 8, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Steps == 0 || res.Cost.WalksStarted != res.Cost.WalksCompleted+res.Cost.WalksDeadEnded {
		t.Fatalf("strided graph run broken: %+v", res.Cost)
	}
}

func TestClusterWalksAreTemporalAndComplete(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 600, 33)
	c, err := NewCluster(g, sampling.Exponential(0.01), ClusterConfig{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ClusterRunConfig{Length: 10, Seed: 3, KeepPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.WalksStarted != int64(g.NumVertices()) || res.Cost.WalksFinished() != res.Cost.WalksStarted {
		t.Fatalf("accounting: %+v", res.Cost)
	}
	steps := int64(0)
	for wi, p := range res.Paths {
		if p[0] != temporal.Vertex(wi) {
			t.Fatalf("walk %d starts at %d", wi, p[0])
		}
		for i := 0; i+1 < len(p); i++ {
			if !g.HasNeighbor(p[i], p[i+1]) {
				t.Fatalf("walk %d uses non-edge %d->%d", wi, p[i], p[i+1])
			}
		}
		steps += int64(len(p) - 1)
	}
	if steps != res.Cost.Steps {
		t.Fatalf("path steps %d vs cost %d", steps, res.Cost.Steps)
	}
	if res.Rounds <= 0 {
		t.Fatal("no rounds recorded")
	}
}

// One partition sends no messages; on this graph without time locality P
// partitions send ≈ (P−1)/P of the walker-steps to a peer, and the total
// step traffic is partition-invariant.
func TestClusterMessageAccounting(t *testing.T) {
	g := testutil.RandomGraph(t, 200, 6000, 1200, 35)
	run := func(parts int) *ClusterResult {
		c, err := NewCluster(g, sampling.WeightSpec{}, ClusterConfig{Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(ClusterRunConfig{Length: 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	single, multi := run(1), run(4)
	if single.Messages != 0 {
		t.Fatalf("single partition sent %d messages", single.Messages)
	}
	moves := multi.Messages + multi.LocalMoves
	if moves != single.LocalMoves {
		t.Fatalf("total moves differ: %d vs %d", moves, single.LocalMoves)
	}
	if frac := float64(multi.Messages) / float64(moves); frac < 0.5 || frac > 0.95 {
		t.Fatalf("cross-partition share %.2f, want ≈ 3/4", frac)
	}
}

// First-hop frequencies out of the commute hub match the LinearRank weights.
func TestClusterMatchesEngineDistribution(t *testing.T) {
	g := temporal.CommuteGraph()
	c, err := NewCluster(g, sampling.WeightSpec{Kind: sampling.WeightLinearRank}, ClusterConfig{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	const walks = 40000
	res, err := c.Run(ClusterRunConfig{Length: 1, Seed: 5, KeepPaths: true, WalksPerVertex: walks})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, 8)
	total := 0.0
	for wi, p := range res.Paths {
		if wi/walks != 7 || len(p) < 2 {
			continue
		}
		counts[p[1]]++
		total++
	}
	// Weights 7..1 toward vertices 6..0.
	for dst := 0; dst <= 6; dst++ {
		want := float64(dst+1) / 28
		if diff := counts[dst]/total - want; math.Abs(diff) > 0.01 {
			t.Fatalf("dst %d frequency %.4f, want %.4f", dst, counts[dst]/total, want)
		}
	}
}

func TestClusterEmptyPartitionGraph(t *testing.T) {
	// One partition owns only edgeless vertices.
	g := temporal.MustFromEdges([]temporal.Edge{{Src: 0, Dst: 1, Time: 1}}, temporal.WithNumVertices(4))
	c, err := NewCluster(g, sampling.WeightSpec{}, ClusterConfig{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ClusterRunConfig{Length: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Steps != 1 {
		t.Fatalf("steps = %d, want 1", res.Cost.Steps)
	}
}

// Node2vec's second-hop distribution at the default 16 bits/edge matches
// the exact δ·β weights (the filter's ~4e-4 false positives are far below
// the statistical tolerance).
func TestClusterNode2VecMatchesEngine(t *testing.T) {
	g := temporal.MustFromEdges([]temporal.Edge{
		{Src: 0, Dst: 1, Time: 1},
		{Src: 0, Dst: 2, Time: 1},
		{Src: 1, Dst: 0, Time: 2},
		{Src: 1, Dst: 2, Time: 3},
		{Src: 1, Dst: 3, Time: 4},
	})
	c, err := NewCluster(g, sampling.Exponential(0.5), ClusterConfig{Partitions: 3, Node2Vec: &Node2Vec{P: 0.5, Q: 2}})
	if err != nil {
		t.Fatal(err)
	}
	const walks = 60000
	res, err := c.Run(ClusterRunConfig{Length: 2, Seed: 8, KeepPaths: true, WalksPerVertex: walks})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Trials == 0 || res.Cost.Rejected == 0 {
		t.Fatalf("β rejection never exercised: %+v", res.Cost)
	}
	counts := map[temporal.Vertex]float64{}
	total := 0.0
	for wi, p := range res.Paths {
		if wi/walks != 0 || len(p) != 3 || p[1] != 1 {
			continue
		}
		counts[p[2]]++
		total++
	}
	// δ·β for candidates 0, 2, 3 with δ = e^{0.5(t-4)} and β = 2, 1, 0.5.
	w0, w2, w3 := 2*math.Exp(-1), math.Exp(-0.5), 0.5
	for v, w := range map[temporal.Vertex]float64{0: w0, 2: w2, 3: w3} {
		want := w / (w0 + w2 + w3)
		if got := counts[v] / total; math.Abs(got-want) > 0.012 {
			t.Fatalf("second hop %d frequency %.4f, want %.4f", v, got, want)
		}
	}
}

// The node2vec golden: where the filter, at bloomBitsPerEdge, answers exactly
// like the graph's neighbor test on every vertex pair (checked here, not
// assumed), cluster node2vec walks equal core.Engine running
// TemporalNode2Vec byte for byte, with equal cost, at every partition count
// and coordinating node, in-process and over loopback TCP.
func TestClusterNode2VecGolden(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 600, 61)
	const p, q, lambda = 0.5, 2.0, 0.01
	const length, walksPer, seed = 12, 2, 6
	spec := sampling.Exponential(lambda)
	ref := engineRun(t, g, core.TemporalNode2Vec(p, q, lambda),
		core.WalkConfig{Length: length, WalksPerVertex: walksPer, Seed: seed, KeepPaths: true})
	if ref.Cost.Rejected == 0 {
		t.Fatalf("β rejection never exercised: %+v", ref.Cost)
	}
	req := WalkRequest{Length: length, WalksPerVertex: walksPer, Seed: seed, KeepPaths: true}
	total := g.NumVertices() * walksPer
	for _, parts := range []int{1, 2, 3, 8} {
		c, err := NewCluster(g, spec, ClusterConfig{Partitions: parts, Node2Vec: &Node2Vec{P: p, Q: q}})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range c.nodes {
			for a := 0; a < g.NumVertices(); a++ {
				for b := 0; b < g.NumVertices(); b++ {
					u, v := temporal.Vertex(a), temporal.Vertex(b)
					if n.bloom.has(u, v) != g.HasNeighbor(u, v) {
						t.Fatalf("parts=%d shard %d: filter answers %d->%d wrong", parts, n.ShardID(), a, b)
					}
				}
			}
		}
		tcp := startWireCluster(t, c.nodes)
		for name, callerOf := range map[string]func(id int) StepCaller{
			"in-process": func(int) StepCaller { return c.caller },
			"tcp":        func(id int) StepCaller { return tcp[id] },
		} {
			for id, n := range c.nodes {
				res, err := n.RunWalks(context.Background(), callerOf(id), req)
				if err != nil {
					t.Fatal(err)
				}
				cost, paths := res.Cost, res.Paths
				if len(paths) != total {
					t.Fatalf("%s parts=%d shard %d: %d of %d walks", name, parts, id, len(paths), total)
				}
				if cost != ref.Cost {
					t.Fatalf("%s parts=%d: cost %+v, engine %+v", name, parts, cost, ref.Cost)
				}
				if !reflect.DeepEqual(paths, ref.Paths) {
					t.Fatalf("%s parts=%d: node2vec paths diverge from the engine", name, parts)
				}
			}
		}
	}
}

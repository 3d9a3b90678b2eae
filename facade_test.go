package tea

import (
	"math"
	"testing"
)

// End-to-end exercise of the analytics facade: walks → PPR → reachability →
// embeddings → distributed cluster, all through the public API.
func TestFacadeAnalyticsPipeline(t *testing.T) {
	profile := DatasetProfile{Name: "pipe", Vertices: 120, Edges: 4000, Skew: 0.8, Seed: 55}
	g, err := profile.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, TemporalNode2Vec(0.5, 2, profile.Lambda(10)), Options{})
	if err != nil {
		t.Fatal(err)
	}

	// PPR mass stays within the exact temporal reachable set.
	scores, err := TemporalPPR(eng, 3, PPRConfig{Walks: 4000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	arrival := EarliestArrival(g, 3, MinTime)
	sum := 0.0
	for _, s := range scores {
		sum += s.Score
		if s.Vertex != 3 && arrival[s.Vertex] == Unreachable {
			t.Fatalf("PPR mass on unreachable vertex %d", s.Vertex)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PPR mass = %v", sum)
	}
	if rs := ReachableSet(g, 3, MinTime); len(rs) == 0 {
		t.Fatal("empty reachable set on a connected profile")
	}

	// LatestDeparture is consistent with EarliestArrival: if v can reach d,
	// its latest departure toward d is a real edge time.
	dep := LatestDeparture(g, 3, MaxTime)
	canReach3 := 0
	for v, t0 := range dep {
		if Vertex(v) != 3 && t0 != MinTime {
			canReach3++
		}
	}
	_ = canReach3 // graph-dependent; presence exercised above

	// Walk corpus → embeddings.
	res, err := eng.Run(WalkConfig{WalksPerVertex: 6, Length: 10, Seed: 4, KeepPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	model, err := TrainEmbedding(res, g.NumVertices(), EmbeddingConfig{Dim: 16, Epochs: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if model.Dim() != 16 || model.NumVertices() != g.NumVertices() {
		t.Fatalf("model shape %dx%d", model.NumVertices(), model.Dim())
	}
	if nn := model.MostSimilar(3, 5); len(nn) != 5 {
		t.Fatalf("neighbors = %d", len(nn))
	}

	// Distributed run over the same graph agrees on total work with itself
	// across partitionings (full invariance is covered in internal/shard).
	c2, err := NewCluster(g, Exponential(profile.Lambda(10)), ClusterConfig{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	c5, err := NewCluster(g, Exponential(profile.Lambda(10)), ClusterConfig{Partitions: 5})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c2.Run(ClusterRunConfig{Length: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r5, err := c5.Run(ClusterRunConfig{Length: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cost.Steps != r5.Cost.Steps {
		t.Fatalf("cluster steps differ: %d vs %d", r2.Cost.Steps, r5.Cost.Steps)
	}
	if r5.Messages == 0 {
		t.Fatal("no migration traffic recorded")
	}
}

func TestFacadeAppConstructors(t *testing.T) {
	g := CommuteGraph()
	for _, app := range []App{Unbiased(), LinearTime(), LinearRank(), ExponentialWalk(0.5), TemporalNode2Vec(0.5, 2, 0.5)} {
		eng, err := NewEngine(g, app, Options{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if _, err := eng.Run(WalkConfig{Length: 3, Seed: 1}); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
	}
}

func TestWriteBinaryFileErrors(t *testing.T) {
	if err := WriteBinaryFile("/nonexistent-dir/x.teag", nil); err == nil {
		t.Fatal("bad path accepted")
	}
}

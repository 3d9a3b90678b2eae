package tea

import (
	"reflect"
	"testing"
)

// A seeded cluster run walks exactly the paths the single engine walks with
// the same seed, at any partition count.
func TestClusterPathsEqualEngine(t *testing.T) {
	profile := DatasetProfile{Name: "cluster", Vertices: 120, Edges: 4000, Skew: 0.8, Seed: 56}
	g, err := profile.Build()
	if err != nil {
		t.Fatal(err)
	}
	lambda := profile.Lambda(10)
	eng, err := NewEngine(g, ExponentialWalk(lambda), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := eng.Run(WalkConfig{WalksPerVertex: 2, Length: 8, Seed: 9, KeepPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 3} {
		c, err := NewCluster(g, Exponential(lambda), ClusterConfig{Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(ClusterRunConfig{WalksPerVertex: 2, Length: 8, Seed: 9, KeepPaths: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != ref.Cost {
			t.Fatalf("parts=%d: cost %+v, engine %+v", parts, res.Cost, ref.Cost)
		}
		for wi, p := range ref.Paths {
			if !reflect.DeepEqual(res.Paths[wi], p.Vertices) {
				t.Fatalf("parts=%d: walk %d is %v, engine %v", parts, wi, res.Paths[wi], p.Vertices)
			}
		}
	}
}

package tea

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// pathFingerprint hashes a deterministic run's full output so accidental
// changes to the RNG, sampler draw order, or walk loop are caught loudly.
// If a change here is intentional (a deliberate algorithmic change), update
// the pinned constants and call it out in the commit.
func pathFingerprint(t *testing.T, m Method) string {
	t.Helper()
	profile := DatasetProfile{Name: "golden", Vertices: 200, Edges: 5000, Skew: 0.8, Seed: 123}
	g, err := profile.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, ExponentialWalk(0.002), Options{Method: m, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(WalkConfig{Length: 16, Seed: 99, KeepPaths: true, Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, p := range res.Paths {
		for i, v := range p.Vertices {
			fmt.Fprintf(h, "%d,", v)
			if i > 0 {
				fmt.Fprintf(h, "@%d;", p.Times[i-1])
			}
		}
		fmt.Fprint(h, "|")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestGoldenWalkFingerprints(t *testing.T) {
	golden := map[Method]string{
		MethodHPAT: "e448cb4ab7dce936",
		MethodPAT:  "3c4e477ab35a54a7",
		MethodITS:  "19f79792e422a59a",
	}
	for m, want := range golden {
		if got := pathFingerprint(t, m); got != want {
			t.Errorf("%v fingerprint = %q, want %q", m, got, want)
		}
	}
}

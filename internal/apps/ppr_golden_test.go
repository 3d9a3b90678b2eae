package apps

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/testutil"
)

// TestTemporalPPRGolden pins PPR's scores over a grid of graphs, apps,
// samplers, walk counts, thread counts and restart rates: each score, in
// the order returned, hashes as its LE u32 vertex and LE Float64bits. A
// change to the walks' draws, the walk engine PPR runs on or the scoring
// moves the hash.
func TestTemporalPPRGolden(t *testing.T) {
	const want = "c1c2dc1c64c4479c6ea0b750f712c1599cf1f823bec152e67b95803bd42ba1d3"
	apps := []core.App{core.ExponentialWalk(1e-3), core.LinearTime(), core.TemporalNode2Vec(0.5, 2, 1e-3)}
	h := sha256.New()
	var buf [12]byte
	for gi, gs := range []int64{1, 5, 9} {
		g := testutil.RandomGraph(t, 300, 9000, 1000, gs)
		for ai, app := range apps {
			for _, m := range []core.Method{core.MethodHPAT, core.MethodPAT} {
				eng, err := core.NewEngine(g, app, core.Options{Method: m})
				if err != nil {
					t.Fatal(err)
				}
				for _, walks := range []int{100, 3000} {
					for _, threads := range []int{1, 3} {
						for _, alpha := range []float64{0.15, 0.5} {
							scores, err := TemporalPPR(eng, 3, PPRConfig{
								Alpha: alpha, Walks: walks, MaxLength: 30,
								Seed: uint64(7*gi + ai), Threads: threads,
							})
							if err != nil {
								t.Fatal(err)
							}
							for _, s := range scores {
								binary.LittleEndian.PutUint32(buf[:4], uint32(s.Vertex))
								binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(s.Score))
								h.Write(buf[:])
							}
						}
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("PPR scores hash %s, want %s", got, want)
	}
}

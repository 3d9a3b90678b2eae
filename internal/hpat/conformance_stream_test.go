package hpat_test

import (
	"testing"

	"github.com/tea-graph/tea/internal/hpat"
	"github.com/tea-graph/tea/internal/stream"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// The streaming graph draws through hpat.Table segments. Ingest each hub in
// two batches, the second no smaller than the first, so the LSM policy merges
// them into one rebuilt segment; SampleStep must then follow the same exact
// prefix distribution as the static index.
func TestConformanceStreamSampleStep(t *testing.T) {
	hpat.ForEachConformanceCase(t, func(t *testing.T, c hpat.ConformanceCase) {
		g, err := stream.New(stream.Config{Weight: c.Spec})
		if err != nil {
			t.Fatal(err)
		}
		hub := c.Graph.Edges(nil)[:c.Degree] // vertex 0's edges come first
		first := c.Degree / 2
		for _, batch := range [][]temporal.Edge{hub[len(hub)-first:], hub[:len(hub)-first]} {
			if err := g.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if g.Degree(0) != c.Degree || g.Segments(0) != 1 {
			t.Fatalf("hub has degree %d in %d segments, want %d in 1", g.Degree(0), g.Segments(0), c.Degree)
		}
		r := xrand.New(uint64(c.Degree) + 2)
		c.CheckPrefixes(t, func(k int) (int, bool) {
			// Hub edges sit at times 1..Degree: the k newest are those after Degree-k.
			_, at, _, ok := g.SampleStep(0, temporal.Time(c.Degree-k), r)
			return c.Degree - int(at), ok
		})
	})
}

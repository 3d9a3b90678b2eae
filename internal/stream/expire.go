package stream

import (
	"github.com/tea-graph/tea/internal/temporal"
)

// Sliding-window support: real event-stream deployments bound the graph to
// a recency window (e.g. "the last 90 days"). ExpireBefore drops every edge
// older than a horizon. Because segments are time-ordered runs, whole
// segments older than the horizon are dropped in O(1) per segment and only
// one boundary segment per vertex needs filtering — no tombstones, no
// rejection cost afterward. A vertex with nothing to expire is left as it is.

// ExpireBefore removes every edge with time < horizon from the stream and
// returns the number of edges dropped. Weights of the surviving edges keep
// their original values (rank weights keep their ingestion ranks until the
// vertex is next rebuilt, matching DeleteEdges' documented approximation).
func (g *Graph) ExpireBefore(horizon temporal.Time) int {
	t := g.begin()
	dropped := t.expireBefore(horizon)
	t.commit()
	return dropped
}

// expireBefore stages ExpireBefore.
func (t *txn) expireBefore(horizon temporal.Time) int {
	dropped := 0
	for u := range t.verts {
		dropped += t.expireVertex(temporal.Vertex(u), horizon)
	}
	return dropped
}

// expireVertex drops u's edges older than horizon and returns how many live
// ones went.
func (t *txn) expireVertex(u temporal.Vertex, horizon temporal.Time) int {
	segs := t.vertex(u)
	if len(segs) == 0 || segs[len(segs)-1].oldestTime() >= horizon {
		return 0 // entirely inside the window
	}
	// Segments are time-ordered runs: those wholly inside the window come
	// first, and only the next one can straddle the horizon. It keeps the
	// live slots of its newest-first prefix inside the window.
	keep := 0
	for segs[keep].oldestTime() >= horizon {
		keep++
	}
	kept := append([]segment(nil), segs[:keep]...)
	if seg, ok := t.build(nil, segs[keep:keep+1], horizon, 0); ok {
		kept = append(kept, seg)
	}
	t.g.rescale(kept)
	t.install(u, kept)
	n0, dead0 := slots(segs)
	n1, dead1 := slots(kept)
	return n0 - dead0 - (n1 - dead1)
}

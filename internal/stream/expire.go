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
	t.numEdges -= dropped
	return dropped
}

func (t *txn) expireVertex(u temporal.Vertex, horizon temporal.Time) int {
	vs := t.vertex(u)
	if len(vs.segs) == 0 || vs.segs[len(vs.segs)-1].oldestTime() >= horizon {
		return 0 // entirely inside the window
	}
	var kept []segment
	droppedEdges := 0
	droppedTombstones := 0
	for si := range vs.segs {
		s := &vs.segs[si]
		switch {
		case s.oldestTime() >= horizon:
			kept = append(kept, *s)
		case s.newestTime() < horizon:
			// Entirely expired: account and drop.
			droppedEdges += s.len() - s.deadCount()
			droppedTombstones += s.deadCount()
		default:
			// Boundary segment: keep the newest-first prefix with
			// time >= horizon, filtering tombstones along the way.
			k := s.newerThan(horizon - 1)
			live := s.liveWithin(k)
			droppedTombstones += k - live
			for i := k; i < s.len(); i++ {
				if s.isDeleted(i) {
					droppedTombstones++
				} else {
					droppedEdges++
				}
			}
			if live > 0 {
				seg := t.newSegment(live, 0)
				seg.putLive(0, s, k)
				t.g.finish(&seg, t.minTime)
				kept = append(kept, seg)
			}
		}
	}
	t.g.rescale(kept)
	t.set(u, vertexState{
		segs:    kept,
		degree:  vs.degree - droppedEdges - droppedTombstones,
		deleted: vs.deleted - droppedTombstones,
	})
	t.numDeleted -= droppedTombstones
	return droppedEdges
}

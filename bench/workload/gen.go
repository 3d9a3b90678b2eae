// Package workload makes the benchmark's inputs from a seed: one temporal
// edge stream and the request lists replayed against it. The program under
// test only ever sees what this package generated.
//
// The stream is an activity-window graph. internal/gen stamps timestamps in
// stream order with destinations drawn independently of time, so a walker
// that arrives at a vertex almost never finds a newer out-edge there and
// walks die after ~2 steps. Here every vertex is active during one short
// window of the timeline and an edge at time t points at a vertex whose
// window is centred near t, so the walker arrives while its new vertex is
// still emitting edges and 80-step walks actually run tens of steps — the
// regime the paper's steps/s claims are about.
package workload

import (
	"cmp"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"

	"github.com/tea-graph/tea/internal/temporal"
)

const (
	// DefaultVertices gives ≈3.9 M edges and an HPAT of ≈400 MB, larger than
	// the last-level cache, so sampling is DRAM-bound as it is at the
	// paper's scale.
	DefaultVertices = 200_000
	// MeanDegree sets E ≈ MeanDegree·V.
	MeanDegree = 19.5
	// zipfExponent skews out-degrees: a few hubs with tens of thousands of
	// edges exercise the deep HPAT levels, the tail the small-degree path.
	zipfExponent = 0.8
	// windowFrac is a vertex's activity window as a share of the timeline.
	windowFrac = 0.01
	// sortBuckets partitions the timeline for the bucketed time sort; each
	// bucket (≈15 K edges at the default size) sorts inside L2.
	sortBuckets = 256
)

// Stream is a generated edge stream, sorted by time and stamped 1..E, so any
// prefix split into batches is a legal strictly-newer ingest stream.
type Stream struct {
	V     int
	Edges []temporal.Edge
}

// Lambda is the exponential-bias decay used on this stream: a vertex's
// window spans ≈E/100 stamps, so weights inside it range over e^-0.5..1.
func (s *Stream) Lambda() float64 { return 50 / float64(len(s.Edges)) }

// Edge returns the edge stamped t, or false when t is outside 1..E. Stamps
// are unique, which makes this the benchmark's edge-set membership test.
func (s *Stream) Edge(t temporal.Time) (temporal.Edge, bool) {
	if t < 1 || int(t) > len(s.Edges) {
		return temporal.Edge{}, false
	}
	return s.Edges[t-1], true
}

type rawEdge struct {
	t        float64
	src, dst uint32
}

func cmpRaw(a, b rawEdge) int {
	switch {
	case a.t != b.t:
		if a.t < b.t {
			return -1
		}
		return 1
	case a.src != b.src:
		return int(a.src) - int(b.src)
	default:
		return int(a.dst) - int(b.dst)
	}
}

// degrees returns Zipf out-degrees for ranks 1..v scaled to MeanDegree.
func degrees(v int) []int {
	h := 0.0
	for r := 1; r <= v; r++ {
		h += math.Pow(float64(r), -zipfExponent)
	}
	c := MeanDegree * float64(v) / h
	deg := make([]int, v)
	for r := range deg {
		deg[r] = max(1, int(c*math.Pow(float64(r+1), -zipfExponent)+0.5))
	}
	return deg
}

// Generate builds the stream for v vertices from seed. The result depends
// only on (v, seed), not on the number of CPUs.
//
// The skeleton — which vertex has which out-degree and where on the timeline
// its activity window starts — is the same for every seed: vertex r has the
// r-th largest degree, and windows are placed by a low-discrepancy sequence
// so that hubs are spread evenly over the timeline. The seed draws everything
// else: each edge's time inside its window, its destination, the request
// lists. Seeds therefore give different graphs of the same shape, and a
// metric's spread over seeds is measurement noise rather than one seed
// happening to put three hubs in the prefix the ingest workload bulk-loads.
func Generate(v int, seed uint64) *Stream {
	const invPhi = 0.6180339887498949
	type window struct {
		start float64
		id    int
	}
	// Position i on the sorted activity axis is vertex ids[i].
	byStart := make([]window, v)
	for r := range byStart {
		_, frac := math.Modf((float64(r) + 0.5) * invPhi)
		byStart[r] = window{start: frac, id: r}
	}
	slices.SortFunc(byStart, func(a, b window) int { return cmp.Compare(a.start, b.start) })
	byRank := degrees(v)
	starts := make([]float64, v)
	ids := make([]int, v)
	deg := make([]int, v)
	for i, w := range byStart {
		starts[i], ids[i], deg[i] = w.start, w.id, byRank[w.id]
	}

	offsets := make([]int, v+1)
	for i, d := range deg {
		offsets[i+1] = offsets[i] + d
	}
	raw := make([]rawEdge, offsets[v])

	workers := runtime.GOMAXPROCS(0)
	parallel(workers, v, func(lo, hi int) {
		pcg := rand.NewPCG(0, 0)
		r := rand.New(pcg)
		for i := lo; i < hi; i++ {
			pcg.Seed(seed, uint64(i)+1)
			a := starts[i]
			// Every destination window of this vertex lies inside
			// [a-w/2, a+3w/2): narrow the searches to it once.
			vlo := lowerBound(starts, a-windowFrac/2)
			vhi := lowerBound(starts, a+1.5*windowFrac)
			near := starts[vlo:vhi]
			for e := offsets[i]; e < offsets[i+1]; e++ {
				t := a + r.Float64()*windowFrac
				dlo := vlo + lowerBound(near, t-windowFrac/2)
				dhi := vlo + lowerBound(near, t+windowFrac/2)
				j := min(dlo, v-1) // empty window at the timeline's end
				if dhi > dlo {
					j = dlo + r.IntN(dhi-dlo)
				}
				raw[e] = rawEdge{t: t, src: uint32(ids[i]), dst: uint32(ids[j])}
			}
		}
	})

	sorted := sortByTime(raw, workers)
	edges := make([]temporal.Edge, len(sorted))
	for i, e := range sorted {
		edges[i] = temporal.Edge{Src: temporal.Vertex(e.src), Dst: temporal.Vertex(e.dst), Time: temporal.Time(i + 1)}
	}
	return &Stream{V: v, Edges: edges}
}

// sortByTime orders raw by (t, src, dst): one counting pass into timeline
// buckets, then independent per-bucket sorts.
func sortByTime(raw []rawEdge, workers int) []rawEdge {
	bucket := func(t float64) int {
		return min(sortBuckets-1, int(t/(1+windowFrac)*sortBuckets))
	}
	counts := make([]int, sortBuckets+1)
	for _, e := range raw {
		counts[bucket(e.t)+1]++
	}
	for b := 0; b < sortBuckets; b++ {
		counts[b+1] += counts[b]
	}
	out := make([]rawEdge, len(raw))
	next := slices.Clone(counts[:sortBuckets])
	for _, e := range raw {
		b := bucket(e.t)
		out[next[b]] = e
		next[b]++
	}
	parallel(workers, sortBuckets, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			slices.SortFunc(out[counts[b]:counts[b+1]], cmpRaw)
		}
	})
	return out
}

// parallel runs fn over [0,n) split into one contiguous range per worker.
func parallel(workers, n int, fn func(lo, hi int)) {
	workers = max(1, min(workers, n))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(w*n/workers, (w+1)*n/workers)
	}
	wg.Wait()
}

// lowerBound returns the first index of sorted xs whose value is >= x.
func lowerBound(xs []float64, x float64) int {
	i, _ := slices.BinarySearch(xs, x)
	return i
}

// Request is one seeded walk query: count walks of some length from From.
type Request struct {
	From temporal.Vertex
	Seed uint64
}

// Requests returns n requests with start vertices uniform over the stream's
// vertices (every vertex has at least one out-edge).
func (s *Stream) Requests(n int, seed uint64) []Request {
	rng := rand.New(rand.NewPCG(seed, 0x4e9))
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{From: temporal.Vertex(rng.IntN(s.V)), Seed: 1 + rng.Uint64N(1<<31)}
	}
	return reqs
}

// RecentRequests returns n requests whose start vertices are the sources of
// edges stamped in [lo, hi): vertices that were active in that part of the
// stream. The ingest workload uses it so walkers start where edges recently
// arrived, not at vertices the stream has not reached yet.
func (s *Stream) RecentRequests(n int, lo, hi int, seed uint64) []Request {
	rng := rand.New(rand.NewPCG(seed, 0x1e7))
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{From: s.Edges[lo+rng.IntN(hi-lo)].Src, Seed: 1 + rng.Uint64N(1<<31)}
	}
	return reqs
}

// Starts returns a seeded permutation of all vertices; corpus windows take
// consecutive slices of it, wrapping around.
func (s *Stream) Starts(seed uint64) []temporal.Vertex {
	rng := rand.New(rand.NewPCG(seed, 0x57a))
	out := make([]temporal.Vertex, s.V)
	for i, p := range rng.Perm(s.V) {
		out[i] = temporal.Vertex(p)
	}
	return out
}

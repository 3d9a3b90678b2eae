package apps

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
)

// Figure 1 ground truth: from vertex 9 (edge into 7 at t=4) the reachable
// set is {7, 4, 5, 6} — the paper's "only three paths" example plus the
// interchange itself.
func TestEarliestArrivalCommute(t *testing.T) {
	g := temporal.CommuteGraph()
	arr := EarliestArrival(g, 9, temporal.MinTime)
	want := map[temporal.Vertex]temporal.Time{
		9: temporal.MinTime, 7: 4, 4: 5, 5: 6, 6: 7,
	}
	for v := temporal.Vertex(0); v < 10; v++ {
		if wantT, ok := want[v]; ok {
			if arr[v] != wantT {
				t.Errorf("arrival[%d] = %d, want %d", v, arr[v], wantT)
			}
		} else if arr[v] != Unreachable {
			t.Errorf("arrival[%d] = %d, want unreachable", v, arr[v])
		}
	}
}

func TestEarliestArrivalStrictness(t *testing.T) {
	// 0 -(t=5)-> 1 -(t=5)-> 2: equal times cannot chain.
	g := temporal.MustFromEdges([]temporal.Edge{{Src: 0, Dst: 1, Time: 5}, {Src: 1, Dst: 2, Time: 5}})
	arr := EarliestArrival(g, 0, temporal.MinTime)
	if arr[1] != 5 {
		t.Fatalf("arrival[1] = %d", arr[1])
	}
	if arr[2] != Unreachable {
		t.Fatalf("arrival[2] = %d, equal-time chaining allowed", arr[2])
	}
}

func TestEarliestArrivalStartTime(t *testing.T) {
	g := temporal.CommuteGraph()
	// Starting at vertex 8 after time 0: the 8->7 edge (t=0) is unusable.
	arr := EarliestArrival(g, 8, 0)
	if arr[7] != Unreachable {
		t.Fatalf("arrival[7] = %d, want unreachable after start 0", arr[7])
	}
	arr = EarliestArrival(g, 8, -1)
	if arr[7] != 0 {
		t.Fatalf("arrival[7] = %d, want 0 with start -1", arr[7])
	}
}

func TestReachableSet(t *testing.T) {
	g := temporal.CommuteGraph()
	got := ReachableSet(g, 9, temporal.MinTime)
	want := []temporal.Vertex{4, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("reachable = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reachable = %v, want %v", got, want)
		}
	}
}

func TestLatestDeparture(t *testing.T) {
	g := temporal.CommuteGraph()
	// To reach vertex 6 (only via 7->6 at t=7) one must be at 7 no later
	// than "able to take t=7": departure[7] = 7. From 9 the 9->7 edge
	// departs at 4 < 7 → departure[9] = 4. From 8: edge at t=0 → 0.
	dep := LatestDeparture(g, 6, temporal.MaxTime)
	if dep[7] != 7 {
		t.Fatalf("departure[7] = %d, want 7", dep[7])
	}
	if dep[9] != 4 {
		t.Fatalf("departure[9] = %d, want 4", dep[9])
	}
	if dep[8] != 0 {
		t.Fatalf("departure[8] = %d, want 0", dep[8])
	}
	if dep[1] != temporal.MinTime {
		t.Fatalf("departure[1] = %d, want MinTime", dep[1])
	}
}

// Integration invariant: every vertex visited by engine walks must be in the
// exact temporal reachable set of its source.
func TestWalksStayWithinReachability(t *testing.T) {
	g := testutil.RandomGraph(t, 120, 2500, 400, 13)
	eng, err := core.NewEngine(g, core.ExponentialWalk(0.01), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(core.WalkConfig{Length: 25, Seed: 5, KeepPaths: true, WalksPerVertex: 2})
	if err != nil {
		t.Fatal(err)
	}
	arrCache := map[temporal.Vertex][]temporal.Time{}
	for _, p := range res.Paths {
		src := p.Vertices[0]
		arr, ok := arrCache[src]
		if !ok {
			arr = EarliestArrival(g, src, temporal.MinTime)
			arrCache[src] = arr
		}
		for i, v := range p.Vertices[1:] {
			if arr[v] == Unreachable {
				t.Fatalf("walk from %d visited unreachable vertex %d", src, v)
			}
			if temporal.Time(arr[v]) > p.Times[i] {
				t.Fatalf("walk from %d reached %d at %d before earliest arrival %d",
					src, v, p.Times[i], arr[v])
			}
		}
	}
}

func TestTemporalPPRCommute(t *testing.T) {
	g := temporal.CommuteGraph()
	eng, err := core.NewEngine(g, core.Unbiased(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	scores, err := TemporalPPR(eng, 9, PPRConfig{Walks: 20000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	bySrc := map[temporal.Vertex]float64{}
	for _, s := range scores {
		total += s.Score
		bySrc[s.Vertex] = s.Score
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("scores sum to %v", total)
	}
	// The source holds the restart mass and must rank first; only the
	// temporally reachable set {7,4,5,6} may appear beyond it.
	if scores[0].Vertex != 9 {
		t.Fatalf("top vertex %d, want source 9", scores[0].Vertex)
	}
	for v := range bySrc {
		switch v {
		case 9, 7, 4, 5, 6:
		default:
			t.Fatalf("PPR mass on temporally unreachable vertex %d", v)
		}
	}
	if bySrc[7] <= bySrc[4] {
		t.Fatalf("interchange 7 (%v) should outrank leaf 4 (%v)", bySrc[7], bySrc[4])
	}
}

func TestTemporalPPRErrors(t *testing.T) {
	g := temporal.CommuteGraph()
	eng, err := core.NewEngine(g, core.Unbiased(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TemporalPPR(eng, 99, PPRConfig{}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestTemporalPPRDeterministic(t *testing.T) {
	g := testutil.RandomGraph(t, 80, 1500, 300, 17)
	eng, err := core.NewEngine(g, core.LinearTime(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Each walk draws from its own split of the seed, so the thread count
	// (0 is GOMAXPROCS) cannot move a score.
	want, err := TemporalPPR(eng, 3, PPRConfig{Walks: 3000, Seed: 9, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{0, 2, 3, 4} {
		got, err := TemporalPPR(eng, 3, PPRConfig{Walks: 3000, Seed: 9, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scores at %d threads differ from 1 thread", threads)
		}
	}
}

func TestTemporalPPRAlphaEffect(t *testing.T) {
	// High restart probability concentrates mass on the source.
	g := testutil.RandomGraph(t, 80, 3000, 300, 19)
	eng, err := core.NewEngine(g, core.Unbiased(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	high, err := TemporalPPR(eng, 0, PPRConfig{Alpha: 0.9, Walks: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	low, err := TemporalPPR(eng, 0, PPRConfig{Alpha: 0.05, Walks: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !(high[0].Vertex == 0 && high[0].Score > low[0].Score) {
		t.Fatalf("alpha effect missing: high %+v, low %+v", high[0], low[0])
	}
}

// A request's memory does not grow with its thread count: the chunks share
// one count array instead of holding V counters each.
func TestTemporalPPRMemoryIndependentOfThreads(t *testing.T) {
	g := testutil.RandomGraph(t, 100000, 300000, 5000, 23)
	eng, err := core.NewEngine(g, core.ExponentialWalk(0.001), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(threads int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := TemporalPPR(eng, 7, PPRConfig{Walks: 2000, Seed: 5, Threads: threads}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	one, eight := alloc(1), alloc(8)
	if float64(eight) > 1.25*float64(one) {
		t.Fatalf("ppr allocated %d bytes at 8 threads, %d at 1", eight, one)
	}
	t.Logf("ppr allocated %d bytes at 8 threads, %d at 1", eight, one)
}

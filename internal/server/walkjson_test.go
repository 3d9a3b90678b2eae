package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/gen"
	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/reqcost"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
)

// walkResponse is the struct every non-shard /walk reply was encoded from
// with encoding/json before the append encoder. It stays as that encoder's
// oracle, beside shardWalkResponse, and as the tests' decoding target.
type walkResponse struct {
	From       temporal.Vertex   `json:"from"`
	Walks      [][]walkHop       `json:"walks"`
	Cost       map[string]string `json:"cost"`
	CostDetail *reqcost.Cost     `json:"cost_detail,omitempty"`
}

// legacyWalks is paths as the reply structs carried them.
func legacyWalks(paths []core.Path) [][]walkHop {
	if paths == nil {
		return nil
	}
	out := make([][]walkHop, len(paths))
	for i, p := range paths {
		out[i] = make([]walkHop, len(p.Vertices))
		for j, v := range p.Vertices {
			out[i][j].Vertex = v
			if j > 0 {
				t := int64(p.Times[j-1])
				out[i][j].Time = &t
			}
		}
	}
	return out
}

func legacyCost(fields []costField) map[string]string {
	m := map[string]string{}
	for _, f := range fields {
		switch f.kind {
		case 'd':
			m[f.key] = strconv.FormatInt(f.n, 10)
		case 'f':
			m[f.key] = fmt.Sprintf("%.2f", f.x)
		default:
			m[f.key] = f.s
		}
	}
	return m
}

// legacy is the reply struct encoding/json was given for rep and cost.
func legacy(rep walkReply, cost []costField) any {
	if rep.partial {
		return shardWalkResponse{
			From: rep.from, Shard: rep.shard, Partitions: rep.partitions, WalkIDs: rep.walkIDs,
			Walks: legacyWalks(rep.paths), Cost: legacyCost(cost), CostDetail: rep.detail, Spans: rep.spans,
		}
	}
	return walkResponse{From: rep.from, Walks: legacyWalks(rep.paths), Cost: legacyCost(cost), CostDetail: rep.detail}
}

func encodeJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkSameBytes(t testing.TB, rep walkReply, cost ...costField) {
	t.Helper()
	want := encodeJSON(t, legacy(rep, cost))
	if got := rep.appendJSON(nil, cost); !bytes.Equal(got, want) {
		t.Fatalf("append encoder differs from encoding/json:\n got %s\nwant %s", got, want)
	}
}

func TestWalkReplyMatchesEncodingJSON(t *testing.T) {
	edgeValues := []core.Path{
		{Vertices: []temporal.Vertex{7}, Times: []temporal.Time{}}, // zero steps
		{Vertices: []temporal.Vertex{math.MaxUint32, 0, 3}, Times: []temporal.Time{-5, 1 << 62}},
		{Vertices: []temporal.Vertex{1, 2}, Times: []temporal.Time{math.MinInt64}},
		{Vertices: []temporal.Vertex{2, 1}, Times: []temporal.Time{math.MaxInt64}},
	}
	detail := &reqcost.Cost{Steps: 3, EdgesEvaluated: 9, WallMicros: 41,
		Shards: map[string]*reqcost.Cost{"1": {Steps: 1}, "0": {Steps: 2, Migrations: 1}}}
	single := []costField{costNum("steps", 3), costRatio("edges_per_step", 3), costText("duration", "41.5µs")}
	for _, tc := range []struct {
		name string
		rep  walkReply
		cost []costField
	}{
		{"single", walkReply{from: 7, paths: edgeValues}, single},
		{"single cost=1", walkReply{from: math.MaxUint32, paths: edgeValues, detail: detail}, single},
		{"no paths", walkReply{from: 0}, single},
		{"durable", walkReply{from: 2, paths: edgeValues[1:2]}, []costField{costNum("steps", 2), costText("duration", "1.0002ms")}},
		{"shard owning nothing", walkReply{partial: true, from: 3, shard: 2, partitions: 3, walkIDs: []int{}, paths: []core.Path{}},
			[]costField{costNum("steps", 0), costNum("rounds", 0), costText("duration", "0s")}},
		{"shard", walkReply{partial: true, from: 3, shard: 0, partitions: 3, walkIDs: []int{3, 0, 1}, paths: edgeValues[:3], detail: detail,
			spans: []wire.SpanSummary{{Name: "shard.run", Shard: 0, StartMicros: -1, DurMicros: 9, Walkers: 3}, {Name: "shard.hop"}}},
			[]costField{
				costNum("steps", 3), costNum("edges_evaluated", 8), costText("duration", "2m3.5s"), costNum("rounds", 2),
				costNum("migrations", 1), costNum("frames", 4), costNum("local_steps", 2), costNum("bytes_sent", 1<<40),
			}},
		{"router", walkReply{from: 9, paths: edgeValues, detail: detail}, []costField{
			costNum("steps", 4), costNum("edges_evaluated", 10), costNum("migrations", 1), costNum("frames", 2),
			costNum("shards", 3), costRatio("edges_per_step", 2.5)}},
		{"strings encoding/json escapes", walkReply{from: 1}, []costField{
			costText("a<b", "<"), costText("gt", "a>b"), costText("amp", "a&b"), costText("quote", `"q"`),
			costText("backslash", `a\b`), costText("nl", "a\nb"), costText("ctl", "\x01\x1f"), costText("del", "\x7f"),
			costText("ls", "x\u2028y"), costText("ps", "y\u2029z"), costText("bad", "\xff\xfe"), costText("cut", "\xe6\x97"),
			costText("ok", "日本µ"),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkSameBytes(t, tc.rep, tc.cost...) })
	}
}

// A ratio prints exactly what fmt's %.2f printed.
func TestCostRatioMatchesSprintf(t *testing.T) {
	for _, x := range []float64{0, 1, 1.0 / 3, 2.675, 2.665, 0.005, 0.015, 3.999, 12345.678, 1e21, -0.004, math.Inf(1), math.NaN()} {
		checkSameBytes(t, walkReply{}, costRatio("r", x))
	}
}

// FuzzWalkReplyJSON drives the encoder with arbitrary walks, ids, strings and
// cost values; encoding/json over the legacy structs is the oracle.
func FuzzWalkReplyJSON(f *testing.F) {
	f.Add(uint32(0), []byte{}, "", false)
	f.Add(uint32(math.MaxUint32), []byte{3, 0, 2, 255, 255, 255, 255, 1, 0, 0, 0, 0, 0, 0, 0x80}, "41.5µs", false)
	f.Add(uint32(5), []byte{2, 5, 1, 2, 3, 4, 9, 9, 9, 9, 9, 9, 9, 9}, "<&>\u2028\xff", true)
	f.Fuzz(func(t *testing.T, from uint32, data []byte, text string, partial bool) {
		rep := walkReply{from: temporal.Vertex(from), paths: fuzzPaths(data)}
		if partial {
			rep.partial, rep.shard, rep.partitions = true, len(text), len(data)
			rep.walkIDs = make([]int, len(rep.paths))
			for i := range rep.walkIDs {
				rep.walkIDs[i] = i * len(text)
			}
			rep.detail = &reqcost.Cost{Steps: int64(from), Shards: map[string]*reqcost.Cost{text: {Frames: 1}}}
			rep.spans = []wire.SpanSummary{{Name: text, Shard: int32(len(data)), StartMicros: int64(from)}}
		}
		checkSameBytes(t, rep, costText("duration", text), costNum("steps", int64(len(data))-3), costText("x-"+text, text))
	})
}

// fuzzPaths reads up to four walks out of data: a walk count, then per walk
// a step count, a 4-byte start vertex and 12 bytes per step.
func fuzzPaths(data []byte) []core.Path {
	next := func(n int) []byte {
		var b [8]byte
		m := copy(b[:n], data)
		data = data[m:]
		return b[:]
	}
	if len(data) == 0 {
		return nil
	}
	paths := make([]core.Path, next(1)[0]%5)
	for i := range paths {
		steps := int(next(1)[0] % 6)
		p := core.Path{Vertices: []temporal.Vertex{temporal.Vertex(binary.LittleEndian.Uint32(next(4)))}, Times: []temporal.Time{}}
		for s := 0; s < steps; s++ {
			p.Vertices = append(p.Vertices, temporal.Vertex(binary.LittleEndian.Uint32(next(4))))
			p.Times = append(p.Times, temporal.Time(binary.LittleEndian.Uint64(next(8))))
		}
		paths[i] = p
	}
	return paths
}

// fetch GETs url and checks the reply is a 200 whose Content-Length is its
// body's length.
func fetch(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("GET %s: Content-Length %d for a %d-byte body", url, resp.ContentLength, len(body))
	}
	return body
}

// checkReencodes fails unless body is byte for byte what encoding/json writes
// for the same content decoded into the legacy reply struct v.
func checkReencodes(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatal(err)
	}
	if want := encodeJSON(t, v); !bytes.Equal(body, want) {
		t.Fatalf("reply differs from encoding/json's:\n got %s\nwant %s", body, want)
	}
}

// Every producer's reply, served end to end, is what encoding/json would have
// written: the single-process, durable, shard and router /walk.
func TestWalkProducersEncodeLikeEncodingJSON(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 600, 61)
	spec := sampling.Exponential(0.01)
	eng, err := core.NewEngine(g, core.App{Name: "test", Weight: spec}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(NewWithConfig(eng, Config{Metrics: metrics.NewRegistry()}).Handler())
	t.Cleanup(single.Close)
	shards := newShardCluster(t, g, spec, 3, Config{Metrics: metrics.NewRegistry()}, nil)
	router := newShardRouter(t, shards, RouterConfig{Metrics: metrics.NewRegistry()})
	durable, _, d := newIngestServer(t, Config{})
	if err := d.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: 10}, {Src: 1, Dst: 2, Time: 11}, {Src: 1, Dst: 0, Time: 12}}); err != nil {
		t.Fatal(err)
	}

	for _, q := range []string{"from=7&length=40&count=8&seed=3", "from=0&length=5&count=3&seed=9&cost=1"} {
		checkReencodes(t, fetch(t, single.URL+"/walk?"+q), &walkResponse{})
		checkReencodes(t, fetch(t, router.URL+"/walk?"+q), &walkResponse{})
		for _, ts := range shards {
			checkReencodes(t, fetch(t, ts.URL+"/walk?"+q), &shardWalkResponse{})
		}
	}
	checkReencodes(t, fetch(t, durable.URL+"/walk?from=0&length=5&count=3&seed=2"), &walkResponse{})
	checkReencodes(t, fetch(t, durable.URL+"/walk?from=2&length=5&count=1"), &walkResponse{}) // zero-step walk
}

// A /walk of 4 walks of length 80, measured through Server.Handler() with the
// httptest request and recorder counted: the allocation budget of the serving
// path (the append encoder, one query parse, pre-resolved counters, walker
// streams by value, the scalar kernel inline).
func TestWalkAllocBudget(t *testing.T) {
	g, err := gen.Growth().Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(g, core.Unbiased(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewWithConfig(eng, Config{Metrics: metrics.NewRegistry()}).Handler()
	const budget = 60
	var rec *httptest.ResponseRecorder
	allocs := testing.AllocsPerRun(100, func() {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/walk?from=1&count=4&length=80&seed=7", nil))
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	steps := bytes.Count(rec.Body.Bytes(), []byte(`"t":`))
	if steps == 0 {
		t.Fatal("the walks took no steps")
	}
	if allocs > budget {
		t.Fatalf("/walk allocates %.0f times per request (%d steps), budget %d", allocs, steps, budget)
	}
	t.Logf("%.0f allocs per request of %d steps", allocs, steps)
}

// count=10000, length=10000 on a two-edge graph used to reserve 10,001 hops
// per walk, over a gigabyte for a 380 KB reply; kept paths now reserve at
// most the default walk length and grow past it.
func TestHugeWalkRequestMemory(t *testing.T) {
	g, err := temporal.FromEdges([]temporal.Edge{{Src: 0, Dst: 1, Time: 1}, {Src: 1, Dst: 2, Time: 2}}, temporal.WithNumVertices(3))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(g, core.Unbiased(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewWithConfig(eng, Config{Metrics: metrics.NewRegistry()}).Handler()
	req := httptest.NewRequest(http.MethodGet, "/walk?from=0&count=10000&length=10000", nil)
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	const limit = 16 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("request allocated %.1f MB, limit %d MB", float64(got)/(1<<20), limit>>20)
	}

	var got walkResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	walk := core.Path{Vertices: []temporal.Vertex{0, 1, 2}, Times: []temporal.Time{1, 2}}
	want := walkResponse{From: 0, Walks: make([][]walkHop, 10000), Cost: map[string]string{
		"steps": "20000", "edges_per_step": "1.00", "duration": got.Cost["duration"],
	}}
	for i := range want.Walks {
		want.Walks[i] = legacyWalks([]core.Path{walk})[0]
	}
	if !bytes.Equal(rec.Body.Bytes(), encodeJSON(t, want)) {
		t.Fatalf("reply is not 10000 walks 0→1→2:\n%.300s", rec.Body)
	}
}

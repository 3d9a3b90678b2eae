package server

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/reqcost"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/temporal"
)

// referenceSplice is the router's merge input the way it was read before the
// splice: encoding/json into shardWalkResponse, pathOf on every walk, and
// each path rendered again by appendPaths.
func referenceSplice(body []byte) (shardWalkResponse, [][]byte, bool) {
	var sr shardWalkResponse
	if json.Unmarshal(body, &sr) != nil {
		return sr, nil, false
	}
	walks := make([][]byte, len(sr.Walks))
	for i, hops := range sr.Walks {
		p, ok := pathOf(hops)
		if !ok {
			return sr, nil, false
		}
		b := appendPaths(nil, []core.Path{p})
		walks[i] = b[1 : len(b)-1]
	}
	return sr, walks, true
}

// checkSplice fails if parseShardWalk accepts body and the reference does
// not, or reads a different walk list, cost, cost_detail or span list.
func checkSplice(t *testing.T, body []byte) {
	t.Helper()
	sw, err := parseShardWalk(body)
	if err != nil {
		return
	}
	sr, walks, ok := referenceSplice(body)
	if !ok {
		t.Fatalf("scanner accepts a body encoding/json and pathOf refuse:\n%q", body)
	}
	if sw.partitions != sr.Partitions || !slices.Equal(sw.walkIDs, sr.WalkIDs) {
		t.Fatalf("partitions %d, ids %v; reference %d, %v", sw.partitions, sw.walkIDs, sr.Partitions, sr.WalkIDs)
	}
	if !slices.EqualFunc(sw.walks, walks, bytes.Equal) {
		t.Fatalf("walks %q\nreference %q", sw.walks, walks)
	}
	got := [4]int64{sw.steps, sw.edges, sw.migrations, sw.frames}
	want := [4]int64{costInt(sr.Cost, "steps"), costInt(sr.Cost, "edges_evaluated"), costInt(sr.Cost, "migrations"), costInt(sr.Cost, "frames")}
	if got != want {
		t.Fatalf("cost sums %v, reference %v", got, want)
	}
	if !reflect.DeepEqual(sw.detail, sr.CostDetail) || !reflect.DeepEqual(sw.spans, sr.Spans) {
		t.Fatalf("tail %+v %+v, reference %+v %+v", sw.detail, sw.spans, sr.CostDetail, sr.Spans)
	}
}

// FuzzShardWalkSplice holds the router's scanner to the decode it replaced
// on arbitrary bodies, and checks that every partial reply fuzzReply builds,
// as appendJSON renders it, parses and splices back byte for byte.
func FuzzShardWalkSplice(f *testing.F) {
	tail := `,"cost_detail":{"steps":3,"edges_evaluated":8,"shards":{"�":null}},` +
		`"spans":[{"name":"shard.run","shard":0,"start_us":-1,"dur_us":9,"walkers":3}]}` + "\n"
	for _, body := range []string{
		mergeShard0,
		mergeShard1, // vertex 4294967295, times MaxInt64 and MinInt64
		strings.Replace(mergeShard0, `"t":-3`, `"t":-0`, 1),
		strings.Replace(mergeShard0, `"walk_ids":[0,2],"walks":[[{"v":5},{"v":9,"t":-3}],[{"v":5}]]`, `"walk_ids":[],"walks":[]`, 1),
		strings.Replace(mergeShard0, `"walks":[[{"v":5},{"v":9,"t":-3}],[{"v":5}]]`, `"walks":[[{"v":5}],[{"v":0}]]`, 1),
		strings.TrimSuffix(mergeShard1, "}\n") + tail,
		`{"from":0,"shard":0,"partitions":1,"walk_ids":null,"walks":null,"cost":{"a\u003c":"\n","steps":"-9223372036854775808"}}` + "\n",
	} {
		f.Add([]byte(body), uint32(0), []byte{}, "")
	}
	f.Add([]byte{}, uint32(math.MaxUint32), []byte{3, 0, 2, 255, 255, 255, 255, 1, 0, 0, 0, 0, 0, 0, 0x80}, "41.5µs")
	f.Add([]byte{}, uint32(5), []byte{2, 5, 1, 2, 3, 4, 9, 9, 9, 9, 9, 9, 9, 9}, "<&> \xff")
	f.Add([]byte{}, uint32(1), []byte{1, 0, 0, 0, 0, 0}, `�"`)
	f.Fuzz(func(t *testing.T, body []byte, from uint32, data []byte, text string) {
		checkSplice(t, body)

		rep, cost := fuzzReply(from, data, text, true)
		rendered := rep.appendJSON(nil, cost)
		checkSplice(t, rendered)
		sw, err := parseShardWalk(rendered)
		if err != nil {
			t.Fatalf("rendered partial reply refused: %v\n%q", err, rendered)
		}
		if sw.partitions != rep.partitions || !slices.Equal(sw.walkIDs, rep.walkIDs) || len(sw.walks) != len(rep.paths) {
			t.Fatalf("read partitions %d, ids %v, %d walks from %q", sw.partitions, sw.walkIDs, len(sw.walks), rendered)
		}
		if sw.steps != int64(len(data))-3 || sw.edges != 0 || sw.migrations != 0 || sw.frames != 0 {
			t.Fatalf("cost sums %d %d %d %d from %q", sw.steps, sw.edges, sw.migrations, sw.frames, rendered)
		}
		if len(rep.paths) > 0 {
			spliced := (&walkReply{from: rep.from, walks: sw.walks}).appendJSON(nil, cost)
			if want := (&walkReply{from: rep.from, paths: rep.paths}).appendJSON(nil, cost); !bytes.Equal(spliced, want) {
				t.Fatalf("spliced reply\n got %s\nwant %s", spliced, want)
			}
		}
	})
}

// Parsing and splicing a shard reply allocates per reply and per walk, never
// per hop: 5-hop and 80-hop walks cost the same count.
func TestShardWalkSpliceAllocs(t *testing.T) {
	const bound = 8
	counts := map[int]float64{}
	for _, hops := range []int{5, 80} {
		paths := make([]core.Path, 4)
		for i := range paths {
			for h := 0; h < hops; h++ {
				paths[i].Vertices = append(paths[i].Vertices, temporal.Vertex(h*7+i))
				if h > 0 {
					paths[i].Times = append(paths[i].Times, temporal.Time(h*1000-i))
				}
			}
		}
		rep := walkReply{partial: true, from: 7, shard: 1, partitions: 3, walkIDs: []int{0, 1, 2, 3}, paths: paths}
		body := rep.appendJSON(nil, []costField{
			costNum("steps", int64(4*(hops-1))), costNum("edges_evaluated", 99), costText("duration", "41.5µs"),
			costNum("rounds", 2), costNum("migrations", 1), costNum("frames", 1),
			costNum("local_steps", 3), costNum("bytes_sent", 120),
		})
		merged := make([][]byte, 4)
		buf := make([]byte, 0, 2*len(body))
		var err error
		counts[hops] = testing.AllocsPerRun(100, func() {
			var sw shardWalk
			if sw, err = parseShardWalk(body); err != nil {
				return
			}
			for j, id := range sw.walkIDs {
				merged[id] = sw.walks[j]
			}
			out := walkReply{from: 7, walks: merged}
			buf = out.appendJSON(buf[:0], []costField{costNum("steps", sw.steps), costNum("edges_evaluated", sw.edges)})
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := (&walkReply{from: 7, paths: paths}).appendJSON(nil, []costField{costNum("steps", int64(4*(hops-1))), costNum("edges_evaluated", 99)}); !bytes.Equal(buf, want) {
			t.Fatalf("%d hops: spliced\n%s\nwant\n%s", hops, buf, want)
		}
	}
	if counts[5] != counts[80] || counts[5] > bound {
		t.Fatalf("parse plus splice allocates %.0f times for 5-hop walks, %.0f for 80-hop walks: want equal and at most %d",
			counts[5], counts[80], bound)
	}
	t.Logf("%.0f allocs per shard reply", counts[5])
}

// A shard reply is read back whole, its cost_detail and spans tail
// included, and refused unless every part is exactly as rendered.
func TestParseShardWalkStrict(t *testing.T) {
	detail := &reqcost.Cost{Steps: 3, EdgesEvaluated: 8, Migrations: 1, Frames: 2, WallMicros: 41}
	spans := []wire.SpanSummary{{Name: "shard.run", Shard: 0, StartMicros: -1, DurMicros: 9, Walkers: 3}, {Name: "shard.hop"}}
	rep := walkReply{partial: true, from: 3, partitions: 1, walkIDs: []int{0},
		paths: []core.Path{{Vertices: []temporal.Vertex{3}}}, detail: detail, spans: spans}
	body := rep.appendJSON(nil, []costField{costNum("steps", 3), costText("a<b", "µ\n"), costNum("frames", 2)})
	sw, err := parseShardWalk(body)
	if err != nil {
		t.Fatal(err)
	}
	if sw.steps != 3 || sw.frames != 2 || !reflect.DeepEqual(sw.detail, detail) || !reflect.DeepEqual(sw.spans, spans) {
		t.Fatalf("read steps %d, frames %d, tail %+v %+v", sw.steps, sw.frames, sw.detail, sw.spans)
	}
	for _, bad := range []struct{ old, new string }{
		{`"frames":"2","steps"`, `"steps":"3","frames":"2","steps"`},  // keys out of order
		{`"frames":"2","steps"`, `"frames":"2","frames":"2","steps"`}, // a key twice
		{`"frames":"2"`, `"frames":"+2"`},
		{`"steps":"3"`, `"steps":"3.0"`},
		{`"a\u003cb"`, `"a<b"`},     // escaped by encoding/json, so never raw
		{`"steps"`, `"\u0073teps"`}, // an escape encoding/json does not write
		{`"µ\n"`, `"\u00b5\n"`},
		{`,"cost_detail":{`, `, "cost_detail":{`},
		{`"steps":3,"edges_evaluated":8`, `"edges_evaluated":8,"steps":3`},
		{`,"spans":[`, `,"spans":[],"spans":[`},
		{"}]}\n", "}],\"extra\":1}\n"},
		{`,"cost_detail":{"steps":3,"edges_evaluated":8,"migrations":1,"frames":2,"wall_us":41}`, `,"cost_detail":null`},
		{"}\n", "}"},
	} {
		b := bytes.Replace(body, []byte(bad.old), []byte(bad.new), 1)
		if bytes.Equal(b, body) {
			t.Fatalf("body has no %q: %s", bad.old, body)
		}
		if _, err := parseShardWalk(b); err == nil {
			t.Fatalf("accepted %s", b)
		}
	}
}

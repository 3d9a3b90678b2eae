package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// Two canned shard replies to /walk?from=5&count=3: shard 0 coordinated
// walks 0 and 2, shard 1 walk 1, with the extreme vertex and time values.
const (
	mergeShard0 = `{"from":5,"shard":0,"partitions":2,"walk_ids":[0,2],` +
		`"walks":[[{"v":5},{"v":9,"t":-3}],[{"v":5}]],` +
		`"cost":{"bytes_sent":"0","duration":"41.5µs","edges_evaluated":"4","frames":"1","local_steps":"1","migrations":"1","rounds":"1","steps":"1"}}` + "\n"
	mergeShard1 = `{"from":5,"shard":1,"partitions":2,"walk_ids":[1],` +
		`"walks":[[{"v":5},{"v":4294967295,"t":9223372036854775807},{"v":0,"t":-9223372036854775808}]],` +
		`"cost":{"bytes_sent":"12","duration":"1ms","edges_evaluated":"6","frames":"1","local_steps":"2","migrations":"0","rounds":"2","steps":"2"}}` + "\n"
	mergeReply = `{"from":5,"walks":[[{"v":5},{"v":9,"t":-3}],` +
		`[{"v":5},{"v":4294967295,"t":9223372036854775807},{"v":0,"t":-9223372036854775808}],[{"v":5}]],` +
		`"cost":{"edges_evaluated":"10","edges_per_step":"3.33","frames":"2","migrations":"1","shards":"2","steps":"3"}}` + "\n"
)

// TestRouterMergeTable drives the router's /walk merge with canned shard
// bodies: the exactly-once claim on walk ids, the partition count and the
// shape of every hop decide between the merged reply and a 502.
func TestRouterMergeTable(t *testing.T) {
	// edit replaces old by new in one shard's canned body.
	edit := func(shard int, old, new string) [2]string {
		bodies := [2]string{mergeShard0, mergeShard1}
		if !strings.Contains(bodies[shard], old) {
			t.Fatalf("shard %d body has no %q", shard, old)
		}
		bodies[shard] = strings.Replace(bodies[shard], old, new, 1)
		return bodies
	}
	for _, tc := range []struct {
		name   string
		bodies [2]string
		want   int
	}{
		{"canonical", [2]string{mergeShard0, mergeShard1}, http.StatusOK},
		{"not JSON", edit(0, mergeShard0, "walks: none\n"), http.StatusBadGateway},
		{"fewer ids than walks", edit(0, `"walk_ids":[0,2]`, `"walk_ids":[0]`), http.StatusBadGateway},
		{"id out of range", edit(1, `"walk_ids":[1]`, `"walk_ids":[3]`), http.StatusBadGateway},
		{"id claimed twice", edit(1, `"walk_ids":[1]`, `"walk_ids":[2]`), http.StatusBadGateway},
		{"id claimed by none", edit(0, `"walk_ids":[0,2],"walks":[[{"v":5},{"v":9,"t":-3}],[{"v":5}]]`,
			`"walk_ids":[0],"walks":[[{"v":5},{"v":9,"t":-3}]]`), http.StatusBadGateway},
		{"wrong partition count", edit(1, `"partitions":2`, `"partitions":3`), http.StatusBadGateway},
		{"start hop with a time", edit(0, `[{"v":5}]]`, `[{"v":5,"t":1}]]`), http.StatusBadGateway},
		{"later hop without a time", edit(0, `{"v":9,"t":-3}`, `{"v":9}`), http.StatusBadGateway},
		{"vertex past uint32", edit(1, `{"v":4294967295,`, `{"v":4294967296,`), http.StatusBadGateway},
		{"time past int64", edit(1, `"t":9223372036854775807`, `"t":9223372036854775808`), http.StatusBadGateway},
		// Valid JSON the shard encoder never writes: a shard reply is spliced
		// as it stands, so it must be in exactly the rendered form.
		{"whitespace", edit(0, `"walk_ids":[0,2]`, `"walk_ids": [0, 2]`), http.StatusBadGateway},
		{"reordered keys", edit(0, `{"v":9,"t":-3}`, `{"t":-3,"v":9}`), http.StatusBadGateway},
		{"leading zeros", edit(1, `"steps":"2"`, `"steps":"02"`), http.StatusBadGateway},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var shards []string
			for _, body := range tc.bodies {
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
					w.Header().Set("Content-Type", "application/json")
					_, _ = io.WriteString(w, body)
				}))
				t.Cleanup(ts.Close)
				shards = append(shards, ts.URL)
			}
			rt, err := NewRouter(RouterConfig{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rt.Close)
			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/walk?from=5&count=3", nil))
			if rec.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.want, rec.Body)
			}
			if tc.want == http.StatusOK && rec.Body.String() != mergeReply {
				t.Fatalf("merged reply\n got %s\nwant %s", rec.Body, mergeReply)
			}
		})
	}
}

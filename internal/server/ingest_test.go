package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/reqcost"
	"github.com/tea-graph/tea/internal/stream"
	"github.com/tea-graph/tea/internal/wal"
)

func postJSON(t *testing.T, url, body string, wantStatus int, into any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
}

func newIngestServer(t *testing.T, cfg Config) (*httptest.Server, *Server, *stream.DurableGraph) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	s := NewDurable(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	d, err := stream.OpenDurable(t.TempDir(), stream.DurableConfig{
		WAL: wal.Options{Policy: wal.SyncNever},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	s.SetDurable(d)
	return ts, s, d
}

// Before recovery completes (SetDurable), every durable endpoint sheds with
// 503 + Retry-After; /healthz (liveness) still answers 200.
func TestIngestUnreadyUntilRecovered(t *testing.T) {
	s := NewDurable(Config{Metrics: metrics.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var health map[string]string
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before recovery: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("/readyz 503 missing Retry-After")
	}
	postJSON(t, ts.URL+"/edges", `{"edges":[{"src":0,"dst":1,"t":1}]}`, http.StatusServiceUnavailable, nil)
	postJSON(t, ts.URL+"/expire?before=1", "", http.StatusServiceUnavailable, nil)
	getJSON(t, ts.URL+"/stats", http.StatusServiceUnavailable, nil)

	// Recovery completes: everything flips ready.
	d, err := stream.OpenDurable(t.TempDir(), stream.DurableConfig{WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s.SetDurable(d)
	var ready map[string]any
	getJSON(t, ts.URL+"/readyz", http.StatusOK, &ready)
	if ready["status"] != "ready" {
		t.Fatalf("readyz after recovery: %v", ready)
	}
}

func TestIngestLifecycle(t *testing.T) {
	ts, _, d := newIngestServer(t, Config{})

	var ing ingestResponse
	postJSON(t, ts.URL+"/edges",
		`{"edges":[{"src":0,"dst":1,"t":10},{"src":0,"dst":2,"t":11},{"src":1,"dst":2,"t":12}]}`,
		http.StatusOK, &ing)
	if ing.Appended != 3 || ing.Edges != 3 || ing.Frontier != 12 {
		t.Fatalf("ingest response: %+v", ing)
	}

	var st statsResponse
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	if st.Edges != 3 || st.TimeLo != 10 || st.TimeHi != 12 || st.Application != "ingest" {
		t.Fatalf("stats: %+v", st)
	}

	var walk walkResponse
	getJSON(t, ts.URL+"/walk?from=0&length=4&count=2&seed=7", http.StatusOK, &walk)
	if len(walk.Walks) != 2 || len(walk.Walks[0]) < 2 {
		t.Fatalf("walk: %+v", walk)
	}

	// Non-increasing timestamps are the client's bug: 400, nothing applied.
	postJSON(t, ts.URL+"/edges", `{"edges":[{"src":3,"dst":4,"t":5}]}`, http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	if st.Edges != 3 {
		t.Fatalf("stale batch changed state: %+v", st)
	}

	var exp expireResponse
	postJSON(t, ts.URL+"/expire?before=12", "", http.StatusOK, &exp)
	if exp.Dropped != 2 || exp.Edges != 1 {
		t.Fatalf("expire: %+v", exp)
	}

	// Ingest mode has no preprocessed index: /ppr and /reach are 501.
	getJSON(t, ts.URL+"/ppr?from=0", http.StatusNotImplemented, nil)
	getJSON(t, ts.URL+"/reach?from=0", http.StatusNotImplemented, nil)

	// The mutations really went through the WAL.
	if d.Recovery().Records != 0 && d.NumEdges() != 1 {
		t.Fatalf("durable state: %d edges", d.NumEdges())
	}
}

// A durable /walk honors the request deadline: every walk loop checks the
// context, so an expired one answers 504 instead of walking regardless.
func TestDurableWalkHonorsRequestTimeout(t *testing.T) {
	ts, _, _ := newIngestServer(t, Config{RequestTimeout: time.Nanosecond})
	postJSON(t, ts.URL+"/edges", `{"edges":[{"src":0,"dst":1,"t":10},{"src":1,"dst":2,"t":11}]}`, http.StatusOK, nil)
	getJSON(t, ts.URL+"/walk?from=0&length=4&count=3&seed=7", http.StatusGatewayTimeout, nil)
}

// A durable /walk bills its steps to the request's cost ledger, so
// /debug/tea/top shows what the reply's cost block says.
func TestDurableWalkRecordsCost(t *testing.T) {
	ts, _, _ := newIngestServer(t, Config{})
	postJSON(t, ts.URL+"/edges",
		`{"edges":[{"src":0,"dst":1,"t":10},{"src":0,"dst":2,"t":11},{"src":1,"dst":2,"t":12},{"src":2,"dst":0,"t":13}]}`,
		http.StatusOK, nil)
	var walk walkResponse
	getJSON(t, ts.URL+"/walk?from=0&length=4&count=5&seed=7", http.StatusOK, &walk)
	steps, err := strconv.ParseInt(walk.Cost["steps"], 10, 64)
	if err != nil || steps == 0 {
		t.Fatalf("reply cost.steps %q: %v", walk.Cost["steps"], err)
	}
	var top struct {
		Top []reqcost.Record `json:"top"`
	}
	getJSON(t, ts.URL+"/debug/tea/top", http.StatusOK, &top)
	for _, rec := range top.Top {
		if rec.Endpoint == "walk" {
			if rec.Cost.Steps != steps || rec.Cost.Walks != 5 {
				t.Fatalf("top record steps %d walks %d, reply steps %d walks 5", rec.Cost.Steps, rec.Cost.Walks, steps)
			}
			return
		}
	}
	t.Fatalf("no walk record in the top ring: %+v", top.Top)
}

func TestIngestValidation(t *testing.T) {
	ts, _, d := newIngestServer(t, Config{})
	postJSON(t, ts.URL+"/edges", `{"edges":[]}`, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/edges", `not json`, http.StatusBadRequest, nil)
	// One edge past the per-request cap is refused before the WAL.
	var b strings.Builder
	b.WriteString(`{"edges":[`)
	for i := 0; i <= maxIngestBatch; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"src":0,"dst":1,"t":%d}`, i+1)
	}
	b.WriteString(`]}`)
	postJSON(t, ts.URL+"/edges", b.String(), http.StatusBadRequest, nil)
	if lsn := d.Log().LastLSN(); lsn != 0 || d.NumEdges() != 0 {
		t.Fatalf("over-cap batch reached the log (LSN %d) or the graph (%d edges)", lsn, d.NumEdges())
	}
	postJSON(t, ts.URL+"/expire", "", http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/expire?before=abc", "", http.StatusBadRequest, nil)
}

// The body's answers, for any decoder of it to keep: other keys anywhere are
// skipped, the key matches in any case, a repeated key's last array wins,
// and null or missing edges are an empty batch.
func TestIngestBodyShapes(t *testing.T) {
	ts, _, d := newIngestServer(t, Config{})
	for _, c := range []struct {
		body     string
		appended int    // on 200
		errPart  string // on 400
	}{
		{`{"edges":null}`, 0, "empty batch"},
		{`{"edges":[]}`, 0, "empty batch"},
		{`{"other":1}`, 0, "empty batch"},
		{`not json`, 0, "body: "},
		{`[{"src":0,"dst":1,"t":1}]`, 0, "body: "},
		{`{"edges":{"src":0,"dst":1,"t":1}}`, 0, "body: "},
		{`{"edges":[{"src":0,"dst":1,"t":1}]} {}`, 0, "data after the JSON object"},
		{`{"a":{"b":[1,"]"]},"edges":[{"src":0,"dst":1,"t":1}],"c":null}`, 1, ""},
		{`{"Edges":[{"src":0,"dst":2,"t":2},{"src":1,"dst":2,"t":3}]}`, 2, ""},
		{`{"edges":[{"src":0,"dst":1,"t":9}],"edges":[{"src":0,"dst":3,"t":4}]}`, 1, ""},
		{`{"edges":[{"src":7,"dst":3,"t":5},{"src":8,"t":6}]}`, 2, ""},
	} {
		if c.errPart != "" {
			var body map[string]string
			postJSON(t, ts.URL+"/edges", c.body, http.StatusBadRequest, &body)
			if !strings.Contains(body["error"], c.errPart) {
				t.Fatalf("%s: error %q, want %q", c.body, body["error"], c.errPart)
			}
			continue
		}
		var resp ingestResponse
		postJSON(t, ts.URL+"/edges", c.body, http.StatusOK, &resp)
		if resp.Appended != c.appended {
			t.Fatalf("%s: appended %d, want %d", c.body, resp.Appended, c.appended)
		}
	}
	if d.NumEdges() != 6 || d.Frontier() != 6 {
		t.Fatalf("%d edges up to t=%d, want 6 up to t=6", d.NumEdges(), d.Frontier())
	}
	// An edge that omits a field gets zero there, not the previous edge's.
	d.View(func(g *stream.Graph) {
		snap, err := g.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if dst, at := snap.EdgeAt(8, 0); dst != 0 || at != 6 {
			t.Fatalf("edge {src 8, t 6} stored as 8→%d at %d, want 8→0 at 6", dst, at)
		}
	})
}

// A body holding more than one JSON object is refused whole: appending the
// first and answering 200 would drop the rest without a word.
func TestIngestRefusesTrailingData(t *testing.T) {
	ts, _, d := newIngestServer(t, Config{})
	for _, body := range []string{
		`{"edges":[{"src":0,"dst":1,"t":1}]}{"edges":[{"src":0,"dst":2,"t":2}]}`,
		`{"edges":[{"src":0,"dst":1,"t":1}]} x`,
		`{"edges":[{"src":0,"dst":1,"t":1}]}]`,
	} {
		postJSON(t, ts.URL+"/edges", body, http.StatusBadRequest, nil)
	}
	if d.NumEdges() != 0 {
		t.Fatalf("a refused body appended %d edges", d.NumEdges())
	}
	var resp ingestResponse
	postJSON(t, ts.URL+"/edges", "{\"edges\":[{\"src\":0,\"dst\":1,\"t\":1}]}\n\t ", http.StatusOK, &resp)
	if resp.Appended != 1 {
		t.Fatalf("trailing whitespace: %+v", resp)
	}
}

// A vertex id past the stream's bound is the client's bug: 400 with a JSON
// error, and nothing reaches the WAL — a logged batch would be replayed at
// every restart.
func TestIngestRefusesVertexIDOutOfRange(t *testing.T) {
	ts, _, d := newIngestServer(t, Config{})
	lsn := d.Log().LastLSN()
	var body map[string]any
	postJSON(t, ts.URL+"/edges", `{"edges":[{"src":4294967295,"dst":1,"t":1}]}`, http.StatusBadRequest, &body)
	if msg, _ := body["error"].(string); !strings.Contains(msg, "vertex id out of range") {
		t.Fatalf("error body %v", body)
	}
	if got := d.Log().LastLSN(); got != lsn || d.NumVertices() != 0 {
		t.Fatalf("refused batch reached the log (LSN %d → %d) or the graph (%d vertices)", lsn, got, d.NumVertices())
	}
}

// A read-only query server refuses ingest endpoints explicitly rather than
// 404ing.
func TestIngestRejectedInEngineMode(t *testing.T) {
	ts := newTestServer(t)
	postJSON(t, ts.URL+"/edges", `{"edges":[{"src":0,"dst":1,"t":1}]}`, http.StatusNotImplemented, nil)
	postJSON(t, ts.URL+"/expire?before=1", "", http.StatusNotImplemented, nil)
	var ready map[string]string
	getJSON(t, ts.URL+"/readyz", http.StatusOK, &ready)
	if ready["status"] != "ready" {
		t.Fatalf("engine-mode readyz: %v", ready)
	}
}

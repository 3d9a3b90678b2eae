package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// cannedShard is a fake shard answering every request with one canned
// reply, counting the requests and keeping the last raw query.
type cannedShard struct {
	status int
	header map[string]string
	body   string

	calls    atomic.Int64
	rawQuery atomic.Value
}

func (cs *cannedShard) start(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cs.calls.Add(1)
		cs.rawQuery.Store(r.URL.RawQuery)
		for k, v := range cs.header {
			w.Header().Set(k, v)
		}
		w.WriteHeader(cs.status)
		_, _ = io.WriteString(w, cs.body)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

const refusalBody = `{"error":"shard says no"}` + "\n"

// relayBody is what the router must pass on unread: valid JSON, but with
// whitespace no shard renders.
const relayBody = `{"from":5, "walks":[[{"v":5},{"v":9,"t":-3}]], "cost":{"steps":"1"}}` + "\n"

// TestRouterRelayTable drives the router's /walk with canned shard replies:
// the request goes to partition from mod P alone, and the shard's status,
// Content-Type, Retry-After and body come back as they stand, unless the
// shard is built for another partition count or no replica answers.
func TestRouterRelayTable(t *testing.T) {
	ok := func(partitions string) *cannedShard {
		h := map[string]string{"Content-Type": "application/json"}
		if partitions != "" {
			h[partitionsHeader] = partitions
		}
		return &cannedShard{status: http.StatusOK, header: h, body: relayBody}
	}
	refusal := func(status int, retryAfter string) *cannedShard {
		h := map[string]string{"Content-Type": "application/json", partitionsHeader: "2"}
		if retryAfter != "" {
			h["Retry-After"] = retryAfter
		}
		return &cannedShard{status: status, header: h, body: refusalBody}
	}
	for _, tc := range []struct {
		name      string
		reply     *cannedShard // partition 1's answer
		deadFirst bool         // partition 1's preferred replica refuses connections
		status    int
		body      string // "" when the router answers itself
		retry     string
	}{
		{"200 relayed byte for byte", ok("2"), false, http.StatusOK, relayBody, ""},
		{"400 propagated", refusal(http.StatusBadRequest, ""), false, http.StatusBadRequest, refusalBody, ""},
		{"500 propagated", refusal(http.StatusInternalServerError, ""), false, http.StatusInternalServerError, refusalBody, ""},
		{"503 keeps the shard's Retry-After", refusal(http.StatusServiceUnavailable, "7"), false, http.StatusServiceUnavailable, refusalBody, "7"},
		{"503 without Retry-After gets the router's", refusal(http.StatusServiceUnavailable, ""), false, http.StatusServiceUnavailable, refusalBody, "1"},
		{"transport failure fails over to the sibling", ok("2"), true, http.StatusOK, relayBody, ""},
		{"partition count mismatch", ok("3"), false, http.StatusBadGateway, "", ""},
		{"no partition count", ok(""), false, http.StatusBadGateway, "", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			other := ok("2")
			shard := tc.reply
			group1 := shard.start(t)
			if tc.deadFirst {
				group1 = deadURL(t) + "|" + group1
			}
			rt, err := NewRouter(RouterConfig{Shards: []string{other.start(t), group1}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rt.Close)
			const query = "from=5&count=3&length=9&seed=4"
			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/walk?"+query, nil))
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			if tc.body != "" && rec.Body.String() != tc.body {
				t.Fatalf("body\n got %q\nwant %q", rec.Body, tc.body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q", ct)
			}
			if ra := rec.Header().Get("Retry-After"); ra != tc.retry {
				t.Fatalf("Retry-After %q, want %q", ra, tc.retry)
			}
			if n := other.calls.Load(); n != 0 {
				t.Fatalf("partition 0 got %d requests for from=5 of 2 partitions", n)
			}
			if n := shard.calls.Load(); n != 1 {
				t.Fatalf("partition 1 got %d requests, want 1", n)
			}
			if q, _ := shard.rawQuery.Load().(string); q != query {
				t.Fatalf("shard saw query %q, want %q", q, query)
			}
		})
	}
}

// Each /walk lands on partition from mod P and on no other.
func TestRouterRoutesFromModP(t *testing.T) {
	shards := make([]*cannedShard, 3)
	var urls []string
	for i := range shards {
		shards[i] = &cannedShard{status: http.StatusOK, header: map[string]string{partitionsHeader: "3"}, body: relayBody}
		urls = append(urls, shards[i].start(t))
	}
	rt, err := NewRouter(RouterConfig{Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	for from := 0; from < 7; from++ {
		before := make([]int64, len(shards))
		for i, s := range shards {
			before[i] = s.calls.Load()
		}
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/walk?from="+strconv.Itoa(from), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("from=%d: status %d: %s", from, rec.Code, rec.Body)
		}
		for i, s := range shards {
			want := int64(0)
			if i == from%3 {
				want = 1
			}
			if got := s.calls.Load() - before[i]; got != want {
				t.Fatalf("from=%d: partition %d got %d requests, want %d", from, i, got, want)
			}
		}
	}
	for _, target := range []string{"/walk", "/walk?from=-1", "/walk?from=4294967296", "/walk?from=x"} {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", target, rec.Code)
		}
	}
}

// A shard reply longer than maxShardBody is the partition's answer, not the
// replica's fault: every sibling renders the same bytes. The router answers
// 502 without Retry-After, charges no breaker and tries no sibling.
func TestRouterOversizeShardReply(t *testing.T) {
	big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set(partitionsHeader, "1")
		w.Header().Set("Content-Length", strconv.Itoa(maxShardBody+1))
		chunk := strings.Repeat(" ", 64<<10)
		for left := maxShardBody + 1; left > 0; left -= len(chunk) {
			if _, err := io.WriteString(w, chunk[:min(left, len(chunk))]); err != nil {
				return // the router hung up
			}
		}
	}))
	t.Cleanup(big.Close)
	sibling := &cannedShard{status: http.StatusOK, header: map[string]string{partitionsHeader: "1"}, body: relayBody}
	rt, err := NewRouter(RouterConfig{
		Shards: []string{big.URL + "|" + sibling.start(t)},
		Config: Config{RetryAfter: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/walk?from=0&count=10000&length=10000", nil))
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %s", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		t.Fatalf("Retry-After %q on a reply no retry can fix", ra)
	}
	if n := sibling.calls.Load(); n != 0 {
		t.Fatalf("sibling called %d times for a reply it would render identically", n)
	}
	if h := rt.groups[0].Replicas[0].Health(); h.Errors != 0 || h.State != "healthy" {
		t.Fatalf("replica charged for the reply's size: %+v", h)
	}
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tea-graph/tea/bench/measure"
	"github.com/tea-graph/tea/bench/workload"
	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/temporal"
)

// Walk requests have the shape of a recommender or trainer asking for a few
// walks from one vertex: count walks of up to length steps.
const (
	walkCount  = 4
	walkLength = 80
	// decodeEvery is how often the client fully decodes and verifies a
	// response; the rest are read to the end and only scanned for steps.
	decodeEvery = 64
)

// walkClient is a closed-loop /walk load generator: each of its workers sends
// its next request only when the previous reply has been read to the end,
// which is how callers that wait for their walks behave.
type walkClient struct {
	http   *http.Client
	base   string
	check  *checker
	rec    *measure.Recorder   // non-nil in the traced run: a span per request
	tamper func([]byte) []byte // tests corrupt responses through this; nil otherwise
}

// newWalkClient returns a client that keeps up to conns keep-alive
// connections to the server at addr.
func newWalkClient(addr string, conns int, check *checker) *walkClient {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &walkClient{http: &http.Client{Transport: tr}, base: "http://" + addr, check: check}
}

func (c *walkClient) close() { c.http.CloseIdleConnections() }

// get fetches path and returns the body, which lives in buf.
func (c *walkClient) get(ctx context.Context, path string, buf *bytes.Buffer) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", path, resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes(), nil
}

// walkConfig is the same request asked of the engine directly.
func walkConfig(r workload.Request) core.WalkConfig {
	return core.WalkConfig{
		StartVertices:  []temporal.Vertex{r.From},
		WalksPerVertex: walkCount,
		Length:         walkLength,
		Seed:           r.Seed,
		KeepPaths:      true,
	}
}

func walkPath(r workload.Request) string {
	return fmt.Sprintf("/walk?from=%d&count=%d&length=%d&seed=%d", r.From, walkCount, walkLength, r.Seed)
}

// one sends request r and returns the steps its reply holds. verify selects
// the full decode.
func (c *walkClient) one(ctx context.Context, r workload.Request, verify bool, buf *bytes.Buffer) (int, error) {
	body, err := c.get(ctx, walkPath(r), buf)
	if err != nil {
		return 0, err
	}
	if c.tamper != nil {
		body = c.tamper(body)
	}
	if verify {
		if err := c.check.checkWalkBody(r.From, walkCount, body); err != nil {
			return 0, err
		}
	}
	return stepsOf(body)
}

// closedLoop performs calls 0..n-1 over workers goroutines, each starting its
// next call only when its previous one has returned. do performs call i on
// the given worker and returns the walk steps it produced; a call that fails
// is reported to check as a failed what and leaves no latency. The window's
// work is the steps of the calls that succeeded. Per-call latencies in
// milliseconds are appended to lat when it is non-nil.
func closedLoop(ctx context.Context, check *checker, what string, workers, n int, lat *[]float64, do func(worker, i int) (int, error)) window {
	var (
		cursor atomic.Int64
		steps  atomic.Int64
		failed atomic.Int64
		wg     sync.WaitGroup
		lats   = make([][]float64, workers)
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				got, err := do(w, i)
				took := time.Since(t0)
				if err != nil {
					failed.Add(1)
					check.failf("%s %d: %v", what, i, err)
					continue
				}
				lats[w] = append(lats[w], float64(took)/1e6)
				steps.Add(int64(got))
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	if lat != nil {
		for _, l := range lats {
			*lat = append(*lat, l...)
		}
	}
	return window{work: float64(steps.Load()), wall: wall, attempted: n, failed: int(failed.Load())}
}

// run replays reqs over workers connections and returns the window. base is
// the index of reqs[0] in the phase's whole request list, so that the same
// requests are fully decoded on every run.
func (c *walkClient) run(ctx context.Context, reqs []workload.Request, base, workers int, lat *[]float64) window {
	bufs := make([]bytes.Buffer, workers)
	return closedLoop(ctx, c.check, "walk request", workers, len(reqs), lat, func(w, i int) (int, error) {
		span := c.rec.Begin("client", -1, base+i)
		defer c.rec.End(span)
		n, err := c.one(ctx, reqs[i], (base+i)%decodeEvery == 0, &bufs[w])
		if err != nil {
			return 0, fmt.Errorf("from=%d seed=%d: %w", reqs[i].From, reqs[i].Seed, err)
		}
		return n, nil
	})
}

// listen opens a loopback listener and serves h on it; stop closes the
// server and waits for its goroutine.
func listen(h http.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	return ln.Addr().String(), func() {
		_ = srv.Close() // closes the listener and every connection
		<-done
	}, nil
}

// waitReady polls GET /readyz until it answers 200.
func (c *walkClient) waitReady(ctx context.Context) error {
	var buf bytes.Buffer
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := c.get(ctx, "/readyz", &buf)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("server never became ready: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

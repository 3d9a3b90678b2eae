package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tea-graph/tea/bench/workload"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/server"
	"github.com/tea-graph/tea/internal/stream"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/wal"
)

// The durability settings of the ingest workload, stated in the output: the
// WAL is fsynced every 100 ms in the background and no snapshot is ever
// taken, so a restart replays the whole log.
const (
	fsyncPolicy   = "interval 100ms, SnapshotEvery=0"
	fsyncInterval = 100 * time.Millisecond
)

const (
	batchEdges      = 1000 // edges per POST /edges at full and trace scale
	smokeBatchEdges = 50
	// The bulk phase loads the first quarter of the stream: enough history
	// for walks to run tens of steps, little enough that replaying its log
	// four times fits the run.
	bulkShare     = 4
	bulkWindows   = 20
	ingestReopens = 3
	// The mixed phase's open loop: one batch every 10 ms, in windows of 50.
	ingestInterval     = 10 * time.Millisecond
	mixedWindowBatches = 50
	quietWindow        = 125
)

// errExhausted ends a workload's rounds early: the phase has used up the
// generated stream.
var errExhausted = errors.New("phase has no input left")

// ingestRig is a durable stream graph behind server.NewDurable on loopback.
type ingestRig struct {
	dir  string
	d    *stream.DurableGraph
	addr string
	stop func() // closes the listener; nil while the rig is down
}

func durableConfig(e *env) stream.DurableConfig {
	return stream.DurableConfig{
		Graph: stream.Config{Weight: sampling.Exponential(e.stream.Lambda()), NumVertices: e.stream.V},
		WAL:   wal.Options{Policy: wal.SyncInterval, Interval: fsyncInterval},
	}
}

// up opens (and, when the directory holds a log, recovers) the durable graph
// and serves it: restart-to-ready.
func (rig *ingestRig) up(ctx context.Context, e *env) error {
	d, err := stream.OpenDurable(rig.dir, durableConfig(e))
	if err != nil {
		return err
	}
	srv := server.NewDurable(server.Config{})
	srv.SetDurable(d)
	addr, stop, err := listen(srv.Handler())
	if err != nil {
		_ = d.Close() // the listen error is the one to report
		return err
	}
	rig.d, rig.addr, rig.stop = d, addr, stop
	probe := newWalkClient(addr, 1, e.check)
	defer probe.close()
	if err := probe.waitReady(ctx); err != nil {
		rig.down(e)
		return err
	}
	return nil
}

// down closes the listener and the graph, which flushes the log, and lets
// the graph go before the next open replays its own. Down on a rig that is
// not up does nothing.
func (rig *ingestRig) down(e *env) {
	if rig.stop == nil {
		return
	}
	rig.stop()
	if err := rig.d.Close(); err != nil {
		e.check.failf("closing durable graph: %v", err)
	}
	rig.d, rig.stop = nil, nil
}

// restart is one timed set-up of the ingest workload: whatever is in the
// directory is recovered and served.
func (rig *ingestRig) restart(ctx context.Context, e *env) (func(), error) {
	return func() { rig.down(e) }, rig.up(ctx, e)
}

// appendBatchJSON appends the POST /edges body for edges to buf.
func appendBatchJSON(buf []byte, edges []temporal.Edge) []byte {
	buf = append(buf, `{"edges":[`...)
	for i, ed := range edges {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"src":`...)
		buf = strconv.AppendUint(buf, uint64(ed.Src), 10)
		buf = append(buf, `,"dst":`...)
		buf = strconv.AppendUint(buf, uint64(ed.Dst), 10)
		buf = append(buf, `,"t":`...)
		buf = strconv.AppendInt(buf, int64(ed.Time), 10)
		buf = append(buf, '}')
	}
	return append(buf, "]}"...)
}

// ingester posts consecutive batches of the generated stream. It encodes a
// window's bodies before the clock starts, so the timed region is the
// request, not the client's JSON encoding.
type ingester struct {
	e      *env
	http   *http.Client
	addr   *string // the rig's current address; it changes across reopens
	batch  int     // edges per batch
	next   int     // index of the next edge to send
	acked  int     // edges acknowledged so far
	bodies [][]byte
}

// batchSize is the edges one POST /edges carries in this run.
func (e *env) batchSize() int {
	if e.scale < traceScale {
		return smokeBatchEdges
	}
	return batchEdges
}

func newIngester(e *env, addr *string) *ingester {
	in := &ingester{e: e, addr: addr, batch: e.batchSize()}
	in.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	return in
}

// prepare encodes the next n batches and returns how many the stream still
// had; the cursor advances past them.
func (in *ingester) prepare(n int) int {
	edges := in.e.stream.Edges
	in.bodies = in.bodies[:0]
	for len(in.bodies) < n && in.next+in.batch <= len(edges) {
		in.bodies = append(in.bodies, appendBatchJSON(nil, edges[in.next:in.next+in.batch]))
		in.next += in.batch
	}
	return len(in.bodies)
}

// post sends one prepared body and checks the acknowledgement.
func (in *ingester) post(ctx context.Context, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+*in.addr+"/edges", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := in.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /edges: status %d: %.200s", resp.StatusCode, reply)
	}
	var ack struct {
		Appended int `json:"appended"`
		Edges    int `json:"edges"`
	}
	if err := json.Unmarshal(reply, &ack); err != nil {
		return fmt.Errorf("POST /edges reply: %w", err)
	}
	if ack.Appended != in.batch || ack.Edges != in.acked+in.batch {
		return fmt.Errorf("POST /edges acknowledged %d edges for a total of %d, want %d and %d", ack.Appended, ack.Edges, in.batch, in.acked+in.batch)
	}
	in.acked += in.batch
	return nil
}

// recent returns n walk requests that start where edges arrived between 22 %
// and 2 % of the stream ago. A walk moves forward in time by about half an
// activity window per step, so a start right at the frontier dead-ends at
// once and one 30 % back runs its full ~60 steps; this spread gives walks of
// ≈20 steps on average, some through vertices still receiving edges.
func (in *ingester) recent(n int, seed uint64) []workload.Request {
	total := len(in.e.stream.Edges)
	return in.e.stream.RecentRequests(n, max(0, in.acked-total*22/100), max(1, in.acked-total*2/100), seed)
}

// bulkPhase loads the first quarter of the stream closed-loop over one
// connection, in bulkWindows equal windows; ack receives per-batch latencies
// in microseconds.
func (in *ingester) bulkPhase(ack *[]float64) *phase {
	perWindow := max(1, len(in.e.stream.Edges)/bulkShare/in.batch/bulkWindows)
	return &phase{name: "bulk", run: func(ctx context.Context, i int) (window, error) {
		n := in.prepare(perWindow)
		w := window{attempted: n}
		span := in.e.rec.Begin("bulk", -1, i)
		t0 := time.Now()
		for _, body := range in.bodies {
			b0 := time.Now()
			if err := in.post(ctx, body); err != nil {
				w.failed++
				in.e.check.failf("bulk window %d: %v", i, err)
				continue
			}
			*ack = append(*ack, float64(time.Since(b0))/1e3)
			w.work += float64(in.batch)
		}
		w.wall = time.Since(t0)
		in.e.rec.End(span)
		return w, nil
	}}
}

// mixedStats pools what the mixed phase's open loop measured, in ms.
type mixedStats struct {
	ack      []float64 // acknowledgement time measured from the due time
	lateness []float64 // how late the generator sent, from the due time
	walkLat  []float64
}

// mixedPhase runs one window of the open loop — a batch due every
// ingestInterval whatever the server does, timed from when it was due —
// beside closed-loop walkers that start at recently active vertices. The
// window's work is the walkers' steps and its wall time the longer of the
// schedule and the last acknowledgement.
func (in *ingester) mixedPhase(c *walkClient, walkers, batches int, st *mixedStats) *phase {
	e := in.e
	calls := 0
	return &phase{name: "mixed", run: func(ctx context.Context, i int) (window, error) {
		if in.prepare(batches) < batches {
			return window{}, errExhausted
		}
		calls++
		reqs := in.recent(4096, windowSeed(e.seed, 1, calls))
		var (
			wg      sync.WaitGroup
			steps   atomic.Int64
			asked   atomic.Int64
			failed  atomic.Int64
			cursor  atomic.Int64
			stopped atomic.Bool
			lats    = make([][]float64, walkers)
		)
		start := time.Now()
		for w := 0; w < walkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var buf bytes.Buffer
				for !stopped.Load() && ctx.Err() == nil {
					j := int(cursor.Add(1)) - 1
					r := reqs[j%len(reqs)]
					asked.Add(1)
					t0 := time.Now()
					n, err := c.one(ctx, r, j%decodeEvery == 0, &buf)
					if err != nil {
						failed.Add(1)
						e.check.failf("mixed walk from %d: %v", r.From, err)
						continue
					}
					lats[w] = append(lats[w], float64(time.Since(t0))/1e6)
					steps.Add(int64(n))
				}
			}(w)
		}
		w := window{}
		for b, body := range in.bodies {
			due := start.Add(time.Duration(b) * ingestInterval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			late := time.Since(due)
			err := in.post(ctx, body)
			w.attempted++
			if err != nil {
				w.failed++
				e.check.failf("mixed window %d batch %d: %v", i, b, err)
				continue
			}
			if i >= 0 {
				st.lateness = append(st.lateness, float64(late)/1e6)
				st.ack = append(st.ack, float64(time.Since(due))/1e6)
			}
		}
		if rest := time.Until(start.Add(time.Duration(batches) * ingestInterval)); rest > 0 {
			time.Sleep(rest)
		}
		stopped.Store(true)
		wg.Wait()
		w.wall = time.Since(start)
		w.work = float64(steps.Load())
		w.attempted += int(asked.Load())
		w.failed += int(failed.Load())
		if i >= 0 {
			for _, l := range lats {
				st.walkLat = append(st.walkLat, l...)
			}
		}
		return w, nil
	}}
}

// quietPhase is one walker with no ingest running: the same requests' cost
// when the write path is idle.
func (in *ingester) quietPhase(c *walkClient, n int) *phase {
	e := in.e
	return &phase{name: "quiet-1", run: func(ctx context.Context, i int) (window, error) {
		reqs := in.recent(n, windowSeed(e.seed, 2, i))
		return c.run(ctx, reqs, max(i, 0)*n, 1, nil), nil
	}}
}

// runIngestWalk is the durable ingest-beside-walks workload.
func runIngestWalk(ctx context.Context, e *env, rep *Report) error {
	_, err := ingestWalk(ctx, e, rep)
	return err
}

// ingestOutcome is what the traced run needs from the workload beyond its
// metrics.
type ingestOutcome struct {
	bulkAckP50us   float64 // closed-loop POST /edges, per batch
	recoveredEdges int     // edges the timed reopen replayed
}

func ingestWalk(ctx context.Context, e *env, rep *Report) (*ingestOutcome, error) {
	rig := &ingestRig{dir: filepath.Join(e.dir, "ingest-wal")}
	if err := rig.up(ctx, e); err != nil {
		return nil, err
	}
	defer rig.down(e)
	in := newIngester(e, &rig.addr)

	var bulkAck []float64
	bulk := in.bulkPhase(&bulkAck)
	bulkStart := time.Now()
	for i := 0; i < bulkWindows; i++ {
		w, err := bulk.run(ctx, i)
		if err != nil {
			return nil, err
		}
		bulk.record(w)
	}
	bulkTook := time.Since(bulkStart)
	st := rig.d.Stats()
	bytesPerEdge := float64(st.MemoryBytes) / float64(st.Edges)

	// Restart-to-ready from the log the bulk phase wrote.
	rig.down(e)
	setup, _, err := medianSetup(e.setups(ingestReopens), func() (func(), error) { return rig.restart(ctx, e) })
	if err != nil {
		return nil, err
	}
	out := &ingestOutcome{bulkAckP50us: p50(bulkAck), recoveredEdges: in.acked}
	if got := rig.d.NumEdges(); got != in.acked {
		e.check.failf("after reopen the graph holds %d edges but %d were acknowledged", got, in.acked)
	}
	e.check.ran("reopen_edge_count", 1)

	client := newWalkClient(rig.addr, e.conc, e.check)
	client.tamper = e.tamper
	defer client.close()
	var ms mixedStats
	mixed := in.mixedPhase(client, max(1, e.conc-1), e.scaled(mixedWindowBatches), &ms)
	quiet := in.quietPhase(client, e.scaled(quietWindow))
	e.budget = max(0, e.budget-bulkTook)
	if err := interleave(ctx, e, mixed, quiet); err != nil {
		return nil, err
	}

	if got := rig.d.NumEdges(); got != in.acked {
		e.check.failf("at the end the graph holds %d edges but %d were acknowledged", got, in.acked)
	}
	if late := p50(ms.lateness); late > float64(ingestInterval)/1e6 {
		e.check.failf("the open loop ran %.1f ms late at the median: %d batches/s is not sustained", late, time.Second/ingestInterval)
	}

	for _, p := range []*phase{bulk, mixed, quiet} {
		rep.phase(p)
	}
	rep.put("setup_s", setup, nil)
	rep.series("steps_per_s", mixed.rates, mixed)
	rep.series("steps_per_s_1t", quiet.rates, quiet)
	e.latency(rep, ms.walkLat, mixed)
	rep.series("ingest_edges_per_s", bulk.rates, bulk)
	rep.value("ingest_ack_p50_ms", p50(ms.ack), mixed)
	rep.value("ingest_ack_p99_ms", p99(ms.ack), mixed)
	rep.value("ingest.lateness_p99_ms", p99(ms.lateness), mixed)
	rep.value("index_bytes_per_edge", bytesPerEdge, nil)
	return out, nil
}

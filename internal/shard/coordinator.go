package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/reqcost"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/stats"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/trace"
	"github.com/tea-graph/tea/internal/xrand"
)

// StepCaller delivers a batched step request to the shard owning a group of
// walkers. The TCP implementation is Peers (wire clients); tests and the
// bench harness use InProcess (direct method calls) — the coordinator logic
// is identical either way, which is what lets the golden suite prove the
// loopback deployment equal to the in-process one.
type StepCaller interface {
	Step(ctx context.Context, shardID int, req *wire.StepRequest) (*wire.StepResponse, error)
}

// WalkRequest describes one logical walk request. Walk ids are positions in
// the source-major walk list, and any node can coordinate the whole list.
// Every walk starts at temporal.MinTime, so each out-edge of its source is a
// candidate for the first step.
type WalkRequest struct {
	// Sources is the global source list; nil means every vertex.
	Sources []temporal.Vertex
	// WalksPerVertex is R; default 1. Length is L; default 80.
	WalksPerVertex int
	Length         int
	// Seed drives every walker's stream, exactly as in core: walk wi uses
	// root.Split(wi).
	Seed uint64
	// KeepPaths stores the sampled paths in the result.
	KeepPaths bool
	// RequestID is propagated on every migration frame for trace correlation.
	RequestID string
	// CollectSpans asks for compact span summaries in the result — the
	// coordinator's own run/hop timings plus whatever each peer shipped back
	// on its step responses — so an upstream router can assemble one
	// cross-process trace. Independent of any tracer configuration.
	CollectSpans bool
}

func (r *WalkRequest) normalize(numV int) {
	if r.WalksPerVertex <= 0 {
		r.WalksPerVertex = 1
	}
	if r.Length <= 0 {
		r.Length = 80
	}
	if r.Sources == nil {
		r.Sources = make([]temporal.Vertex, numV)
		for i := range r.Sources {
			r.Sources[i] = temporal.Vertex(i)
		}
	}
}

// WalkResult is a coordinated walk request: every walk, each walked to
// completion on the shards owning its vertices.
type WalkResult struct {
	Cost     stats.Cost
	Duration time.Duration
	// Rounds is the number of scatter-gather rounds executed.
	Rounds int
	// Migrations counts walker-steps (attempts: every hop, plus the attempt
	// that found a dead end) served by a peer; Frames counts the batched
	// messages that carried the walkers there (one per peer per round) and
	// BytesSent their on-wire request bytes.
	Migrations int64
	Frames     int64
	BytesSent  int64
	// LocalSteps counts walker-steps served by this shard's own partition.
	LocalSteps int64
	// Paths holds walk i at index i when KeepPaths is set.
	Paths []core.Path
	// Lengths histograms realized walk lengths, as in core.Result.
	Lengths *stats.Histogram
	// Spans carries the compact cross-process span summaries when the
	// request set CollectSpans.
	Spans []wire.SpanSummary
}

// RunWalks coordinates every walk of req, whatever shard owns its source,
// scatter-gather style: each round the resident frontier is grouped by the
// owner of each walker's current vertex, remote groups cross to their owner
// as one wire frame per peer, the local group advances on this node's
// partition, and results are folded back in deterministic walk order. Each
// owner advances a walker through every consecutive step it owns, so a round
// moves a walker up to its next change of owner.
//
// Determinism: walker wi's randomness is root.Split(wi) carried in the
// migration frames and consumed sequentially wherever the walker happens to
// be resident — so paths are byte-identical to core.Engine.RunContext with
// the same seed, for any shard count including 1 and any coordinating node.
//
// A peer failure aborts the run with the *wire.PeerError (fail-fast: the
// caller maps it to 503 + Retry-After; no partial silent results).
// Cancellation classifies every in-flight walk as cancelled, like core.
func (n *Node) RunWalks(ctx context.Context, caller StepCaller, req WalkRequest) (*WalkResult, error) {
	req.normalize(n.numV)
	for _, s := range req.Sources {
		if int(s) >= n.numV {
			return nil, fmt.Errorf("shard: start vertex %d outside graph with %d vertices", s, n.numV)
		}
	}
	ctx, runSpan := trace.Start(ctx, "shard.run")
	if runSpan != nil {
		runSpan.SetInt("shard", int64(n.id))
		defer runSpan.End()
	}
	rc := reqcost.From(ctx)
	var flags uint32
	if req.CollectSpans {
		flags |= wire.FlagCollectSpans
	}

	start := time.Now()
	res := &WalkResult{Lengths: stats.NewHistogram(req.Length + 1)}
	root := xrand.New(req.Seed)

	totalWalks := len(req.Sources) * req.WalksPerVertex
	frontier := make([]wire.Walker, totalWalks)
	if req.KeepPaths {
		res.Paths = make([]core.Path, totalWalks)
	}
	for wi := range frontier {
		src := req.Sources[wi/req.WalksPerVertex]
		w := &frontier[wi]
		w.ID = uint64(wi)
		w.Cur = src
		w.Arrival = temporal.MinTime
		root.SplitTo(uint64(wi), &w.RNG)
		if req.KeepPaths {
			res.Paths[wi] = core.NewPath(src, req.Length)
		}
	}
	res.Cost.WalksStarted = int64(totalWalks)
	if runSpan != nil {
		runSpan.SetInt("walks", int64(len(frontier)))
	}

	mRounds := n.reg.Counter("tea_shard_rounds_total")
	mMigr := n.reg.Counter("tea_shard_migrations_total")
	mFrames := n.reg.Counter("tea_shard_frames_total")
	mLocal := n.reg.Counter("tea_shard_local_steps_total")

	parts := n.part.Partitions()
	groups := make([][]int, parts) // frontier indices per owner, reused
	served := make([]int64, parts) // walker-steps each peer served this round
	// Per frontier entry: its result and its hops (into a peer's response or
	// the local hop buffer). The local group's buffers are reused too.
	var (
		results   []wire.StepResult
		hopsOf    [][]wire.Hop
		local     []wire.Walker
		localRes  []wire.StepResult
		localHops []wire.Hop
	)
	var runErr error
	var spanMu sync.Mutex // guards res.Spans across hop goroutines

	for len(frontier) > 0 && runErr == nil {
		if ctx.Err() != nil {
			for i := range frontier {
				res.Lengths.Observe(int(frontier[i].Steps))
				res.Cost.WalksCancelled++
			}
			frontier = frontier[:0]
			break
		}
		res.Rounds++
		mRounds.Inc()

		for p := range groups {
			groups[p] = groups[p][:0]
		}
		for i := range frontier {
			owner := n.part.Owner(frontier[i].Cur)
			groups[owner] = append(groups[owner], i)
		}

		// One result per frontier entry, filled by owner group.
		if cap(results) < len(frontier) {
			results = make([]wire.StepResult, len(frontier))
			hopsOf = make([][]wire.Hop, len(frontier))
		}
		results, hopsOf = results[:len(frontier)], hopsOf[:len(frontier)]

		// Remote hops of one round share a cancellable context: the first peer
		// failure aborts the round, so sibling step-RPCs unwind immediately
		// instead of leaking goroutines and conns until their own deadlines.
		roundCtx, cancelRound := context.WithCancel(ctx)
		var (
			wg     sync.WaitGroup
			failMu sync.Mutex
		)
		for p := 0; p < parts; p++ {
			idxs := groups[p]
			if len(idxs) == 0 || p == n.id {
				continue
			}
			sreq := &wire.StepRequest{
				RequestID:   req.RequestID,
				FromShard:   uint32(n.id),
				Partitions:  uint32(parts),
				NumVertices: uint32(n.numV),
				Flags:       flags,
				MaxSteps:    uint32(req.Length),
				Walkers:     make([]wire.Walker, len(idxs)),
			}
			for j, fi := range idxs {
				sreq.Walkers[j] = frontier[fi]
			}
			frameBytes := int64(wire.FrameSize(wire.StepRequestSize(sreq)))
			res.Frames++
			res.BytesSent += frameBytes
			mFrames.Inc()
			wg.Add(1)
			go func(p int, idxs []int, sreq *wire.StepRequest) {
				defer wg.Done()
				hopCtx, hop := trace.Start(roundCtx, "shard.hop")
				if hop != nil {
					hop.SetInt("peer", int64(p))
					hop.SetInt("walkers", int64(len(idxs)))
					defer hop.End()
				}
				hopStart := time.Now()
				sresp, err := caller.Step(hopCtx, p, sreq)
				if err != nil {
					if hop != nil {
						hop.SetError(err)
					}
					failMu.Lock()
					if runErr == nil {
						runErr = err
					}
					failMu.Unlock()
					cancelRound()
					return
				}
				if err := splitHops(sresp.Results, sresp.Hops, idxs, results, hopsOf); err != nil {
					failMu.Lock()
					if runErr == nil {
						runErr = &wire.PeerError{Addr: fmt.Sprintf("shard-%d", p), Err: err}
					}
					failMu.Unlock()
					cancelRound()
					return
				}
				served[p] = attempts(sresp.Results)
				mMigr.Add(served[p])
				rc.AddMigration(served[p], frameBytes)
				if req.CollectSpans {
					hopSum := wire.SpanSummary{
						Name:        "shard.hop",
						Shard:       int32(n.id),
						StartMicros: hopStart.UnixMicro(),
						DurMicros:   time.Since(hopStart).Microseconds(),
						Walkers:     int32(len(idxs)),
					}
					spanMu.Lock()
					res.Spans = append(res.Spans, hopSum)
					res.Spans = append(res.Spans, sresp.Spans...)
					spanMu.Unlock()
				}
			}(p, idxs, sreq)
		}
		// Local group advances while the remote frames are in flight.
		if idxs := groups[n.id]; len(idxs) > 0 {
			local = local[:0]
			for _, fi := range idxs {
				local = append(local, frontier[fi])
			}
			if cap(localRes) < len(idxs) {
				localRes = make([]wire.StepResult, len(idxs))
			}
			localRes = localRes[:len(idxs)]
			localHops = n.advance(ctx, local, localRes, localHops[:0], uint32(req.Length))
			_ = splitHops(localRes, localHops, idxs, results, hopsOf) // advance's counts match by construction
			steps := attempts(localRes)
			res.LocalSteps += steps
			mLocal.Add(steps)
		}
		wg.Wait()
		cancelRound()
		for p := range served {
			res.Migrations += served[p]
			served[p] = 0
		}
		if runErr != nil {
			break
		}

		// Fold the outcomes back in frontier (ascending walk id) order: each
		// walker's hops, then its stream state and stop status.
		next := frontier[:0]
		for i := range frontier {
			w := frontier[i]
			r := &results[i]
			res.Cost.EdgesEvaluated += r.Evaluated
			res.Cost.Trials += int64(r.Trials)
			res.Cost.Rejected += int64(r.Rejected)
			res.Cost.Steps += int64(r.Hops)
			w.Steps += r.Hops
			for _, h := range hopsOf[i] {
				w.Prev, w.Cur, w.Arrival = w.Cur, h.Dst, h.At
				if req.KeepPaths {
					p := &res.Paths[w.ID]
					p.Vertices = append(p.Vertices, h.Dst)
					p.Times = append(p.Times, h.At)
				}
			}
			w.RNG = r.RNG
			if r.Status == wire.StatusDeadEnd {
				res.Lengths.Observe(int(w.Steps))
				res.Cost.WalksDeadEnded++
				continue
			}
			if int(w.Steps) >= req.Length {
				res.Lengths.Observe(int(w.Steps))
				res.Cost.WalksCompleted++
				continue
			}
			next = append(next, w)
		}
		frontier = next
	}

	if runErr != nil {
		// Fail-fast: in-flight walks are cancelled by the abort, not by the
		// graph; account them so WalksStarted == WalksFinished holds.
		for i := range frontier {
			res.Lengths.Observe(int(frontier[i].Steps))
			res.Cost.WalksCancelled++
		}
		res.Duration = time.Since(start)
		if runSpan != nil {
			runSpan.SetError(runErr)
		}
		n.appendRunSummary(res, &req, start)
		return res, runErr
	}
	res.Duration = time.Since(start)
	if runSpan != nil {
		runSpan.SetInt("rounds", int64(res.Rounds))
		runSpan.SetInt("migrations", res.Migrations)
		runSpan.SetInt("frames", res.Frames)
	}
	n.appendRunSummary(res, &req, start)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// appendRunSummary prepends the whole-run span summary when the request
// collects spans — the coordinator-side anchor the router nests hops under.
func (n *Node) appendRunSummary(res *WalkResult, req *WalkRequest, start time.Time) {
	if !req.CollectSpans {
		return
	}
	run := wire.SpanSummary{
		Name:        "shard.run",
		Shard:       int32(n.id),
		StartMicros: start.UnixMicro(),
		DurMicros:   res.Duration.Microseconds(),
		Walkers:     int32(res.Cost.WalksStarted),
	}
	res.Spans = append([]wire.SpanSummary{run}, res.Spans...)
}

// splitHops files one group's outcomes to the walkers at frontier indices
// idxs: each result into results and its slice of hops into hopsOf. It
// refuses outcomes whose result or hop count does not match the group.
func splitHops(res []wire.StepResult, hops []wire.Hop, idxs []int, results []wire.StepResult, hopsOf [][]wire.Hop) error {
	if len(res) != len(idxs) {
		return fmt.Errorf("answered %d results for %d walkers", len(res), len(idxs))
	}
	var total int
	for i := range res {
		total += int(res[i].Hops)
	}
	if total != len(hops) {
		return fmt.Errorf("answered %d hop records for %d hops", len(hops), total)
	}
	off := 0
	for j, fi := range idxs {
		results[fi] = res[j]
		h := int(res[j].Hops)
		hopsOf[fi] = hops[off : off+h]
		off += h
	}
	return nil
}

// InProcess is a StepCaller over co-resident Nodes: scatter-gather without
// sockets. The golden tests run the same workload through InProcess and
// through wire clients over loopback TCP and require identical paths.
type InProcess struct {
	Nodes []*Node
}

// Step implements StepCaller.
func (p *InProcess) Step(ctx context.Context, shardID int, req *wire.StepRequest) (*wire.StepResponse, error) {
	if shardID < 0 || shardID >= len(p.Nodes) || p.Nodes[shardID] == nil {
		return nil, fmt.Errorf("shard: no in-process node for shard %d", shardID)
	}
	return p.Nodes[shardID].HandleStep(ctx, req)
}

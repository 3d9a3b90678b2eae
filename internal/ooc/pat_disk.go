package ooc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tea-graph/tea/internal/reqcost"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/trace"
	"github.com/tea-graph/tea/internal/xrand"
)

// DefaultTrunkSize is the out-of-core trunk size: §3.2 picks it "as small as
// possible" subject to the trunk prefix sums fitting in memory; the paper
// uses 10 on twitter under a 16 GB budget.
const DefaultTrunkSize = 10

// slotBytes is the on-disk footprint of one edge slot in a trunk record:
// weight (8) + alias probability (8) + alias target (4).
const slotBytes = 8 + 8 + 4

// RetryPolicy bounds the retry-with-backoff loop wrapped around transient
// trunk reads: up to MaxRetries reissues after the first attempt, sleeping
// BaseDelay, 2·BaseDelay, 4·BaseDelay, ... between them.
type RetryPolicy struct {
	MaxRetries int
	BaseDelay  time.Duration
}

// DefaultRetryPolicy absorbs sporadic device glitches (at a 1% transient
// fault rate, five retries drive the per-read failure probability to 1e-12)
// while a genuinely dead device still fails in under ~3ms.
var DefaultRetryPolicy = RetryPolicy{MaxRetries: 5, BaseDelay: 100 * time.Microsecond}

// DiskPAT is the out-of-core TEA sampler: trunk-granularity prefix sums stay
// in memory (|E|/trunkSize floats), while per-trunk payloads — edge weights
// and the trunk's alias table — are fetched from the store on demand.
// Sampling reads exactly one trunk record per step: O(trunkSize) I/O versus
// the O(D) of a full-neighbor-load engine (§5.6).
type DiskPAT struct {
	readPath  // base is the store the PAT was built onto
	g         *temporal.Graph
	trunkSize int

	trunkOff []int64   // per vertex: first trunk index
	trunkCum []float64 // per vertex: trunk-granularity prefix sums (len trunks+1 per vertex)
	cumOff   []int64
	diskBase int64 // store offset of trunk record 0

	retry   RetryPolicy
	retries atomic.Int64 // reads reissued after transient faults

	errMu    sync.Mutex
	firstErr error // first unrecoverable read failure (sticky)
}

// BuildDiskPAT lays the weighted graph's PAT onto the store. trunkSize <= 0
// selects DefaultTrunkSize.
func BuildDiskPAT(w *sampling.GraphWeights, store BlockStore, trunkSize int) (*DiskPAT, error) {
	if trunkSize <= 0 {
		trunkSize = DefaultTrunkSize
	}
	g := w.Graph()
	numV := g.NumVertices()
	d := &DiskPAT{
		readPath:  readPath{base: store},
		g:         g,
		trunkSize: trunkSize,
		retry:     DefaultRetryPolicy,
		trunkOff:  make([]int64, numV+1),
		cumOff:    make([]int64, numV+1),
	}
	for u := 0; u < numV; u++ {
		trunks := numTrunks(g.Degree(temporal.Vertex(u)), trunkSize)
		d.trunkOff[u+1] = d.trunkOff[u] + int64(trunks)
		d.cumOff[u+1] = d.cumOff[u] + int64(trunks) + 1
	}
	d.trunkCum = make([]float64, d.cumOff[numV])

	// Serialize trunk records vertex by vertex. Records are fixed-size
	// (trunkSize slots, zero-padded), so any trunk's offset is computable.
	record := make([]byte, trunkSize*slotBytes)
	prob := make([]float64, trunkSize)
	alias := make([]int32, trunkSize)
	scratch := make([]int32, 2*trunkSize)
	base, err := store.Append(nil)
	if err != nil {
		return nil, err
	}
	d.diskBase = base
	for u := 0; u < numV; u++ {
		uw := w.Vertex(temporal.Vertex(u))
		cum := d.trunkCum[d.cumOff[u]:d.cumOff[u+1]]
		sum := 0.0
		for t := 0; t*trunkSize < len(uw); t++ {
			lo := t * trunkSize
			hi := lo + trunkSize
			if hi > len(uw) {
				hi = len(uw)
			}
			n := hi - lo
			sampling.FillAlias(uw[lo:hi], prob[:n], alias[:n], scratch[:2*n])
			for i := 0; i < trunkSize; i++ {
				var wv, pv float64
				var av int32
				if i < n {
					wv, pv, av = uw[lo+i], prob[i], alias[i]
				}
				o := i * slotBytes
				binary.LittleEndian.PutUint64(record[o:], math.Float64bits(wv))
				binary.LittleEndian.PutUint64(record[o+8:], math.Float64bits(pv))
				binary.LittleEndian.PutUint32(record[o+16:], uint32(av))
			}
			off := d.diskBase + (d.trunkOff[u]+int64(t))*int64(trunkSize*slotBytes)
			if err := store.WriteAt(record, off); err != nil {
				return nil, err
			}
			for _, x := range uw[lo:hi] {
				sum += x
			}
			cum[t+1] = sum
		}
	}
	return d, nil
}

func numTrunks(degree, trunkSize int) int {
	if degree == 0 {
		return 0
	}
	return (degree + trunkSize - 1) / trunkSize
}

// Name implements the engine's Sampler contract.
func (d *DiskPAT) Name() string { return "TEA-OOC" }

// trunkRecord fetches trunk t of vertex u from the store, retrying transient
// failures per the retry policy. Unrecoverable failures are wrapped with the
// vertex/trunk coordinates and recorded as the sampler's sticky first error,
// because the Sampler contract can only signal "no candidate" — Err() is how
// the engine distinguishes a dead-ended walk from a dead device.
//
// When ctx carries an active trace span (the SampleCtx path of a traced
// run), the fetch is wrapped in an "ooc.block_fetch" span annotated with the
// block coordinates, the cache source (hit/miss/coalesced) when a
// block cache is enabled, and the retry count; each retry additionally drops
// a KindRetry event into the flight recorder. Untraced runs pass
// context.Background() and skip all of it on the nil-span fast path.
//
// Cancellation is not a device fault: a fetch requested after ctx is
// cancelled fails immediately, the retry loop stops backing off the moment
// ctx dies, and neither case is recorded as the sampler's sticky first
// error — the next run on this sampler starts clean.
func (d *DiskPAT) trunkRecord(ctx context.Context, u temporal.Vertex, t int, buf []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sp := trace.StartSpan(ctx, "ooc.block_fetch")
	rc := reqcost.From(ctx)
	off := d.diskBase + (d.trunkOff[u]+int64(t))*int64(d.trunkSize*slotBytes)
	retries := 0
	src, err := d.read(rc, buf, off)
	for attempt := 0; err != nil && errors.Is(err, ErrTransient) && ctx.Err() == nil && attempt < d.retry.MaxRetries; attempt++ {
		d.retries.Add(1)
		mRetries.Inc()
		rc.ReadRetry()
		retries++
		if sp != nil {
			trace.EventCtx(ctx, trace.KindRetry, "ooc.trunk_retry",
				trace.Int("vertex", int64(u)), trace.Int("trunk", int64(t)), trace.Int("attempt", int64(attempt+1)))
		}
		if d.retry.BaseDelay > 0 {
			time.Sleep(d.retry.BaseDelay << attempt)
		}
		src, err = d.read(rc, buf, off)
	}
	if err != nil {
		err = fmt.Errorf("ooc: trunk read for vertex %d trunk %d failed: %w", u, t, err)
		if ctx.Err() == nil {
			d.errMu.Lock()
			if d.firstErr == nil {
				d.firstErr = err
			}
			d.errMu.Unlock()
		}
	}
	if sp != nil {
		sp.SetInt("vertex", int64(u))
		sp.SetInt("trunk", int64(t))
		sp.SetInt("bytes", int64(len(buf)))
		if src != "" {
			sp.SetStr("source", src)
		}
		if retries > 0 {
			sp.SetInt("retries", int64(retries))
		}
		sp.SetError(err)
		sp.End()
	}
	return err
}

// SetRetryPolicy replaces the transient-read retry policy. Not safe to call
// concurrently with Sample.
func (d *DiskPAT) SetRetryPolicy(p RetryPolicy) { d.retry = p }

// Retries reports how many reads were reissued after transient faults.
func (d *DiskPAT) Retries() int64 { return d.retries.Load() }

// Err returns the first unrecoverable read failure, or nil.
func (d *DiskPAT) Err() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.firstErr
}

// Sample implements the Sampler contract following §4.1's out-of-core
// protocol: the trunk of interest is chosen purely from the in-memory
// trunk-granularity prefix sums, then exactly one trunk record is fetched
// from disk — its alias table when the trunk is complete, its weight
// (prefix-sum) data when the candidate set covers it only partially. The
// partially covered trunk is proposed with its full weight and thinned by
// rejection against the candidate portion, which keeps the draw unbiased
// with one I/O per accepted proposal.
func (d *DiskPAT) Sample(u temporal.Vertex, k int, r *xrand.Rand) (int, int64, bool) {
	return d.sample(context.Background(), u, k, r)
}

// SampleCtx implements the engines' context-threaded sampling contract: the
// same draw as Sample, but trunk fetches open block-fetch trace spans under
// the caller's span when the run is traced.
func (d *DiskPAT) SampleCtx(ctx context.Context, u temporal.Vertex, k int, r *xrand.Rand) (int, int64, bool) {
	return d.sample(ctx, u, k, r)
}

// SampleBatch implements the engine's BatchSampler contract: each entry draws
// exactly as Sample would (same edge, same evaluated count, same random
// stream consumption), but trunk fetches repeat-hitting the same (vertex,
// trunk) record within the batch are served from a one-entry memo — see
// trunkMemo. Concurrent calls on disjoint frontier chunks are safe; each
// call owns its memo.
func (d *DiskPAT) SampleBatch(ctx context.Context, us []temporal.Vertex, ks []int32, rs []*xrand.Rand, edges []int32, evals []int64, oks []bool) {
	var memo trunkMemo
	for i, u := range us {
		e, ev, ok := d.sampleWith(ctx, u, int(ks[i]), rs[i], &memo)
		edges[i], evals[i], oks[i] = int32(e), ev, ok
	}
}

// WantsGroupedFrontier tells the batched kernel to sort each step's frontier
// by vertex: same-vertex walkers then arrive adjacently and their trunk
// fetches collapse into the memo (and below it, the block cache).
func (d *DiskPAT) WantsGroupedFrontier() bool { return true }

func (d *DiskPAT) sample(ctx context.Context, u temporal.Vertex, k int, r *xrand.Rand) (int, int64, bool) {
	return d.sampleWith(ctx, u, k, r, nil)
}

// trunkMemo is a one-entry read-through memo used by the batched path:
// within one SampleBatch call, consecutive draws that land on the same
// (vertex, trunk) record reuse the bytes already fetched instead of
// re-reading the store. With the frontier sorted by vertex (the kernel sorts
// it because WantsGroupedFrontier reports true) walkers parked on the same
// hub coalesce their trunk fetches deliberately — one device read serves the
// run of same-vertex walkers — rather than relying on blockcache singleflight
// timing luck. The memo affects I/O only: every draw consumes the walker's
// random stream and counts evaluated slots exactly as the scalar path.
type trunkMemo struct {
	u     temporal.Vertex
	t     int
	valid bool
	buf   []byte
}

func (d *DiskPAT) sampleWith(ctx context.Context, u temporal.Vertex, k int, r *xrand.Rand, memo *trunkMemo) (int, int64, bool) {
	if k <= 0 {
		return 0, 0, false
	}
	deg := d.g.Degree(u)
	if deg == 0 {
		return 0, 0, false
	}
	if k > deg {
		k = deg
	}
	ts := d.trunkSize
	cum := d.trunkCum[d.cumOff[u]:d.cumOff[u+1]]
	full := k / ts
	rem := k - full*ts
	if k == deg && rem != 0 {
		full, rem = numTrunks(deg, ts), 0
	}
	// Trunks overlapping the candidate set; the last may be partial.
	overlap := full
	if rem > 0 {
		overlap++
	}
	if overlap == 0 || !(cum[overlap] > 0) {
		return 0, 0, false
	}

	var buf []byte
	if memo != nil {
		if cap(memo.buf) < ts*slotBytes {
			memo.buf = make([]byte, ts*slotBytes)
		}
		buf = memo.buf[:ts*slotBytes]
	} else {
		buf = make([]byte, ts*slotBytes)
	}
	fetch := func(t int) error {
		if memo != nil {
			if memo.valid && memo.u == u && memo.t == t {
				mBatchCoalesced.Inc()
				return nil
			}
			memo.valid = false
		}
		if err := d.trunkRecord(ctx, u, t, buf); err != nil {
			return err
		}
		if memo != nil {
			memo.u, memo.t, memo.valid = u, t, true
		}
		return nil
	}
	var evaluated int64
	const proposalCap = 128
	for trial := 0; trial < proposalCap; trial++ {
		x := r.Range(cum[overlap])
		lo, hi := 0, overlap-1
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			evaluated++
			if cum[mid+1] > x {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if err := fetch(lo); err != nil {
			return 0, evaluated, false
		}
		if lo < full {
			// Complete trunk: O(1) alias draw from the fetched record.
			n := ts
			if (lo+1)*ts > deg {
				n = deg - lo*ts
			}
			i := r.IntN(n)
			o := i * slotBytes
			p := math.Float64frombits(binary.LittleEndian.Uint64(buf[o+8:]))
			a := int32(binary.LittleEndian.Uint32(buf[o+16:]))
			evaluated += 2
			if p < 0 {
				return 0, evaluated, false
			}
			if p >= 1 || r.Float64() < p {
				return lo*ts + i, evaluated, true
			}
			return lo*ts + int(a), evaluated, true
		}
		// Partial trunk proposed with its full weight: accept with the
		// candidate fraction, then ITS within the candidate portion.
		trunkW := cum[lo+1] - cum[lo]
		partialW := 0.0
		for i := 0; i < rem; i++ {
			partialW += math.Float64frombits(binary.LittleEndian.Uint64(buf[i*slotBytes:]))
		}
		evaluated += int64(rem)
		if !(partialW > 0) || r.Range(trunkW) >= partialW {
			continue // rejected: excluded (too-old) mass was hit
		}
		y := r.Range(partialW)
		acc := 0.0
		for i := 0; i < rem; i++ {
			acc += math.Float64frombits(binary.LittleEndian.Uint64(buf[i*slotBytes:]))
			evaluated++
			if y < acc {
				return full*ts + i, evaluated, true
			}
		}
		return full*ts + rem - 1, evaluated, true
	}
	// Proposal cap reached: the partial trunk's excluded (too-old) mass
	// dominates its trunk. Fall back to the exact two-read path — fetch the
	// partial weights, compute the true candidate total, and sample without
	// rejection.
	if err := fetch(full); err != nil {
		return 0, evaluated, false
	}
	partialW := 0.0
	for i := 0; i < rem; i++ {
		partialW += math.Float64frombits(binary.LittleEndian.Uint64(buf[i*slotBytes:]))
	}
	evaluated += int64(rem)
	total := cum[full] + partialW
	if !(total > 0) {
		return 0, evaluated, false
	}
	x := r.Range(total)
	if x >= cum[full] {
		y := x - cum[full]
		acc := 0.0
		for i := 0; i < rem; i++ {
			acc += math.Float64frombits(binary.LittleEndian.Uint64(buf[i*slotBytes:]))
			evaluated++
			if y < acc {
				return full*ts + i, evaluated, true
			}
		}
		return full*ts + rem - 1, evaluated, true
	}
	lo, hi := 0, full-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cum[mid+1] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if err := fetch(lo); err != nil {
		return 0, evaluated, false
	}
	n := ts
	if (lo+1)*ts > deg {
		n = deg - lo*ts
	}
	i := r.IntN(n)
	o := i * slotBytes
	p := math.Float64frombits(binary.LittleEndian.Uint64(buf[o+8:]))
	a := int32(binary.LittleEndian.Uint32(buf[o+16:]))
	if p < 0 {
		return 0, evaluated, false
	}
	if p >= 1 || r.Float64() < p {
		return lo*ts + i, evaluated, true
	}
	return lo*ts + int(a), evaluated, true
}

// MemoryBytes implements the Sampler contract: only the trunk prefix sums
// and offsets are resident, |E|/trunkSize + O(V) — the point of the mode.
func (d *DiskPAT) MemoryBytes() int64 {
	return int64(len(d.trunkCum))*8 + int64(len(d.trunkOff)+len(d.cumOff))*8
}

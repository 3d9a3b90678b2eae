package stream

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tea-graph/tea/internal/edgeio"
	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/par"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/trace"
	"github.com/tea-graph/tea/internal/vfs"
	"github.com/tea-graph/tea/internal/wal"
)

// DurableGraph wraps a streaming Graph with a write-ahead log so ingest
// survives crashes: every mutation (AppendBatch, DeleteEdges, ExpireBefore)
// is framed into the WAL — and, under the always policy, fsynced — before it
// is applied in memory. Mutations from concurrent callers are group-
// committed: a single committer goroutine drains the submission queue,
// writes the whole group with one WAL append (one fsync), then applies the
// operations in log order, so the in-memory state and the log never disagree
// about ordering. The committer builds the group's segments before it takes
// the write lock and holds it only to install them; readers (walks, stats)
// take the read lock and keep running during ingest.
//
// Recovery is snapshot + log-suffix replay: OpenDurable loads the newest
// *verifiable* snapshot generation (exact segment-level image, CRC-verified),
// then replays every WAL record with a later LSN through the one path the
// live writes took (txn.applyLog), in windows of records that the append
// planner stages in one parallel pass. Operations that failed live (a stale
// batch, a delete of a missing edge) fail identically during replay — the
// log records intent, and application is deterministic — so the recovered
// graph is structurally identical to the pre-crash one. A torn WAL tail is
// truncated; mid-log corruption refuses with wal.ErrCorrupt.
//
// Snapshots are generational: each checkpoint writes snapshot.<lsn> and the
// last SnapshotKeep generations are retained, with the WAL trimmed only past
// the oldest retained one — so every retained generation still has its full
// log suffix. A corrupt generation is quarantined (renamed *.corrupt, counted
// by tea_snapshot_quarantined_total) and recovery falls back to the next
// older one, replaying the longer suffix, instead of refusing to boot.
//
// After the first WAL write or fsync failure (or an ENOSPC mid-checkpoint)
// the graph enters a sticky degraded state: reads keep working, every further
// mutation fails fast with ErrDegraded, and the failure is recorded in the
// flight recorder. A background heal loop then periodically rolls the WAL
// back to its durable point, probes the device, and re-anchors durability
// with a fresh checkpoint; once that succeeds the degraded state clears and
// writes flow again — a disk-full episode needs no restart.

// ErrDegraded is returned by mutations after a WAL write or fsync failure.
// The wrapped cause is the first failure; the state is sticky because a log
// that lost a write can no longer promise recoverability.
var ErrDegraded = errors.New("stream: durable graph degraded (WAL write failed)")

// ErrClosed is returned by mutations on a closed durable graph.
var ErrClosed = errors.New("stream: durable graph closed")

// ErrSnapshotMismatch is returned when a snapshot on disk was written under
// a different weight configuration than the one the graph is opened with.
var ErrSnapshotMismatch = errors.New("stream: snapshot weight config does not match")

// snapshotName is the snapshot base name inside the WAL directory; each
// generation is snapshot.<lsn> (zero-padded decimal).
const snapshotName = "snapshot"

// snapshotFileName renders the generation file name for a covered LSN.
// Zero-padding keeps lexicographic and numeric order identical.
func snapshotFileName(lsn uint64) string {
	return fmt.Sprintf("%s.%020d", snapshotName, lsn)
}

// ErrNoUsableSnapshot is returned when every snapshot generation failed
// verification AND the WAL no longer reaches back to LSN 1 — replaying the
// surviving log alone would silently drop acknowledged history.
var ErrNoUsableSnapshot = errors.New("stream: no usable snapshot and the WAL does not reach back far enough")

// snapGen is one snapshot generation found on disk.
type snapGen struct {
	path string
	lsn  uint64
}

// listSnapshots enumerates snapshot generations in dir, oldest first;
// quarantined (*.corrupt) and temp files are excluded.
func listSnapshots(fsys vfs.FS, dir string) ([]snapGen, error) {
	names, err := fsys.Glob(filepath.Join(dir, snapshotName+".*"))
	if err != nil {
		return nil, fmt.Errorf("stream: list snapshots: %w", err)
	}
	var gens []snapGen
	for _, p := range names {
		suffix := strings.TrimPrefix(filepath.Base(p), snapshotName+".")
		lsn, ok := uint64(0), len(suffix) > 0
		for _, c := range suffix {
			if c < '0' || c > '9' {
				ok = false // .tmp, .corrupt, foreign files
				break
			}
			lsn = lsn*10 + uint64(c-'0')
		}
		if ok {
			gens = append(gens, snapGen{path: p, lsn: lsn})
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].lsn < gens[j].lsn })
	return gens, nil
}

// walWarnRatio is the multiple of the newest snapshot's size beyond which
// the retained WAL draws a warning.
const walWarnRatio = 4

// maxGroup bounds one group commit; queued writers beyond it wait for the
// next group.
const maxGroup = 128

// Group-commit, snapshot, and recovery metric families (the wal package owns
// the per-append and fsync families).
var (
	mGroupCommit      = metrics.Default.Histogram("tea_wal_group_commit_records")
	mSnapshots        = metrics.Default.Counter("tea_wal_snapshots_total")
	mSnapshotSeconds  = metrics.Default.Histogram("tea_wal_snapshot_seconds")
	mRecoverySeconds  = metrics.Default.Gauge("tea_wal_recovery_seconds")
	mReplayed         = metrics.Default.Gauge("tea_wal_recovery_replayed_records")
	mSnapQuarantined  = metrics.Default.Counter("tea_snapshot_quarantined_total")
	mSnapGenerations  = metrics.Default.Gauge("tea_snapshot_generations")
	mGraphHeals       = metrics.Default.Counter("tea_durable_heals_total")
	mGraphHealFailed  = metrics.Default.Counter("tea_durable_heal_failures_total")
	mCheckpointErrors = metrics.Default.Counter("tea_wal_snapshot_errors_total")
)

// DurableConfig parameterizes OpenDurable.
type DurableConfig struct {
	// Graph configures the in-memory stream (weight kind, initial sizing).
	// Must match the configuration of any snapshot already in the
	// directory, or OpenDurable fails with ErrSnapshotMismatch.
	Graph Config
	// WAL tunes the log (fsync policy, segment size). FS and OnSyncError
	// are owned by the durable graph: OpenDurable sets FS from the FS field
	// below and OnSyncError to its own handler, so leave both nil.
	WAL wal.Options
	// SnapshotEvery writes a snapshot (and trims the log) every N logged
	// mutations; 0 disables periodic snapshots.
	SnapshotEvery int
	// SnapshotKeep is how many snapshot generations to retain; 0 means 2.
	// The WAL is trimmed only past the oldest retained generation, so every
	// retained snapshot can still replay its full log suffix.
	SnapshotKeep int
	// HealInterval is how often the degraded graph probes the device and
	// tries to self-heal; 0 means 2s, negative disables the loop.
	HealInterval time.Duration
	// FS is the filesystem the WAL and snapshots run against; nil means the
	// real OS.
	FS vfs.FS
	// Progress, when non-nil, receives recovery progress updates (from
	// OpenDurable's goroutine) so a serving layer can report how far
	// replay has come on /readyz.
	Progress func(RecoveryProgress)
	// Logger, when non-nil, receives storage warnings (WAL growth,
	// quarantined snapshots, heal attempts).
	Logger *slog.Logger
	// Tracer, when non-nil and enabled, receives recovery spans and
	// flight-recorder events for fsync errors and tail truncation.
	Tracer *trace.Tracer
}

// RecoveryProgress is a point-in-time view of a recovery in flight.
type RecoveryProgress struct {
	// SnapshotLSN is the LSN of the generation recovery chose (0 = none).
	SnapshotLSN uint64
	// SegmentsDone / SegmentsTotal count WAL segments replayed so far.
	SegmentsDone, SegmentsTotal int
	// RecordsApplied counts log records applied to the graph so far.
	RecordsApplied uint64
}

// RecoveryInfo summarizes one recovery pass.
type RecoveryInfo struct {
	// Duration is the wall time of snapshot load plus replay.
	Duration time.Duration
	// SnapshotLSN is the LSN the loaded snapshot covered (0 = no snapshot).
	SnapshotLSN uint64
	// Replayed counts log records applied after the snapshot.
	Replayed uint64
	// Records counts all surviving records in the log.
	Records uint64
	// TruncatedBytes counts torn-tail bytes discarded by the WAL scan.
	TruncatedBytes int64
}

// DurableStats is a point-in-time summary for the serving layer.
type DurableStats struct {
	Vertices  int
	Edges     int
	Deleted   int
	MaxDegree int
	// TimeLo and TimeHi are the times of the oldest and the newest live
	// edge, both 0 when no edge is live.
	TimeLo      temporal.Time
	TimeHi      temporal.Time
	MemoryBytes int64
	Weight      string
}

// discardHandler drops every record; the default when no Logger is given.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// ingestReq is one queued mutation awaiting group commit: the WAL record
// it logs, which is also what the commit applies.
type ingestReq struct {
	typ     wal.RecordType
	payload []byte
	dropped int
	err     error
	done    chan struct{}
}

// DurableGraph is the write-ahead-logged streaming graph. One committer
// goroutine serializes mutations; readers run concurrently under RLock.
type DurableGraph struct {
	dir    string
	cfg    DurableConfig
	fs     vfs.FS
	keep   int
	logger *slog.Logger

	mu sync.RWMutex // guards g
	g  *Graph

	log   *wal.Log
	reqCh chan *ingestReq
	quit  chan struct{}
	wg    sync.WaitGroup

	closed atomic.Bool
	// closing is held for reading by a writer from its closed check until
	// its request is queued (enqueue), and taken by stop.
	closing sync.RWMutex

	errMu sync.Mutex
	err   error

	sinceSnap int
	snapLSN   uint64
	recovery  RecoveryInfo
	tctx      context.Context
}

// OpenDurable opens (creating if needed) a durable streaming graph rooted at
// dir, recovering whatever state the directory holds: the newest verifiable
// snapshot generation, then WAL suffix replay. A torn WAL tail is repaired; a
// corrupt snapshot is quarantined (*.corrupt) and recovery falls back to the
// previous generation; mid-log corruption or a weight-config mismatch refuse
// with an error. If every generation is unusable and the WAL no longer
// reaches back to LSN 1, OpenDurable refuses with ErrNoUsableSnapshot rather
// than silently serving partial history.
func OpenDurable(dir string, cfg DurableConfig) (*DurableGraph, error) {
	if cfg.Graph.Weight.Custom != nil {
		return nil, ErrCustomWeight
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = vfs.OS
	}
	keep := cfg.SnapshotKeep
	if keep <= 0 {
		keep = 2
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	d := &DurableGraph{
		dir:    dir,
		cfg:    cfg,
		fs:     fsys,
		keep:   keep,
		logger: logger,
		reqCh:  make(chan *ingestReq, 2*maxGroup),
		quit:   make(chan struct{}),
	}
	ctx := context.Background()
	var sp *trace.Span
	if cfg.Tracer.Enabled() {
		ctx = trace.WithTracer(ctx, cfg.Tracer)
		ctx, sp = cfg.Tracer.StartRoot(ctx, "wal.recovery", "")
	}
	d.tctx = ctx

	start := time.Now()
	walOpts := cfg.WAL
	walOpts.FS = fsys
	walOpts.OnSyncError = func(err error) { d.fail(err) }
	log, err := wal.Open(dir, walOpts)
	if err != nil {
		if sp != nil {
			sp.SetError(err)
			sp.End()
		}
		return nil, err
	}
	d.log = log

	// Pre-rename residue from a checkpoint interrupted mid-write.
	if tmps, err := fsys.Glob(filepath.Join(dir, ".snapshot-*")); err == nil {
		for _, p := range tmps {
			fsys.Remove(p)
		}
	}

	gens, err := listSnapshots(fsys, dir)
	if err != nil {
		log.Close()
		return nil, err
	}
	quarantined := 0
	for i := len(gens) - 1; i >= 0 && d.g == nil; i-- {
		gen := gens[i]
		g, lsn, err := ReadSnapshotFileFS(fsys, gen.path)
		if err != nil {
			// Damaged generation: move it aside and fall back to the next
			// older one. The WAL was only ever trimmed past the oldest
			// retained generation, so the longer suffix is still replayable.
			quarantined++
			mSnapQuarantined.Inc()
			trace.EventCtx(d.tctx, trace.KindError, "snapshot.quarantined",
				trace.Str("path", filepath.Base(gen.path)), trace.Str("error", err.Error()))
			logger.Warn("quarantining corrupt snapshot generation",
				"path", gen.path, "error", err)
			if qerr := fsys.Rename(gen.path, gen.path+".corrupt"); qerr != nil {
				logger.Warn("quarantine rename failed", "path", gen.path, "error", qerr)
			}
			continue
		}
		if g.spec.Kind != cfg.Graph.Weight.Kind || g.spec.Lambda != cfg.Graph.Weight.Lambda {
			log.Close()
			return nil, fmt.Errorf("%w: snapshot %v/λ=%v, config %v/λ=%v",
				ErrSnapshotMismatch, g.spec.Kind, g.spec.Lambda, cfg.Graph.Weight.Kind, cfg.Graph.Weight.Lambda)
		}
		d.g = g
		d.snapLSN = lsn
	}
	if d.g == nil {
		// No usable snapshot: the log must reach back to the beginning, or
		// acknowledged history would be silently missing.
		if log.FirstLSN() > 1 {
			log.Close()
			return nil, fmt.Errorf("%w: log starts at LSN %d", ErrNoUsableSnapshot, log.FirstLSN())
		}
		g, err := New(cfg.Graph)
		if err != nil {
			log.Close()
			return nil, err
		}
		d.g = g
	} else if log.FirstLSN() > d.snapLSN+1 {
		// The chosen snapshot predates the log's oldest record: there is a
		// gap no replay can fill.
		log.Close()
		return nil, fmt.Errorf("%w: snapshot covers LSN %d but log starts at %d",
			ErrNoUsableSnapshot, d.snapLSN, log.FirstLSN())
	}

	report := func(p RecoveryProgress) {
		if cfg.Progress != nil {
			cfg.Progress(p)
		}
	}
	segsDone, segsTotal := 0, log.Recovery().Segments
	report(RecoveryProgress{SnapshotLSN: d.snapLSN, SegmentsTotal: segsTotal})
	// Records gather into windows of up to replayWindowEdges edges, each
	// applied in one txn on every thread. A record that failed live fails
	// identically here; one that does not decode — impossible past the
	// frame CRC short of a version skew — refuses the log.
	replayed := uint64(0)
	var window []wal.Entry
	windowLSN, windowEdges := uint64(0), 0
	flush := func() error {
		if len(window) == 0 {
			return nil
		}
		var corrupt error
		t := d.g.begin()
		t.applyLog(window, par.Threads(0), func(i, _ int, err error) {
			lsn := windowLSN + uint64(i)
			if errors.Is(err, wal.ErrCorrupt) && corrupt == nil {
				corrupt = fmt.Errorf("record %d: %w", lsn, err)
			} else if errors.Is(err, ErrVertexRange) {
				// Logged before vertex ids were bounded; a live append
				// would refuse it too.
				logger.Warn("replay refused a logged batch naming a vertex id out of range",
					"lsn", lsn, "err", err)
			}
		})
		if corrupt != nil {
			return corrupt
		}
		t.commit()
		before := replayed
		replayed += uint64(len(window))
		if replayed/65536 != before/65536 {
			report(RecoveryProgress{SnapshotLSN: d.snapLSN,
				SegmentsDone: segsDone, SegmentsTotal: segsTotal, RecordsApplied: replayed})
		}
		clear(window)
		window, windowEdges = window[:0], 0
		return nil
	}
	err = log.ReplayProgress(func(rec wal.Record) error {
		if rec.LSN <= d.snapLSN {
			return nil
		}
		if len(window) == 0 {
			windowLSN = rec.LSN
		}
		window = append(window, wal.Entry{Type: rec.Type, Payload: rec.Payload})
		if windowEdges += len(rec.Payload) / edgeio.RecordSize; windowEdges >= replayWindowEdges {
			return flush()
		}
		return nil
	}, func(done, total int) {
		segsDone, segsTotal = done, total
		report(RecoveryProgress{SnapshotLSN: d.snapLSN,
			SegmentsDone: done, SegmentsTotal: total, RecordsApplied: replayed})
	})
	if err == nil {
		err = flush()
	}
	if err != nil {
		log.Close()
		return nil, err
	}
	// The windows' scratch goes with replay; live batches size their own.
	d.g.sorted, d.g.grouped, d.g.offsets = nil, nil, nil

	wi := log.Recovery()
	d.recovery = RecoveryInfo{
		Duration:       time.Since(start),
		SnapshotLSN:    d.snapLSN,
		Replayed:       replayed,
		Records:        wi.Records,
		TruncatedBytes: wi.TruncatedBytes,
	}
	mRecoverySeconds.Set(d.recovery.Duration.Seconds())
	mReplayed.Set(float64(replayed))
	if wi.TruncatedBytes > 0 {
		trace.EventCtx(d.tctx, trace.KindError, "wal.recovery.truncated",
			trace.Int("bytes", wi.TruncatedBytes))
	}
	if sp != nil {
		sp.SetInt("replayed_records", int64(replayed))
		sp.SetInt("snapshot_lsn", int64(d.snapLSN))
		sp.SetInt("truncated_bytes", wi.TruncatedBytes)
		sp.End()
	}

	d.wg.Add(1)
	go d.commitLoop()
	return d, nil
}

// replayWindowEdges bounds the edges one replay window holds, so a huge
// log replays in bounded memory.
const replayWindowEdges = 1 << 20

// applyLog stages logged records in log order; it is the one way a logged
// record reaches the graph, live or replayed. Each edge batch is decoded
// and admitted as it comes (admit), and the admitted batches are appended
// in one planned pass on threads threads (appendAdmitted) before any other
// record applies and at the end, leaving the graph the records' one-by-one
// application leaves (appendRuns). done(i, dropped, err) reports record i:
// the edges an expiry dropped, and the mutation's own error (a refused
// append stages nothing, a failed deletion keeps its prefix) or one
// wrapping wal.ErrCorrupt for a payload that does not decode or a type
// that is no record.
func (t *txn) applyLog(recs []wal.Entry, threads int, done func(i, dropped int, err error)) {
	g := t.g
	for i, rec := range recs {
		if rec.Type != wal.RecEdgeBatch {
			t.appendAdmitted(threads)
			dropped, err := t.apply(rec.Type, rec.Payload)
			done(i, dropped, err)
			continue
		}
		if i == 0 || recs[i-1].Type != wal.RecEdgeBatch {
			n := 0 // the edges of the run of batches this one starts
			for j := i; j < len(recs) && recs[j].Type == wal.RecEdgeBatch; j++ {
				n += len(recs[j].Payload) / edgeio.RecordSize
			}
			g.sorted = slices.Grow(g.sorted, n)
		}
		from := len(g.sorted)
		edges, err := edgeio.DecodeList(g.sorted, rec.Payload)
		if err != nil {
			done(i, 0, fmt.Errorf("%w: %v", wal.ErrCorrupt, err))
			continue
		}
		if g.sorted = edges; len(edges) > from {
			err = t.admit(from)
		}
		done(i, 0, err)
	}
	t.appendAdmitted(threads)
}

// apply stages one logged mutation other than an edge batch, given as its
// WAL record type and payload, and returns how many edges an expiry
// dropped; applyLog reports what it returns.
func (t *txn) apply(typ wal.RecordType, payload []byte) (dropped int, err error) {
	switch typ {
	case wal.RecDeleteBatch:
		edges, err := edgeio.DecodeList(nil, payload)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", wal.ErrCorrupt, err)
		}
		return 0, t.deleteEdges(edges)
	case wal.RecExpire:
		if len(payload) != 8 {
			return 0, fmt.Errorf("%w: expire payload %d bytes", wal.ErrCorrupt, len(payload))
		}
		return t.expireBefore(temporal.Time(binary.LittleEndian.Uint64(payload))), nil
	case wal.RecSnapshotMark, wal.RecNoop:
		// A snapshot marker is informational (the snapshot file is the
		// source of truth); a no-op is heal's device probe.
		return 0, nil
	}
	return 0, fmt.Errorf("%w: unknown type %d", wal.ErrCorrupt, typ)
}

// AppendBatch logs and applies a batch of strictly newer edges. The batch
// is durable per the configured fsync policy before this returns. A batch
// naming a vertex id out of range is refused before it is logged.
func (d *DurableGraph) AppendBatch(edges []temporal.Edge) error {
	if len(edges) == 0 {
		return nil
	}
	if err := checkVertexIDs(edges); err != nil {
		return err
	}
	_, err := d.submit(wal.RecEdgeBatch, edgeio.AppendList(make([]byte, 0, 4+edgeio.RecordSize*len(edges)), edges))
	return err
}

// DeleteEdges logs and applies a batch of deletions; partial-failure
// semantics follow Graph.DeleteEdges (a *BatchError reports the applied
// prefix, and retrying the full batch is safe).
func (d *DurableGraph) DeleteEdges(edges []temporal.Edge) error {
	if len(edges) == 0 {
		return nil
	}
	_, err := d.submit(wal.RecDeleteBatch, edgeio.AppendList(make([]byte, 0, 4+edgeio.RecordSize*len(edges)), edges))
	return err
}

// ExpireBefore logs and applies a sliding-window expiry, returning the
// number of edges dropped.
func (d *DurableGraph) ExpireBefore(horizon temporal.Time) (int, error) {
	return d.submit(wal.RecExpire, binary.LittleEndian.AppendUint64(nil, uint64(horizon)))
}

// submit queues one mutation and waits for its group to commit and apply;
// it returns how many edges the mutation dropped.
func (d *DurableGraph) submit(typ wal.RecordType, payload []byte) (int, error) {
	req := &ingestReq{typ: typ, payload: payload, done: make(chan struct{})}
	if err := d.enqueue(req); err != nil {
		return 0, err
	}
	<-req.done
	return req.dropped, req.err
}

// enqueue hands req to the committer, or says why it cannot. It holds
// closing for reading from the closed check until req is queued, so a
// writer that passed the check before Close began has queued its request
// by the time stop takes closing. The send cannot block for good: the
// committer takes requests until quit closes, after stop holds closing.
func (d *DurableGraph) enqueue(req *ingestReq) error {
	d.closing.RLock()
	defer d.closing.RUnlock()
	if d.closed.Load() {
		return ErrClosed
	}
	if err := d.Err(); err != nil {
		return err
	}
	d.reqCh <- req
	return nil
}

// commitLoop is the single committer: it drains queued mutations into
// groups, makes each group durable with one WAL append, applies it in log
// order, then considers a snapshot.
func (d *DurableGraph) commitLoop() {
	defer d.wg.Done()
	healEvery := d.cfg.HealInterval
	if healEvery == 0 {
		healEvery = 2 * time.Second
	}
	var healC <-chan time.Time
	if healEvery > 0 {
		t := time.NewTicker(healEvery)
		defer t.Stop()
		healC = t.C
	}
	for {
		var first *ingestReq
		select {
		case first = <-d.reqCh:
		case <-healC:
			d.tryHeal()
			continue
		case <-d.quit:
			// Graceful shutdown still commits accepted writes, in groups.
			for len(d.reqCh) > 0 {
				d.commitGroup(d.gather(<-d.reqCh))
			}
			return
		}
		d.commitGroup(d.gather(first))
		if d.cfg.SnapshotEvery > 0 && d.sinceSnap >= d.cfg.SnapshotEvery {
			d.checkpoint()
		}
	}
}

// tryHeal runs on the committer goroutine while the graph is degraded: roll
// the WAL back to its durable point and probe the device, then re-anchor
// durability with a fresh checkpoint (under the weaker fsync policies the
// rollback may have discarded acknowledged-but-unsynced records; the
// snapshot captures their applied effects). Only after both succeed does the
// degraded state clear and writes flow again.
func (d *DurableGraph) tryHeal() {
	if d.Err() == nil {
		return
	}
	if err := d.log.Heal(); err != nil {
		mGraphHealFailed.Inc()
		return
	}
	if err := d.checkpoint(); err != nil {
		mGraphHealFailed.Inc()
		return
	}
	d.errMu.Lock()
	d.err = nil
	d.errMu.Unlock()
	mGraphHeals.Inc()
	trace.EventCtx(d.tctx, trace.KindInfo, "wal.healed")
	d.logger.Info("durable graph healed; writes restored")
}

// gather returns a group of first and the requests queued behind it, at
// most maxGroup in all. Only the committer receives from the queue, so a
// request it sees queued is there to take.
func (d *DurableGraph) gather(first *ingestReq) []*ingestReq {
	batch := []*ingestReq{first}
	for len(batch) < maxGroup && len(d.reqCh) > 0 {
		batch = append(batch, <-d.reqCh)
	}
	return batch
}

// commitGroup writes one group through the WAL (log order = slice order),
// applies it, and releases the waiters.
func (d *DurableGraph) commitGroup(batch []*ingestReq) {
	entries := make([]wal.Entry, len(batch))
	for i, r := range batch {
		entries[i] = wal.Entry{Type: r.typ, Payload: r.payload}
	}
	if _, err := d.log.Append(entries...); err != nil {
		d.fail(err)
		err = d.Err()
		for _, r := range batch {
			r.err = err
			close(r.done)
		}
		return
	}
	mGroupCommit.Observe(float64(len(batch)))
	// Build the group's new vertex states aside — walkers keep reading the
	// published graph meanwhile — and take the write lock only to install
	// them.
	tx := d.g.begin()
	tx.applyLog(entries, 1, func(i, dropped int, err error) {
		batch[i].dropped, batch[i].err = dropped, err
	})
	tx.settle()
	d.mu.Lock()
	tx.commit()
	d.mu.Unlock()
	for _, r := range batch {
		close(r.done)
	}
	d.sinceSnap += len(batch)
}

// checkpoint writes a new snapshot generation covering everything logged so
// far, appends a snapshot marker, prunes generations beyond SnapshotKeep,
// and trims WAL segments no retained generation needs. Runs on the committer
// goroutine — no mutations are in flight. A write failure leaves every prior
// generation intact (the new file lands by atomic rename); an ENOSPC
// additionally degrades the graph so the serving layer goes read-only and
// the heal loop takes over.
func (d *DurableGraph) checkpoint() error {
	lsn := d.log.LastLSN()
	start := time.Now()
	path := filepath.Join(d.dir, snapshotFileName(lsn))
	d.mu.RLock()
	err := WriteSnapshotFileFS(d.fs, path, d.g, lsn)
	d.mu.RUnlock()
	if err != nil {
		mCheckpointErrors.Inc()
		trace.EventCtx(d.tctx, trace.KindError, "wal.snapshot.error", trace.Str("error", err.Error()))
		if vfs.IsNoSpace(err) {
			d.fail(err)
		}
		return err
	}
	mark := wal.Entry{Type: wal.RecSnapshotMark, Payload: binary.LittleEndian.AppendUint64(nil, lsn)}
	if _, err := d.log.Append(mark); err != nil {
		d.fail(err)
		return err
	}

	// Prune old generations, then trim the WAL only past the oldest one
	// still retained — every retained snapshot keeps its full log suffix.
	oldest := lsn
	if gens, err := listSnapshots(d.fs, d.dir); err == nil {
		for len(gens) > d.keep {
			if rerr := d.fs.Remove(gens[0].path); rerr != nil {
				d.logger.Warn("pruning old snapshot failed", "path", gens[0].path, "error", rerr)
				break
			}
			gens = gens[1:]
		}
		if len(gens) > 0 {
			oldest = gens[0].lsn
		}
		mSnapGenerations.Set(float64(len(gens)))
	}
	if _, err := d.log.TruncateBefore(oldest + 1); err != nil {
		trace.EventCtx(d.tctx, trace.KindError, "wal.truncate.error", trace.Str("error", err.Error()))
	}

	// Growth accounting: how much the retained log could shrink to, and a
	// warning when it dwarfs the state it protects (snapshot cadence too
	// slow, or generations pinning a huge suffix).
	reclaimable := d.log.ReclaimableBefore(lsn + 1)
	if st, serr := d.fs.Stat(path); serr == nil {
		snapSize := st.Size()
		if walSize := d.log.SizeBytes(); snapSize > 0 && walSize > walWarnRatio*snapSize {
			d.logger.Warn("retained WAL exceeds snapshot size budget",
				"wal_bytes", walSize, "snapshot_bytes", snapSize,
				"ratio_limit", walWarnRatio, "reclaimable_bytes", reclaimable)
		}
	}

	d.snapLSN = lsn
	d.sinceSnap = 0
	mSnapshots.Inc()
	mSnapshotSeconds.ObserveSince(start)
	return nil
}

// fail records the first WAL failure and flips the graph into the sticky
// degraded state, with a flight-recorder event.
func (d *DurableGraph) fail(cause error) {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	if d.err != nil {
		return
	}
	// Both sentinels stay matchable: ErrDegraded for "writes are failing",
	// and the cause chain (e.g. vfs.ErrNoSpace) for "why" — the serving
	// layer maps disk-full to 507 Insufficient Storage.
	d.err = fmt.Errorf("%w: %w", ErrDegraded, cause)
	trace.EventCtx(d.tctx, trace.KindError, "wal.degraded", trace.Str("error", cause.Error()))
	d.logger.Warn("durable graph degraded; writes suspended", "error", cause)
}

// Err returns the sticky degraded error, nil while healthy.
func (d *DurableGraph) Err() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.err
}

// Recovery reports what OpenDurable found and replayed.
func (d *DurableGraph) Recovery() RecoveryInfo { return d.recovery }

// Dir returns the durable graph's directory.
func (d *DurableGraph) Dir() string { return d.dir }

// Log exposes the underlying WAL for scrubbers and operational tooling.
// Callers must not Append or Close through it.
func (d *DurableGraph) Log() *wal.Log { return d.log }

// SnapshotPaths lists the retained snapshot generation files, oldest first.
// A checkpoint may add or prune generations concurrently; scrubbers treat a
// vanished file as pruned, not damaged.
func (d *DurableGraph) SnapshotPaths() []string {
	gens, err := listSnapshots(d.fs, d.dir)
	if err != nil {
		return nil
	}
	paths := make([]string, len(gens))
	for i, g := range gens {
		paths[i] = g.path
	}
	return paths
}

// NumVertices returns the current vertex-space size.
func (d *DurableGraph) NumVertices() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.g.NumVertices()
}

// NumEdges returns the live edge count.
func (d *DurableGraph) NumEdges() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.g.NumEdges()
}

// Frontier returns the newest ingested timestamp.
func (d *DurableGraph) Frontier() temporal.Time {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.g.Frontier()
}

// WalkSeeded runs one deterministic temporal walk under the read lock;
// walks keep running during ingest.
func (d *DurableGraph) WalkSeeded(src temporal.Vertex, start temporal.Time, length int, seed uint64) ([]temporal.Vertex, []temporal.Time) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.g.WalkSeeded(src, start, length, seed)
}

// Stats summarizes the graph for the serving layer.
func (d *DurableGraph) Stats() DurableStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	st := DurableStats{
		Vertices:    d.g.NumVertices(),
		Edges:       d.g.NumEdges(),
		Deleted:     d.g.NumDeleted(),
		MemoryBytes: d.g.MemoryBytes(),
		Weight:      d.g.spec.Kind.String(),
	}
	for _, segs := range d.g.verts {
		n, dead := slots(segs)
		if n == dead {
			continue
		}
		oldest, newest := liveSpan(segs)
		if st.MaxDegree == 0 { // the first vertex with a live edge
			st.TimeLo, st.TimeHi = oldest, newest
		}
		st.MaxDegree = max(st.MaxDegree, n-dead)
		st.TimeLo, st.TimeHi = min(st.TimeLo, oldest), max(st.TimeHi, newest)
	}
	return st
}

// View runs fn with the read lock held, for callers (tests, experiment
// harnesses) that need richer access than the accessors above. fn must not
// retain or mutate the graph.
func (d *DurableGraph) View(fn func(*Graph)) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	fn(d.g)
}

// Close drains accepted writes, flushes the WAL, and closes it.
func (d *DurableGraph) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	d.stop()
	return d.log.Close()
}

// Crash abandons the graph without flushing, as a killed process would:
// nothing is synced, no snapshot is written, queued-but-uncommitted writes
// are lost. Crash-recovery tests reopen the directory afterwards.
func (d *DurableGraph) Crash() {
	if !d.closed.CompareAndSwap(false, true) {
		return
	}
	d.log.Crash()
	d.stop()
}

// stop ends the committer once closed is set. Taking closing first waits
// out every writer between its closed check and its enqueue, so each
// request is queued before quit closes and the committer commits it.
func (d *DurableGraph) stop() {
	d.closing.Lock()
	d.closing.Unlock()
	close(d.quit)
	d.wg.Wait()
}

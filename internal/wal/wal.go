// Package wal implements the write-ahead log behind TEA's durable streaming
// ingestion: an append-only, CRC-32C-framed record log split into numbered
// segment files. Writers append framed records (edge batches, delete batches,
// expire watermarks, snapshot markers) and choose a durability policy
// (fsync on every commit, on an interval, or never); recovery scans the
// segments in order, truncates a torn tail (a partially written final frame
// is the expected residue of a crash), and refuses mid-log corruption with
// ErrCorrupt — damage in the middle of acknowledged history is not
// silently dropped.
//
// On-disk layout (all integers little-endian):
//
//	<dir>/wal-00000001.log, wal-00000002.log, ...
//
//	segment  := header frame*
//	header   := magic[8] ("TEAWAL01") firstLSN[8]
//
// Each record is one internal/chksum record frame (length, CRC-32C, type
// byte, payload), so a flipped length, type, or payload byte fails
// verification. Records carry log sequence numbers (LSNs)
// implicitly: the segment header pins the LSN of its first frame and frames
// number consecutively, so LSNs survive old segments being truncated away
// after a snapshot.
//
// Torn tail vs. mid-log corruption: a frame that extends past end-of-file,
// or whose CRC fails with no bytes after it, is a torn tail — the log is
// truncated at the frame start and appends resume there. A frame whose CRC
// fails with more data after it, or any damage in a sealed (non-final)
// segment, is mid-log corruption and recovery refuses with ErrCorrupt.
//
// All filesystem access goes through an internal/vfs.FS (Options.FS; the
// real OS by default), so every failure path — ENOSPC, a failed fsync, a
// torn write — is testable under injected faults. A write or sync failure
// leaves the log sticky-degraded; Heal rolls the live segment back to the
// last fsync-covered byte and probes the device with a no-op record, which
// is how the serving layer recovers from a disk-full episode without a
// restart.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/tea-graph/tea/internal/chksum"
	"github.com/tea-graph/tea/internal/vfs"
)

// RecordType tags a WAL record. The WAL itself never interprets payloads;
// the types are defined here so writers and recovery share one vocabulary.
type RecordType byte

const (
	// RecEdgeBatch is a batch of appended edges.
	RecEdgeBatch RecordType = 1
	// RecDeleteBatch is a batch of edge deletions.
	RecDeleteBatch RecordType = 2
	// RecExpire is a sliding-window expiry watermark.
	RecExpire RecordType = 3
	// RecSnapshotMark records that a snapshot covering every LSN up to its
	// payload value was made durable.
	RecSnapshotMark RecordType = 4
	// RecNoop carries no state change; Heal appends one as the probe that
	// proves the device accepts durable writes again. Replay must skip it.
	RecNoop RecordType = 5
)

// Policy selects when appended records are fsynced to stable storage.
type Policy int

const (
	// SyncAlways fsyncs once per append group before acknowledging —
	// every acknowledged record survives a crash.
	SyncAlways Policy = iota
	// SyncInterval fsyncs dirty segments on a background interval — a
	// crash may lose the last interval's worth of acknowledged records.
	SyncInterval
	// SyncNever leaves flushing to the operating system.
	SyncNever
)

// String renders the policy as its flag spelling.
func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy parses the -fsync flag spellings.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// ErrCorrupt is returned when recovery finds damage it must not repair
// silently: a bad frame with valid data after it, a damaged sealed segment,
// or an LSN discontinuity between segments.
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrClosed is returned by appends on a closed log.
var ErrClosed = errors.New("wal: log closed")

const (
	headerSize  = 16
	frameHdr    = chksum.FrameHeaderSize
	maxFrame    = 64 << 20 // sanity cap on one frame; a larger length is damage
	defaultSeg  = 64 << 20
	defaultTick = 100 * time.Millisecond
)

var segMagic = [8]byte{'T', 'E', 'A', 'W', 'A', 'L', '0', '1'}

// Options tunes a log.
type Options struct {
	// SegmentBytes is the rotation threshold; once the live segment reaches
	// it, the segment is sealed (synced) and appends move to a fresh file.
	// 0 means 64 MiB.
	SegmentBytes int64
	// Policy selects the fsync discipline; the zero value is SyncAlways.
	Policy Policy
	// Interval is the flush period under SyncInterval; 0 means 100ms.
	Interval time.Duration
	// OnSyncError, when non-nil, is invoked (once per failure) when an
	// fsync fails and the log enters its sticky-error state.
	OnSyncError func(error)
	// FS is the filesystem the log runs against; nil means the real OS.
	// Tests inject a vfs.FaultFS here to script disk failures.
	FS vfs.FS
}

// Entry is one record to append: a type plus an opaque payload.
type Entry struct {
	Type    RecordType
	Payload []byte
}

// Record is one recovered record: an Entry plus its log sequence number.
type Record struct {
	Type    RecordType
	LSN     uint64
	Payload []byte
}

// RecoveryInfo summarizes what Open found on disk.
type RecoveryInfo struct {
	// Segments is the number of segment files present after repair.
	Segments int
	// Records is the total valid records across all segments.
	Records uint64
	// FirstLSN is the LSN of the oldest surviving record (0 when empty).
	FirstLSN uint64
	// LastLSN is the LSN of the newest surviving record (0 when empty).
	LastLSN uint64
	// TruncatedBytes counts torn-tail bytes discarded during repair.
	TruncatedBytes int64
}

// segmentInfo tracks one on-disk segment file.
type segmentInfo struct {
	seq      uint64
	path     string
	firstLSN uint64
	records  uint64
	size     int64
}

// Log is an append-only segmented record log. One writer at a time may
// Append (the durable-graph committer); Sync may race with appends.
type Log struct {
	dir  string
	opts Options
	fs   vfs.FS

	mu       sync.Mutex
	f        vfs.File // live segment
	segs     []segmentInfo
	nextLSN  uint64
	dirty    bool
	err      error // sticky: first write/sync failure; Heal may clear it
	closed   bool
	recovery RecoveryInfo

	// The durable point: live-segment size, record count, and next LSN as
	// of the last successful fsync (or segment creation). Heal rolls the
	// live segment back here — everything past it was never acknowledged
	// under SyncAlways, and under the weaker policies losing it is the same
	// contract a crash already imposes.
	syncedSize int64
	syncedRecs uint64
	syncedLSN  uint64

	tickDone chan struct{}
	tickWG   sync.WaitGroup
}

// Open opens (creating if necessary) the log in dir, repairing a torn tail
// and refusing mid-log corruption with an error wrapping ErrCorrupt. The
// returned log is positioned for appends; Replay streams the surviving
// records.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSeg
	}
	if opts.Interval <= 0 {
		opts.Interval = defaultTick
	}
	if opts.FS == nil {
		opts.FS = vfs.OS
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, fs: opts.FS}

	segs, err := listSegments(l.fs, dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := l.createSegment(1, 1); err != nil {
			return nil, err
		}
	} else {
		wantLSN := uint64(0) // 0 = take the first segment's word for it
		for i := range segs {
			s := &segs[i]
			last := i == len(segs)-1
			res, err := scanSegment(l.fs, s.path, last, nil, nil)
			if err != nil {
				return nil, err
			}
			if res.reset {
				// Unusable header on the final segment (torn segment
				// creation): rebuild it empty at the expected LSN.
				if wantLSN == 0 {
					wantLSN = 1
				}
				l.recovery.TruncatedBytes += s.size
				if err := l.fs.Remove(s.path); err != nil {
					return nil, fmt.Errorf("wal: %w", err)
				}
				if err := l.createSegment(s.seq, wantLSN); err != nil {
					return nil, err
				}
				l.nextLSN = wantLSN
				break
			}
			if wantLSN != 0 && res.firstLSN != wantLSN {
				return nil, fmt.Errorf("%w: segment %s starts at LSN %d, want %d",
					ErrCorrupt, filepath.Base(s.path), res.firstLSN, wantLSN)
			}
			if res.truncate >= 0 {
				l.recovery.TruncatedBytes += s.size - res.truncate
				if err := truncateFile(l.fs, s.path, res.truncate); err != nil {
					return nil, err
				}
				s.size = res.truncate
			}
			s.firstLSN = res.firstLSN
			s.records = res.records
			l.segs = append(l.segs, *s)
			wantLSN = res.firstLSN + res.records
			l.nextLSN = wantLSN
		}
		if l.f == nil { // no reset path taken: open the final segment for appends
			tail := &l.segs[len(l.segs)-1]
			f, err := l.fs.OpenFile(tail.path, os.O_RDWR, 0o644)
			if err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			if _, err := f.Seek(tail.size, io.SeekStart); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: %w", err)
			}
			l.f = f
			// Everything scanned is verified on disk: that is the durable
			// point appends (and a later Heal) measure from.
			l.syncedSize, l.syncedRecs, l.syncedLSN = tail.size, tail.records, l.nextLSN
		}
	}

	l.recovery.Segments = len(l.segs)
	for _, s := range l.segs {
		l.recovery.Records += s.records
	}
	if l.recovery.Records > 0 {
		l.recovery.FirstLSN = l.segs[0].firstLSN
		l.recovery.LastLSN = l.nextLSN - 1
	}
	mSegments.Set(float64(len(l.segs)))
	mRecoveryTruncated.Set(float64(l.recovery.TruncatedBytes))

	if opts.Policy == SyncInterval {
		l.tickDone = make(chan struct{})
		l.tickWG.Add(1)
		go l.flushLoop()
	}
	return l, nil
}

// Recovery reports what Open found (and repaired) on disk.
func (l *Log) Recovery() RecoveryInfo { return l.recovery }

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// LastLSN returns the newest assigned LSN (0 when the log is empty).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Err returns the sticky error, if the log has degraded.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Replay streams every surviving record, oldest first, to fn. Replay reads
// from disk (segments were validated by Open); call it before the first
// Append. A non-nil error from fn aborts the replay.
func (l *Log) Replay(fn func(Record) error) error {
	return l.ReplayProgress(fn, nil)
}

// ReplayProgress is Replay with a per-segment progress callback: onSeg(done,
// total) fires after each segment finishes, so a serving layer can report
// how far recovery has come.
func (l *Log) ReplayProgress(fn func(Record) error, onSeg func(done, total int)) error {
	l.mu.Lock()
	segs := append([]segmentInfo(nil), l.segs...)
	l.mu.Unlock()
	for i, s := range segs {
		res, err := scanSegment(l.fs, s.path, i == len(segs)-1, fn, nil)
		if err != nil {
			return err
		}
		if res.reset || res.truncate >= 0 {
			// Open already repaired the tail; new damage means the disk is
			// changing under us.
			return fmt.Errorf("%w: segment %s changed since open", ErrCorrupt, filepath.Base(s.path))
		}
		if onSeg != nil {
			onSeg(i+1, len(segs))
		}
	}
	return nil
}

// Append frames the entries and writes them to the live segment as one
// contiguous write, assigning consecutive LSNs; under SyncAlways the frames
// are fsynced before Append returns. Returns the LSN of the first entry.
// After any write or sync failure the log is sticky-degraded: every further
// Append returns the original error.
func (l *Log) Append(entries ...Entry) (uint64, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	size := 0
	for _, e := range entries {
		size += frameHdr + 1 + len(e.Payload)
	}
	buf := make([]byte, 0, size)
	for _, e := range entries {
		buf = chksum.AppendFrame(buf, byte(e.Type), e.Payload)
	}
	if _, err := l.f.Write(buf); err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
		return 0, l.err
	}
	first := l.nextLSN
	l.nextLSN += uint64(len(entries))
	tail := &l.segs[len(l.segs)-1]
	tail.records += uint64(len(entries))
	tail.size += int64(len(buf))
	mAppendedRecords.Add(int64(len(entries)))
	mAppendedBytes.Add(int64(len(buf)))

	switch l.opts.Policy {
	case SyncAlways:
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	case SyncInterval:
		l.dirty = true
	}
	if tail.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return first, nil
}

// Sync flushes the live segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.err != nil {
		return l.err
	}
	return l.syncLocked()
}

// syncLocked fsyncs the live segment, feeding the fsync metrics and turning
// a failure into the sticky degraded state. Caller holds l.mu.
func (l *Log) syncLocked() error {
	start := time.Now()
	err := l.f.Sync()
	mFsyncSeconds.ObserveSince(start)
	mFsyncs.Inc()
	l.dirty = false
	if err != nil {
		mFsyncErrors.Inc()
		l.err = fmt.Errorf("wal: fsync: %w", err)
		if l.opts.OnSyncError != nil {
			l.opts.OnSyncError(l.err)
		}
		return l.err
	}
	tail := &l.segs[len(l.segs)-1]
	l.syncedSize, l.syncedRecs, l.syncedLSN = tail.size, tail.records, l.nextLSN
	return nil
}

// rotateLocked seals the live segment (fsync + close) and starts the next
// one. The new segment is made durable (file header fsynced, then the
// directory) before appends move over, so a crash between the two leaves
// either the sealed old tail or a valid empty successor — never a
// half-registered file with acknowledged records.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		l.err = fmt.Errorf("wal: seal segment: %w", err)
		return l.err
	}
	seq := l.segs[len(l.segs)-1].seq + 1
	if err := l.createSegment(seq, l.nextLSN); err != nil {
		l.err = err
		return err
	}
	return nil
}

// createSegment creates and registers segment seq starting at firstLSN,
// leaving it as the live append target. Caller holds l.mu (or is Open).
func (l *Log) createSegment(seq, firstLSN uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("wal-%08d.log", seq))
	f, err := l.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], firstLSN)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.fs, l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segs = append(l.segs, segmentInfo{
		seq: seq, path: path, firstLSN: firstLSN, size: headerSize,
	})
	l.nextLSN = firstLSN
	l.syncedSize, l.syncedRecs, l.syncedLSN = headerSize, 0, firstLSN
	mSegments.Set(float64(len(l.segs)))
	return nil
}

// TruncateBefore removes whole sealed segments every record of which has
// LSN < lsn — the log-trimming step after a snapshot. The live segment is
// never removed. Returns the number of segment files deleted.
func (l *Log) TruncateBefore(lsn uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.segs) > 1 {
		s := l.segs[0]
		if s.firstLSN+s.records > lsn { // segment still holds a needed record
			break
		}
		if err := l.fs.Remove(s.path); err != nil {
			return removed, fmt.Errorf("wal: truncate: %w", err)
		}
		l.segs = l.segs[1:]
		removed++
	}
	if removed > 0 {
		if err := syncDir(l.fs, l.dir); err != nil {
			return removed, err
		}
		mSegments.Set(float64(len(l.segs)))
	}
	return removed, nil
}

// SegmentRef is one on-disk segment, as seen by the scrubber and the
// reclaimable-space accounting.
type SegmentRef struct {
	Path     string
	Seq      uint64
	FirstLSN uint64
	Records  uint64
	Size     int64
}

// SealedSegments returns every segment except the live tail — the files
// whose content is final and whose CRCs a background scrubber may re-verify
// at any time. A segment may be removed by TruncateBefore after this
// returns; scrubbers treat a vanished file as pruned, not damaged.
func (l *Log) SealedSegments() []SegmentRef {
	l.mu.Lock()
	defer l.mu.Unlock()
	refs := make([]SegmentRef, 0, len(l.segs)-1)
	for _, s := range l.segs[:len(l.segs)-1] {
		refs = append(refs, SegmentRef{
			Path: s.path, Seq: s.seq, FirstLSN: s.firstLSN, Records: s.records, Size: s.size,
		})
	}
	return refs
}

// FirstLSN returns the first LSN the log can still serve — the oldest
// retained segment's base. Recovery uses it to refuse a snapshot-to-log gap
// (a snapshot older than the log's history cannot be replayed forward).
func (l *Log) FirstLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0].firstLSN
}

// SizeBytes returns the total on-disk size of all retained segments.
func (l *Log) SizeBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for _, s := range l.segs {
		total += s.size
	}
	return total
}

// ReclaimableBefore reports how many on-disk bytes TruncateBefore(lsn) would
// free — sealed segments every record of which has LSN < lsn — and publishes
// the value as the tea_wal_reclaimable_bytes gauge.
func (l *Log) ReclaimableBefore(lsn uint64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for _, s := range l.segs[:len(l.segs)-1] {
		if s.firstLSN+s.records > lsn {
			break
		}
		total += s.size
	}
	mReclaimable.Set(float64(total))
	return total
}

// Heal attempts to clear the sticky error state after the operator resolved
// the underlying fault (freed disk space, remounted the device). It rolls
// the live segment back to the durable point — everything past the last
// successful fsync is truncated away; those bytes were never acknowledged
// under SyncAlways, and under interval/never policies losing them is the
// same contract a crash already imposes (callers re-anchor durability with a
// snapshot immediately after a successful Heal). A fresh file handle is
// opened because a descriptor that saw an fsync failure cannot be trusted to
// retry one. The device is then probed with a no-op record through the
// normal append + fsync path; only a durable probe clears the error.
func (l *Log) Heal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err == nil {
		return nil
	}
	tail := &l.segs[len(l.segs)-1]
	f, err := l.fs.OpenFile(tail.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: heal: %w", err)
	}
	fail := func(err error) error {
		f.Close()
		return fmt.Errorf("wal: heal: %w", err)
	}
	if err := f.Truncate(l.syncedSize); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if _, err := f.Seek(l.syncedSize, io.SeekStart); err != nil {
		return fail(err)
	}
	if err := syncDir(l.fs, l.dir); err != nil {
		return fail(err)
	}
	old := l.f
	l.f = f
	old.Close()
	if rolled := tail.records - l.syncedRecs; rolled > 0 {
		mHealRolledBack.Add(int64(rolled))
	}
	tail.size = l.syncedSize
	tail.records = l.syncedRecs
	l.nextLSN = l.syncedLSN
	l.err = nil
	l.dirty = false

	// Probe: a no-op record through the normal append + fsync path. Failure
	// re-degrades the log (sticky again) and the next Heal retries.
	buf := chksum.AppendFrame(nil, byte(RecNoop), nil)
	if _, err := l.f.Write(buf); err != nil {
		l.err = fmt.Errorf("wal: heal probe: %w", err)
		return l.err
	}
	l.nextLSN++
	tail.records++
	tail.size += int64(len(buf))
	if err := l.syncLocked(); err != nil {
		return l.err
	}
	mHeals.Inc()
	return nil
}

// Close flushes and closes the log. Safe to call twice.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	var err error
	if l.err == nil && l.dirty {
		err = l.syncLocked()
	}
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	done := l.tickDone
	l.mu.Unlock()
	if done != nil {
		close(done)
		l.tickWG.Wait()
	}
	return err
}

// Crash abandons the log without flushing — the file descriptors close but
// nothing is synced. It exists so crash-recovery tests (and operators
// simulating failures) can reopen a directory exactly as a killed process
// would have left it.
func (l *Log) Crash() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		l.f.Close()
	}
	done := l.tickDone
	l.tickDone = nil
	l.mu.Unlock()
	if done != nil {
		close(done)
		l.tickWG.Wait()
	}
}

// flushLoop is the SyncInterval background flusher.
func (l *Log) flushLoop() {
	defer l.tickWG.Done()
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.tickDone:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.err == nil && l.dirty {
				l.syncLocked() // sticky error recorded; OnSyncError notified
			}
			l.mu.Unlock()
		}
	}
}

// scanResult is one segment's verdict.
type scanResult struct {
	firstLSN uint64
	records  uint64
	truncate int64 // >= 0: torn tail, truncate the file to this size
	reset    bool  // header unusable on the final segment: rebuild empty
}

// scanSegment validates one segment file frame by frame. When fn is non-nil
// every valid record is delivered to it. last marks the final segment — the
// only place a torn tail is legal; everywhere else damage is ErrCorrupt.
// bill, when non-nil, is called with each chunk's byte count so a
// rate-limited scrubber can pace the read; a non-nil return aborts the scan.
func scanSegment(fsys vfs.FS, path string, last bool, fn func(Record) error, bill func(int) error) (scanResult, error) {
	res := scanResult{truncate: -1}
	f, err := vfs.Open(fsys, path)
	if err != nil {
		return res, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return res, fmt.Errorf("wal: %w", err)
	}
	size := st.Size()

	var hdr [headerSize]byte
	if size < headerSize {
		if last {
			res.reset = true
			return res, nil
		}
		return res, fmt.Errorf("%w: segment %s: short header", ErrCorrupt, filepath.Base(path))
	}
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return res, fmt.Errorf("wal: %w", err)
	}
	if bill != nil {
		if err := bill(headerSize); err != nil {
			return res, err
		}
	}
	if [8]byte(hdr[:8]) != segMagic {
		if last {
			res.reset = true
			return res, nil
		}
		return res, fmt.Errorf("%w: segment %s: bad magic %x", ErrCorrupt, filepath.Base(path), hdr[:8])
	}
	res.firstLSN = binary.LittleEndian.Uint64(hdr[8:])

	torn := func(off int64) (scanResult, error) {
		if !last {
			return res, fmt.Errorf("%w: sealed segment %s damaged at offset %d",
				ErrCorrupt, filepath.Base(path), off)
		}
		res.truncate = off
		return res, nil
	}

	off := int64(headerSize)
	buf := make([]byte, 0, 4096)
	for off < size {
		if size-off < frameHdr {
			return torn(off)
		}
		// A length past end-of-file is refused by the cap, unread.
		body, nbuf, err := chksum.ReadFrame(f, buf, uint32(min(maxFrame, size-off-frameHdr)))
		buf = nbuf
		if errors.Is(err, chksum.ErrFrameLength) {
			return torn(off)
		}
		if err != nil && !errors.Is(err, chksum.ErrFrameSum) {
			return res, fmt.Errorf("wal: %w", err)
		}
		if bill != nil {
			if err := bill(frameHdr + len(body)); err != nil {
				return res, err
			}
		}
		frameEnd := off + frameHdr + int64(len(body))
		if err != nil {
			if frameEnd == size {
				// Garbled final frame with nothing after it: torn write.
				return torn(off)
			}
			// Valid data follows a bad frame: acknowledged history is
			// damaged in place. Never repaired silently.
			return res, fmt.Errorf("%w: segment %s: bad frame CRC at offset %d with %d bytes following",
				ErrCorrupt, filepath.Base(path), off, size-frameEnd)
		}
		if fn != nil {
			rec := Record{
				Type:    RecordType(body[0]),
				LSN:     res.firstLSN + res.records,
				Payload: append([]byte(nil), body[1:]...),
			}
			if err := fn(rec); err != nil {
				return res, err
			}
		}
		res.records++
		off = frameEnd
	}
	return res, nil
}

// listSegments enumerates dir's wal-NNNNNNNN.log files in sequence order,
// verifying the numbering is gapless.
func listSegments(fsys vfs.FS, dir string) ([]segmentInfo, error) {
	names, err := fsys.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segmentInfo
	for _, p := range names {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "wal-%d.log", &seq); err != nil || seq == 0 {
			continue // foreign file; leave it alone
		}
		st, err := fsys.Stat(p)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		segs = append(segs, segmentInfo{seq: seq, path: p, size: st.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	for i := 1; i < len(segs); i++ {
		if segs[i].seq != segs[i-1].seq+1 {
			return nil, fmt.Errorf("%w: segment sequence gap: %s then %s",
				ErrCorrupt, filepath.Base(segs[i-1].path), filepath.Base(segs[i].path))
		}
	}
	return segs, nil
}

// VerifySegment re-reads a sealed segment and verifies every frame CRC — the
// scrubber's check for latent damage (bit rot, lost writes) in acknowledged
// history. bill, when non-nil, paces the read (see scanSegment). Returns
// ErrCorrupt-wrapped errors on damage; a missing file surfaces as the
// underlying not-exist error so callers can treat pruned segments as gone,
// not damaged.
func VerifySegment(fsys vfs.FS, path string, bill func(int) error) error {
	if fsys == nil {
		fsys = vfs.OS
	}
	res, err := scanSegment(fsys, path, false, nil, bill)
	if err != nil {
		return err
	}
	if res.reset || res.truncate >= 0 {
		return fmt.Errorf("%w: sealed segment %s has a torn tail", ErrCorrupt, filepath.Base(path))
	}
	return nil
}

// truncateFile truncates path to size and syncs the result.
func truncateFile(fsys vfs.FS, path string, size int64) error {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so renames and file creations are durable.
func syncDir(fsys vfs.FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

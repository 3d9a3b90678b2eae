// Package ooc implements TEA's out-of-core execution mode (§4.1, §5.6): the
// sampling indices live in a file-backed block store, only the trunk
// prefix-sum arrays stay in memory, and every step fetches one trunk's
// payload (O(trunkSize) I/O) — against a GraphWalker-style baseline that must
// load all D candidate edges per step (O(D) I/O).
//
// The paper's testbed is a 1 TB SATA SSD. We substitute a real temp file plus
// exact byte/operation accounting and a calibrated cost model, because the
// experimental effect of Figure 14 is I/O *volume*, which we measure
// precisely (see DESIGN.md, substitutions).
package ooc

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"github.com/tea-graph/tea/internal/metrics"
)

// Out-of-core metric families, registered eagerly so /metrics shows them (at
// zero) before the first disk-backed run. Reads dominate the mode's cost, so
// they get a block-fetch latency histogram on top of the volume counters;
// retry and injected-fault counters are fed from cache.go and fault.go.
var (
	mReads       = metrics.Default.Counter("tea_ooc_reads_total")
	mReadBytes   = metrics.Default.Counter("tea_ooc_read_bytes_total")
	mReadSeconds = metrics.Default.Histogram("tea_ooc_block_fetch_seconds")
	mWrites      = metrics.Default.Counter("tea_ooc_writes_total")
	mWriteBytes  = metrics.Default.Counter("tea_ooc_written_bytes_total")
	mRetries     = metrics.Default.Counter("tea_ooc_read_retries_total")
	mInjected    = metrics.Default.Counter("tea_ooc_injected_faults_total")
	// mBatchCoalesced counts draws served from a batched sampler's one-entry
	// block memo instead of the store — the deliberate same-vertex
	// coalescing the grouped frontier buys (cache.go).
	mBatchCoalesced = metrics.Default.Counter("tea_ooc_batch_coalesced_total")
)

// BlockStore is the I/O contract the out-of-core samplers and engine run
// against. *Store is the real file-backed implementation and the one that
// counts device traffic (Counters, PagesRead); FaultInjector wraps any
// BlockStore to exercise failure paths. All methods must be safe for
// concurrent use.
type BlockStore interface {
	// ReadAt fills p from offset off.
	ReadAt(p []byte, off int64) error
	// WriteAt writes p at off.
	WriteAt(p []byte, off int64) error
	// Append writes p at the end of the store and returns its offset.
	Append(p []byte) (int64, error)
}

// Store is a file-backed block store with read/write accounting. All methods
// are safe for concurrent use.
type Store struct {
	f            *os.File
	path         string
	removeOnStop bool

	// end is the store's logical end offset, maintained by CAS so concurrent
	// Appends reserve disjoint ranges without serializing their I/O. It
	// tracks the max extent of WriteAt as well, matching file size.
	end atomic.Int64

	bytesRead    atomic.Int64
	readOps      atomic.Int64
	pagesRead    atomic.Int64
	bytesWritten atomic.Int64
	writeOps     atomic.Int64
}

// PageSize is the device page granularity used for I/O-time modelling: a
// read of n bytes touches ⌈n/PageSize⌉ pages.
const PageSize = 4096

// NewTempStore creates a store backed by a fresh temporary file that is
// removed on Close.
func NewTempStore() (*Store, error) {
	f, err := os.CreateTemp("", "tea-ooc-*.dat")
	if err != nil {
		return nil, fmt.Errorf("ooc: creating temp store: %w", err)
	}
	return &Store{f: f, path: f.Name(), removeOnStop: true}, nil
}

// Open opens (or creates) a store at path; the file is kept on Close.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ooc: opening store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("ooc: sizing store: %w", err)
	}
	s := &Store{f: f, path: path}
	s.end.Store(st.Size())
	return s, nil
}

// Path returns the backing file path.
func (s *Store) Path() string { return s.path }

// ReadAt reads len(p) bytes at off, accounting the transfer.
func (s *Store) ReadAt(p []byte, off int64) error {
	start := time.Now()
	if _, err := s.f.ReadAt(p, off); err != nil {
		return fmt.Errorf("ooc: read %d bytes at %d: %w", len(p), off, err)
	}
	mReadSeconds.ObserveSince(start)
	s.bytesRead.Add(int64(len(p)))
	s.readOps.Add(1)
	s.pagesRead.Add(int64((len(p) + PageSize - 1) / PageSize))
	mReads.Inc()
	mReadBytes.Add(int64(len(p)))
	return nil
}

// WriteAt writes p at off, accounting the transfer and extending the logical
// end offset when the write grows the file.
func (s *Store) WriteAt(p []byte, off int64) error {
	if _, err := s.f.WriteAt(p, off); err != nil {
		return fmt.Errorf("ooc: write %d bytes at %d: %w", len(p), off, err)
	}
	s.noteEnd(off + int64(len(p)))
	s.bytesWritten.Add(int64(len(p)))
	s.writeOps.Add(1)
	mWrites.Inc()
	mWriteBytes.Add(int64(len(p)))
	return nil
}

// noteEnd raises the logical end offset to at least end.
func (s *Store) noteEnd(end int64) {
	for {
		old := s.end.Load()
		if end <= old || s.end.CompareAndSwap(old, end) {
			return
		}
	}
}

// Append writes p at the current end of the store and returns its offset.
// The end offset is reserved by CAS before the write, so concurrent
// appenders get disjoint ranges (a Seek-then-WriteAt sequence would let two
// appenders read the same end and overwrite each other's blocks). Append(nil)
// reserves nothing and reports the current end.
func (s *Store) Append(p []byte) (int64, error) {
	n := int64(len(p))
	if n == 0 {
		return s.end.Load(), nil
	}
	var off int64
	for {
		off = s.end.Load()
		if s.end.CompareAndSwap(off, off+n) {
			break
		}
	}
	if err := s.WriteAt(p, off); err != nil {
		return 0, err
	}
	return off, nil
}

// Counters reports accumulated I/O.
func (s *Store) Counters() (bytesRead, readOps, bytesWritten, writeOps int64) {
	return s.bytesRead.Load(), s.readOps.Load(), s.bytesWritten.Load(), s.writeOps.Load()
}

// PagesRead reports the device pages touched by reads: the latency unit of
// the cost model (a large sequential read is charged per page, not per call).
func (s *Store) PagesRead() int64 { return s.pagesRead.Load() }

// ResetCounters zeroes the accounting, typically between experiment phases.
func (s *Store) ResetCounters() {
	s.bytesRead.Store(0)
	s.readOps.Store(0)
	s.pagesRead.Store(0)
	s.bytesWritten.Store(0)
	s.writeOps.Store(0)
}

// Close releases the backing file, deleting it for temp stores.
func (s *Store) Close() error {
	err := s.f.Close()
	if s.removeOnStop {
		if rmErr := os.Remove(s.path); err == nil {
			err = rmErr
		}
	}
	return err
}

// CostModel converts accounted I/O into simulated device time. The defaults
// approximate the paper's SATA SSD (650 MB/s sequential reads; ~100 µs per
// random operation).
type CostModel struct {
	// PerOp is the fixed latency charged per read/write operation.
	PerOp time.Duration
	// BytesPerSecond is the sustained transfer bandwidth.
	BytesPerSecond float64
}

// DefaultSSD is the cost model of the paper's evaluation machine.
var DefaultSSD = CostModel{PerOp: 100 * time.Microsecond, BytesPerSecond: 650e6}

// ReadTime returns the simulated device time for reads that touched the
// given byte volume and page count: per-page latency plus bandwidth-limited
// transfer. Pass Store.PagesRead() as pages (or an op count for a pure
// random-access model).
func (m CostModel) ReadTime(bytes, pages int64) time.Duration {
	if m.BytesPerSecond <= 0 {
		return time.Duration(pages) * m.PerOp
	}
	transfer := time.Duration(float64(bytes) / m.BytesPerSecond * float64(time.Second))
	return transfer + time.Duration(pages)*m.PerOp
}

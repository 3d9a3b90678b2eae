package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"github.com/tea-graph/tea/internal/chksum"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/vfs"
)

// Snapshot serialization for the durable streaming graph: an exact,
// segment-level image of the in-memory structure. Unlike Snapshot() (which
// materializes an immutable temporal.Graph for the read-only engine), the
// durable snapshot preserves segment boundaries, per-edge weights, scales,
// and tombstone bitmaps verbatim, so a recovered graph is structurally
// identical to the one that wrote it — seeded walks replay the same paths,
// which is what lets the crash-recovery tests compare against a shadow
// graph exactly. Memory keeps no weights: the writer recomputes them from
// the slots, and the reader checks that the stored ones follow.

// snapMagic identifies the serialized stream snapshot ("TEA snapshot v1").
var snapMagic = [8]byte{'T', 'E', 'A', 'S', 'N', 'A', 'P', '1'}

// ErrSnapshotCorrupt is returned when a snapshot is malformed or fails its
// CRC-32C integrity footer.
var ErrSnapshotCorrupt = errors.New("stream: corrupt snapshot")

// snapMaxCount bounds any single stored count; larger values are damage.
const snapMaxCount = 1 << 31

// WriteSnapshot serializes the graph's full segment structure plus the WAL
// LSN the image covers. The payload is CRC-32C-footered (internal/chksum),
// so recovery detects torn or damaged snapshots instead of loading them.
func (g *Graph) WriteSnapshot(w io.Writer, lsn uint64) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	hw := chksum.NewWriter(bw)
	var scratch [16]byte
	wr := func(p []byte) error {
		_, err := hw.Write(p)
		return err
	}
	wu64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		return wr(scratch[:8])
	}
	if err := wr(snapMagic[:]); err != nil {
		return err
	}
	if err := wu64(lsn); err != nil {
		return err
	}
	head := []uint64{
		uint64(g.spec.Kind),
		math.Float64bits(g.spec.Lambda),
		boolU64(g.hasEdges),
		uint64(g.minTime),
		uint64(g.frontier),
		uint64(len(g.verts)),
		uint64(g.numEdges),
		uint64(g.numDeleted),
		uint64(g.maxSeg),
	}
	for _, v := range head {
		if err := wu64(v); err != nil {
			return err
		}
	}
	var buf []byte
	var err error
	for _, segs := range g.verts {
		n, dead := slots(segs)
		binary.LittleEndian.PutUint32(scratch[0:], uint32(n))
		binary.LittleEndian.PutUint32(scratch[4:], uint32(dead))
		binary.LittleEndian.PutUint32(scratch[8:], uint32(len(segs)))
		if err := wr(scratch[:12]); err != nil {
			return err
		}
		for si := len(segs) - 1; si >= 0; si-- {
			if buf, err = g.writeSegment(hw, &segs[si], buf); err != nil {
				return err
			}
		}
	}
	footer := hw.Footer()
	if err := wr(footer[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// writeSegment writes one segment record, its weights recomputed from the
// slots; buf is reusable scratch.
func (g *Graph) writeSegment(w io.Writer, s *segment, buf []byte) ([]byte, error) {
	n := s.len()
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(n))
	if s.dead != nil {
		hdr[4] = 1
	}
	binary.LittleEndian.PutUint64(hdr[8:], math.Float64bits(s.scale))
	if _, err := w.Write(hdr[:]); err != nil {
		return buf, err
	}
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.dst(i)))
	}
	if _, err := w.Write(buf); err != nil {
		return buf, err
	}
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.ts(i)))
	}
	if _, err := w.Write(buf); err != nil {
		return buf, err
	}
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.weight(g.spec, i, g.minTime)))
	}
	if _, err := w.Write(buf); err != nil {
		return buf, err
	}
	if s.dead == nil {
		return buf, nil
	}
	buf = buf[:0]
	for i := 0; i < n; i += 8 {
		buf = append(buf, byte(s.dead.bits[i/64]>>(i%64)))
	}
	_, err := w.Write(buf)
	return buf, err
}

// ReadSnapshot deserializes a snapshot written by WriteSnapshot, returning
// the reconstructed graph and the LSN it covers.
func ReadSnapshot(r io.Reader) (*Graph, uint64, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	hr := chksum.NewReader(br)
	var scratch [16]byte
	rd := func(p []byte) error {
		if _, err := io.ReadFull(hr, p); err != nil {
			return fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
		return nil
	}
	ru64 := func() (uint64, error) {
		if err := rd(scratch[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:8]), nil
	}
	if err := rd(scratch[:8]); err != nil {
		return nil, 0, err
	}
	if [8]byte(scratch[:8]) != snapMagic {
		return nil, 0, fmt.Errorf("%w: bad magic %x", ErrSnapshotCorrupt, scratch[:8])
	}
	lsn, err := ru64()
	if err != nil {
		return nil, 0, err
	}
	var head [9]uint64
	for i := range head {
		if head[i], err = ru64(); err != nil {
			return nil, 0, err
		}
	}
	numVerts := int(head[5])
	if numVerts < 0 || numVerts > snapMaxCount || numVerts > maxVertexID+1 {
		return nil, 0, fmt.Errorf("%w: vertex count %d", ErrSnapshotCorrupt, numVerts)
	}
	if head[8] > math.MaxInt32 {
		return nil, 0, fmt.Errorf("%w: largest segment %d", ErrSnapshotCorrupt, head[8])
	}
	if head[0] > uint64(sampling.WeightExponential) {
		return nil, 0, fmt.Errorf("%w: weight kind %d", ErrSnapshotCorrupt, head[0])
	}
	g := &Graph{
		spec:       sampling.WeightSpec{Kind: sampling.WeightKind(head[0]), Lambda: math.Float64frombits(head[1])},
		hasEdges:   head[2] != 0,
		minTime:    temporal.Time(head[3]),
		frontier:   temporal.Time(head[4]),
		numEdges:   int(head[6]),
		numDeleted: int(head[7]),
		maxSeg:     int(head[8]),
	}
	// Every table grows as its records arrive, never from a stored count,
	// so a damaged count fails at the end of the data instead of asking for
	// gigabytes before the CRC is checked.
	var buf []byte
	largest, live, tombs := 0, 0, 0
	for u := 0; u < numVerts; u++ {
		if err := rd(scratch[:12]); err != nil {
			return nil, 0, err
		}
		degree := int(binary.LittleEndian.Uint32(scratch[0:]))
		deleted := int(binary.LittleEndian.Uint32(scratch[4:]))
		segCount := int(binary.LittleEndian.Uint32(scratch[8:]))
		var segs []segment
		for si := 0; si < segCount; si++ {
			var s segment
			if buf, err = g.readSegment(hr, &s, buf); err != nil {
				return nil, 0, err
			}
			segs = append(segs, s)
			largest = max(largest, s.len())
		}
		n, dead := slots(segs)
		if n != degree || dead != deleted {
			return nil, 0, fmt.Errorf("%w: vertex %d counts %d slots, %d deleted; its segments hold %d, %d", ErrSnapshotCorrupt, u, degree, deleted, n, dead)
		}
		live += n - dead
		tombs += dead
		slices.Reverse(segs) // the file lists segments oldest first
		g.verts = append(g.verts, segs)
	}
	if _, err := hr.Verify(br); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	if live != g.numEdges || tombs != g.numDeleted {
		return nil, 0, fmt.Errorf("%w: %d edges, %d deleted recorded; the segments hold %d, %d", ErrSnapshotCorrupt, g.numEdges, g.numDeleted, live, tombs)
	}
	// maxSeg records the largest segment ever built, which expiry and
	// compaction may since have dropped; it never sizes an allocation.
	if g.maxSeg < largest {
		return nil, 0, fmt.Errorf("%w: largest segment %d, recorded %d", ErrSnapshotCorrupt, largest, g.maxSeg)
	}
	g.aux = auxFor(nil, largest)
	return g, lsn, nil
}

// readSegment reads one segment record into s, rebuilding its HPAT block
// from the stored slots. The stored weights must be the ones the slots
// imply; buf is reusable scratch.
func (g *Graph) readSegment(r io.Reader, s *segment, buf []byte) ([]byte, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, fmt.Errorf("%w: segment header: %v", ErrSnapshotCorrupt, err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:]))
	if n <= 0 || n > math.MaxInt32 {
		return buf, fmt.Errorf("%w: segment length %d", ErrSnapshotCorrupt, n)
	}
	hasDead := hdr[4] == 1
	deadBytes := 0
	if hasDead {
		deadBytes = (n + 7) / 8
	}
	buf, err := readGrowing(r, buf[:0], 20*n+deadBytes)
	if err != nil {
		return buf, fmt.Errorf("%w: segment of %d edges: %v", ErrSnapshotCorrupt, n, err)
	}
	dsts, times, weights, dead := buf[:4*n], buf[4*n:12*n], buf[12*n:20*n], buf[20*n:]
	rank := 0
	if g.spec.Kind == sampling.WeightLinearRank {
		r := math.Float64frombits(binary.LittleEndian.Uint64(weights)) - float64(n)
		if !(r >= 0 && r <= math.MaxInt32 && r == math.Trunc(r)) {
			return buf, fmt.Errorf("%w: rank weight %v for a %d-edge segment", ErrSnapshotCorrupt, r+float64(n), n)
		}
		rank = int(r)
	}
	*s = newSegment(n, rank)
	s.scale = math.Float64frombits(binary.LittleEndian.Uint64(hdr[8:]))
	for i := 0; i < n; i++ {
		dst := temporal.Vertex(binary.LittleEndian.Uint32(dsts[4*i:]))
		if dst > maxVertexID {
			return buf, fmt.Errorf("%w: slot %d names vertex %d, above %d", ErrSnapshotCorrupt, i, dst, maxVertexID)
		}
		s.put(i, dst, temporal.Time(binary.LittleEndian.Uint64(times[8*i:])))
	}
	g.finish(s, g.minTime)
	for i := 0; i < n; i++ {
		if binary.LittleEndian.Uint64(weights[8*i:]) != math.Float64bits(s.weight(g.spec, i, g.minTime)) {
			return buf, fmt.Errorf("%w: slot %d weight does not follow from its time", ErrSnapshotCorrupt, i)
		}
	}
	if hasDead {
		d := &tombstones{bits: make([]uint64, (n+63)/64)}
		for i, b := range dead {
			d.bits[i/8] |= uint64(b) << (8 * (i % 8))
		}
		if tail := n % 64; tail != 0 && d.bits[len(d.bits)-1]>>tail != 0 {
			return buf, fmt.Errorf("%w: tombstones past the segment end", ErrSnapshotCorrupt)
		}
		for _, w := range d.bits {
			d.count += bits.OnesCount64(w)
		}
		s.dead = d
	}
	return buf, nil
}

// readGrowing appends want bytes from r to buf, growing it only as the data
// arrives: a count larger than what follows costs at most twice the bytes
// actually read.
func readGrowing(r io.Reader, buf []byte, want int) ([]byte, error) {
	for len(buf) < want {
		chunk := min(want-len(buf), max(len(buf), 1<<16))
		buf = slices.Grow(buf, chunk)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+chunk]); err != nil {
			return buf, err
		}
		buf = buf[:len(buf)+chunk]
	}
	return buf, nil
}

// WriteSnapshotFile writes the snapshot atomically on the real filesystem;
// see WriteSnapshotFileFS.
func WriteSnapshotFile(path string, g *Graph, lsn uint64) error {
	return WriteSnapshotFileFS(vfs.OS, path, g, lsn)
}

// WriteSnapshotFileFS writes the snapshot atomically (vfs.ReplaceFile): a
// crash mid-write leaves the previous snapshot intact. The temp file is
// named .snapshot-*, the pattern recovery sweeps.
func WriteSnapshotFileFS(fsys vfs.FS, path string, g *Graph, lsn uint64) error {
	if fsys == nil {
		fsys = vfs.OS
	}
	err := vfs.ReplaceFile(fsys, path, ".snapshot-*", func(w io.Writer) error {
		return g.WriteSnapshot(w, lsn)
	})
	if err != nil {
		return fmt.Errorf("stream: snapshot: %w", err)
	}
	return nil
}

// ReadSnapshotFile loads a snapshot written by WriteSnapshotFile.
func ReadSnapshotFile(path string) (*Graph, uint64, error) {
	return ReadSnapshotFileFS(vfs.OS, path)
}

// ReadSnapshotFileFS loads a snapshot from fsys.
func ReadSnapshotFileFS(fsys vfs.FS, path string) (*Graph, uint64, error) {
	if fsys == nil {
		fsys = vfs.OS
	}
	f, err := vfs.Open(fsys, path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// SnapshotFileLSN reads just the header of a snapshot file and returns the
// WAL LSN it claims to cover, without deserializing (or verifying) the body.
// Recovery uses it to order legacy unnumbered snapshots among generations.
func SnapshotFileLSN(fsys vfs.FS, path string) (uint64, error) {
	if fsys == nil {
		fsys = vfs.OS
	}
	f, err := vfs.Open(fsys, path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [16]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	if [8]byte(hdr[:8]) != snapMagic {
		return 0, fmt.Errorf("%w: bad magic %x", ErrSnapshotCorrupt, hdr[:8])
	}
	return binary.LittleEndian.Uint64(hdr[8:]), nil
}

// VerifySnapshotFile re-reads a snapshot and checks its magic and CRC-32C
// footer without rebuilding the graph — the scrubber's integrity pass. bill,
// when non-nil, is called with each chunk's byte count so the read can be
// rate-limited; a non-nil return aborts. Returns the covered LSN.
func VerifySnapshotFile(fsys vfs.FS, path string, bill func(int) error) (uint64, error) {
	if fsys == nil {
		fsys = vfs.OS
	}
	f, err := vfs.Open(fsys, path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	body := st.Size() - chksum.FooterSize
	if body < 16 {
		return 0, fmt.Errorf("%w: %d bytes is too short", ErrSnapshotCorrupt, st.Size())
	}
	hr := chksum.NewReader(io.LimitReader(f, body))
	var hdr [16]byte
	if _, err := io.ReadFull(hr, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	if [8]byte(hdr[:8]) != snapMagic {
		return 0, fmt.Errorf("%w: bad magic %x", ErrSnapshotCorrupt, hdr[:8])
	}
	lsn := binary.LittleEndian.Uint64(hdr[8:])
	if bill != nil {
		if err := bill(len(hdr)); err != nil {
			return 0, err
		}
	}
	buf := make([]byte, 256<<10)
	for {
		n, err := hr.Read(buf)
		if n > 0 && bill != nil {
			if berr := bill(n); berr != nil {
				return 0, berr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
	}
	if _, err := hr.Verify(f); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	return lsn, nil
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

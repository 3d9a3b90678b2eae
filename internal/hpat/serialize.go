package hpat

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/tea-graph/tea/internal/chksum"
	"github.com/tea-graph/tea/internal/temporal"
)

// indexMagic identifies the serialized HPAT format ("TEAI" + version 3:
// the block arena as one section, offsets derived on load).
var indexMagic = [8]byte{'T', 'E', 'A', 'I', 0, 0, 0, 3}

// ErrIndexFormat is returned for malformed serialized indices, including
// files of an older format version.
var ErrIndexFormat = errors.New("hpat: malformed serialized index")

// ErrIndexCorrupt is returned when a serialized index parses but its
// CRC-32C integrity footer is missing or does not match.
var ErrIndexCorrupt = errors.New("hpat: corrupt serialized index")

// ErrIndexMismatch is returned when a serialized index does not match the
// graph it is being attached to.
var ErrIndexMismatch = errors.New("hpat: serialized index does not match graph")

// WriteIndex serializes idx so preprocessing can be done once and reused
// across runs: a 33-byte header (magic, vertex, edge and word counts, and
// whether the auxiliary index is on), the block arena as one
// length-prefixed section, then the CRC-32C footer. The auxiliary index is
// not stored — it depends only on the maximum degree and is rebuilt on load
// faster than it can be read from disk.
func WriteIndex(w io.Writer, idx *Index) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	hw := chksum.NewWriter(bw)
	cw := &countingWriter{w: hw}
	var hdr [33]byte
	copy(hdr[:], indexMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(idx.g.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(idx.g.NumEdges()))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(idx.words)))
	if idx.aux != nil {
		hdr[32] = 1
	}
	if _, err := cw.Write(hdr[:]); err != nil {
		return cw.n, err
	}
	if err := writeWords(cw, idx.words); err != nil {
		return cw.n, err
	}
	footer := hw.Footer()
	if _, err := cw.Write(footer[:]); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadIndex deserializes an index produced by WriteIndex and attaches it to
// g, which must be the same graph (vertex and edge counts are verified; the
// block offsets are then recomputed from the degrees and must add up to the
// stored word count).
func ReadIndex(r io.Reader, g *temporal.Graph) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	hr := chksum.NewReader(br)
	var hdr [33]byte
	if _, err := io.ReadFull(hr, hdr[:8]); err != nil {
		return nil, fmt.Errorf("%w: magic: %v", ErrIndexFormat, err)
	}
	if !bytes.Equal(hdr[:7], indexMagic[:7]) {
		return nil, fmt.Errorf("%w: bad magic %x", ErrIndexFormat, hdr[:8])
	}
	if hdr[7] != indexMagic[7] {
		return nil, fmt.Errorf("%w: format version %d, rebuild with SaveIndex", ErrIndexFormat, hdr[7])
	}
	if _, err := io.ReadFull(hr, hdr[8:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrIndexFormat, err)
	}
	numV := int(binary.LittleEndian.Uint64(hdr[8:]))
	numE := int(binary.LittleEndian.Uint64(hdr[16:]))
	words := binary.LittleEndian.Uint64(hdr[24:])
	if numV != g.NumVertices() || numE != g.NumEdges() {
		return nil, fmt.Errorf("%w: stored V=%d E=%d, graph V=%d E=%d",
			ErrIndexMismatch, numV, numE, g.NumVertices(), g.NumEdges())
	}
	idx := newLayout(g)
	if uint64(idx.off[numV]) != words {
		return nil, fmt.Errorf("%w: layout mismatch (words %d vs %d)", ErrIndexMismatch, idx.off[numV], words)
	}
	idx.words = make([]uint64, words)
	if err := readWords(hr, idx.words); err != nil {
		return nil, err
	}
	// The footer is read from br directly so its bytes stay out of the sum.
	if legacy, err := hr.Verify(br); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrIndexCorrupt, err)
	} else if legacy {
		return nil, fmt.Errorf("%w: no integrity footer", ErrIndexCorrupt)
	}
	if hdr[32] != 0 {
		idx.aux = BuildAuxIndex(g.MaxDegree(), 0)
	}
	return idx, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

// Write implements io.Writer, tracking the byte total.
func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

const chunkElems = 8192

// writeWords writes arr as a length header and little-endian 8-byte words.
func writeWords(w io.Writer, arr []uint64) error {
	var lenHdr [8]byte
	binary.LittleEndian.PutUint64(lenHdr[:], uint64(len(arr)))
	if _, err := w.Write(lenHdr[:]); err != nil {
		return err
	}
	buf := make([]byte, chunkElems*8)
	for off := 0; off < len(arr); off += chunkElems {
		chunk := arr[off:min(off+chunkElems, len(arr))]
		for i, v := range chunk {
			binary.LittleEndian.PutUint64(buf[8*i:], v)
		}
		if _, err := w.Write(buf[:8*len(chunk)]); err != nil {
			return err
		}
	}
	return nil
}

// readWords fills arr from the form writeWords produces; the stored length
// must be len(arr).
func readWords(r io.Reader, arr []uint64) error {
	var lenHdr [8]byte
	if _, err := io.ReadFull(r, lenHdr[:]); err != nil {
		return fmt.Errorf("%w: array header: %v", ErrIndexFormat, err)
	}
	if n := binary.LittleEndian.Uint64(lenHdr[:]); n != uint64(len(arr)) {
		return fmt.Errorf("%w: array length %d, want %d", ErrIndexFormat, n, len(arr))
	}
	buf := make([]byte, chunkElems*8)
	for off := 0; off < len(arr); off += chunkElems {
		chunk := arr[off:min(off+chunkElems, len(arr))]
		b := buf[:8*len(chunk)]
		if _, err := io.ReadFull(r, b); err != nil {
			return fmt.Errorf("%w: array body: %v", ErrIndexFormat, err)
		}
		for i := range chunk {
			chunk[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
	return nil
}

package hpat

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/tea-graph/tea/internal/chksum"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
)

// indexMagic identifies the serialized HPAT format ("TEAI" + version 2:
// packed 8-byte slots from minTableLevel up, offsets derived on load).
var indexMagic = [8]byte{'T', 'E', 'A', 'I', 0, 0, 0, 2}

// ErrIndexFormat is returned for malformed serialized indices, including
// files of an older format version.
var ErrIndexFormat = errors.New("hpat: malformed serialized index")

// ErrIndexCorrupt is returned when a serialized index parses but its
// CRC-32C integrity footer is missing or does not match.
var ErrIndexCorrupt = errors.New("hpat: corrupt serialized index")

// ErrIndexMismatch is returned when a serialized index does not match the
// graph it is being attached to.
var ErrIndexMismatch = errors.New("hpat: serialized index does not match graph")

// WriteTo serializes the index (including the per-edge weights it samples
// from) so preprocessing can be done once and reused across runs. The
// auxiliary index is not stored — it depends only on the maximum degree and
// is rebuilt on load faster than it can be read from disk.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	hw := chksum.NewWriter(bw)
	cw := &countingWriter{w: hw}
	var hdr [33]byte
	copy(hdr[:], indexMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(idx.g.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(idx.g.NumEdges()))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(idx.slots)))
	if idx.aux != nil {
		hdr[32] = 1
	}
	if _, err := cw.Write(hdr[:]); err != nil {
		return cw.n, err
	}
	for _, arr := range [][]float64{idx.weights.Flat, idx.cum} {
		if err := writeWords(cw, arr, math.Float64bits); err != nil {
			return cw.n, err
		}
	}
	if err := writeWords(cw, idx.slots, wordBits); err != nil {
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

// ReadIndex deserializes an index produced by WriteTo and attaches it to g,
// which must be the same graph (vertex and edge counts are verified; the
// layout is then recomputed and must match the stored slot count).
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
	slots := int64(binary.LittleEndian.Uint64(hdr[24:]))
	if numV != g.NumVertices() || numE != g.NumEdges() {
		return nil, fmt.Errorf("%w: stored V=%d E=%d, graph V=%d E=%d",
			ErrIndexMismatch, numV, numE, g.NumVertices(), g.NumEdges())
	}
	idx := newLayout(g)
	if idx.slotOff[numV] != slots {
		return nil, fmt.Errorf("%w: layout mismatch (slots %d vs %d)", ErrIndexMismatch, idx.slotOff[numV], slots)
	}

	flat := make([]float64, numE)
	if err := readWords(hr, flat, math.Float64frombits); err != nil {
		return nil, err
	}
	idx.weights = sampling.WrapGraphWeights(g, flat)
	idx.cum = make([]float64, numE+numV)
	if err := readWords(hr, idx.cum, math.Float64frombits); err != nil {
		return nil, err
	}
	idx.slots = make([]uint64, slots)
	if err := readWords(hr, idx.slots, wordBits); err != nil {
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

// wordBits is the conversion writeWords and readWords take for []uint64.
func wordBits(v uint64) uint64 { return v }

// writeWords writes arr as a length header and little-endian 8-byte words.
func writeWords[T any](w io.Writer, arr []T, bits func(T) uint64) error {
	var lenHdr [8]byte
	binary.LittleEndian.PutUint64(lenHdr[:], uint64(len(arr)))
	if _, err := w.Write(lenHdr[:]); err != nil {
		return err
	}
	buf := make([]byte, chunkElems*8)
	for off := 0; off < len(arr); off += chunkElems {
		end := off + chunkElems
		if end > len(arr) {
			end = len(arr)
		}
		n := 0
		for _, v := range arr[off:end] {
			binary.LittleEndian.PutUint64(buf[n:], bits(v))
			n += 8
		}
		if _, err := w.Write(buf[:n]); err != nil {
			return err
		}
	}
	return nil
}

// readWords fills arr from the form writeWords produces; the stored length
// must be len(arr).
func readWords[T any](r io.Reader, arr []T, from func(uint64) T) error {
	var lenHdr [8]byte
	if _, err := io.ReadFull(r, lenHdr[:]); err != nil {
		return fmt.Errorf("%w: array header: %v", ErrIndexFormat, err)
	}
	if n := binary.LittleEndian.Uint64(lenHdr[:]); n != uint64(len(arr)) {
		return fmt.Errorf("%w: array length %d, want %d", ErrIndexFormat, n, len(arr))
	}
	buf := make([]byte, chunkElems*8)
	for off := 0; off < len(arr); off += chunkElems {
		end := off + chunkElems
		if end > len(arr) {
			end = len(arr)
		}
		chunk := buf[:(end-off)*8]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return fmt.Errorf("%w: array body: %v", ErrIndexFormat, err)
		}
		for i := off; i < end; i++ {
			arr[i] = from(binary.LittleEndian.Uint64(chunk[(i-off)*8:]))
		}
	}
	return nil
}

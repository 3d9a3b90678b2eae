// Package edgeio reads and writes temporal edge streams. Two formats are
// supported:
//
//   - Text: one "src dst time" triple per line (whitespace separated), '#'
//     or '%' comment lines — the format of the KONECT collection the paper
//     evaluates on.
//   - Binary: a fixed little-endian layout (magic, count, packed 16-byte
//     edge records, CRC-32C footer), roughly 6× faster to load for large
//     streams.
//
// The edge record is also the payload of the write-ahead log's edge and
// deletion batches (AppendList, DecodeList).
package edgeio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/tea-graph/tea/internal/chksum"
	"github.com/tea-graph/tea/internal/temporal"
)

// Magic identifies the binary stream format ("TEAG" + version 1).
var Magic = [8]byte{'T', 'E', 'A', 'G', 0, 0, 0, 1}

// ErrBadFormat is returned for malformed inputs.
var ErrBadFormat = errors.New("edgeio: malformed edge stream")

// ErrCorrupt is returned when a binary stream is structurally well-formed
// but fails its integrity footer — bit rot, truncation at a record boundary,
// or an interrupted write. Files written before footers existed (no trailer
// at all) are still accepted.
var ErrCorrupt = errors.New("edgeio: corrupt edge stream")

// LoadGraph reads the edge file at path with read and builds the graph. A
// nil read picks the format by name: ReadBinary for .teag and .bin, ReadText
// otherwise.
func LoadGraph(path string, read func(io.Reader) ([]temporal.Edge, error)) (*temporal.Graph, error) {
	if read == nil {
		read = ReadText
		if strings.HasSuffix(path, ".teag") || strings.HasSuffix(path, ".bin") {
			read = ReadBinary
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	edges, err := read(f)
	if err != nil {
		return nil, err
	}
	return temporal.FromEdges(edges)
}

// ReadText parses a whitespace-separated "src dst time" stream. Lines that
// are blank or start with '#' or '%' are skipped. The time column is
// optional; when missing, the line index (1-based) is used, matching the
// edge-stream convention that arrival order is time order.
func ReadText(r io.Reader) ([]temporal.Edge, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []temporal.Edge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		fields := splitFields(line)
		if len(fields) == 0 {
			continue
		}
		if c := fields[0][0]; c == '#' || c == '%' {
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("%w: line %d %q", ErrBadFormat, lineNo, line)
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d src %q: %v", ErrBadFormat, lineNo, fields[0], err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d dst %q: %v", ErrBadFormat, lineNo, fields[1], err)
		}
		t := int64(len(edges) + 1)
		if len(fields) >= 3 {
			t, err = strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d time %q: %v", ErrBadFormat, lineNo, fields[2], err)
			}
		}
		edges = append(edges, temporal.Edge{
			Src:  temporal.Vertex(src),
			Dst:  temporal.Vertex(dst),
			Time: temporal.Time(t),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("edgeio: reading text stream: %w", err)
	}
	return edges, nil
}

// splitFields splits on spaces, tabs, and commas without allocating a regexp.
func splitFields(line string) []string {
	var fields []string
	start := -1
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case ' ', '\t', ',', '\r':
			if start >= 0 {
				fields = append(fields, line[start:i])
				start = -1
			}
		default:
			if start < 0 {
				start = i
			}
		}
	}
	if start >= 0 {
		fields = append(fields, line[start:])
	}
	return fields
}

// WriteText writes edges as "src dst time" lines.
func WriteText(w io.Writer, edges []temporal.Edge) error {
	bw := bufio.NewWriter(w)
	for _, e := range edges {
		if _, err := fmt.Fprintf(bw, "%d %d %d\n", e.Src, e.Dst, e.Time); err != nil {
			return fmt.Errorf("edgeio: writing text stream: %w", err)
		}
	}
	return bw.Flush()
}

// RecordSize is the size of one packed edge record: u32 src, u32 dst,
// u64 time, little-endian. A .teag file and a logged edge batch are both
// runs of these records.
const RecordSize = 16

// chunkRecords is how many records the binary reader and writer move per
// call, and the most ReadBinary allocates before any record arrives.
const chunkRecords = 4096

// appendRecords appends the packed records of edges to buf.
func appendRecords(buf []byte, edges []temporal.Edge) []byte {
	for _, e := range edges {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Src))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Dst))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Time))
	}
	return buf
}

// decodeRecords appends the edges of the packed records in p to edges; a
// trailing partial record is ignored.
func decodeRecords(edges []temporal.Edge, p []byte) []temporal.Edge {
	for ; len(p) >= RecordSize; p = p[RecordSize:] {
		edges = append(edges, temporal.Edge{
			Src:  temporal.Vertex(binary.LittleEndian.Uint32(p[0:])),
			Dst:  temporal.Vertex(binary.LittleEndian.Uint32(p[4:])),
			Time: temporal.Time(binary.LittleEndian.Uint64(p[8:])),
		})
	}
	return edges
}

// AppendList appends a counted edge list to buf: a u32 edge count, then
// the packed records. It is the payload of a logged edge batch.
func AppendList(buf []byte, edges []temporal.Edge) []byte {
	return appendRecords(binary.LittleEndian.AppendUint32(buf, uint32(len(edges))), edges)
}

// DecodeList parses an AppendList payload; its length must match its count.
func DecodeList(p []byte) ([]temporal.Edge, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: edge list count short", ErrBadFormat)
	}
	n := int(binary.LittleEndian.Uint32(p))
	if len(p)-4 != RecordSize*n {
		return nil, fmt.Errorf("%w: edge list of %d bytes for %d edges", ErrBadFormat, len(p), n)
	}
	return decodeRecords(make([]temporal.Edge, 0, n), p[4:]), nil
}

// WriteBinary writes the packed binary format, terminated by a CRC-32C
// integrity footer over the full payload.
func WriteBinary(w io.Writer, edges []temporal.Edge) error {
	bw := bufio.NewWriter(w)
	hw := chksum.NewWriter(bw)
	var hdr [16]byte
	copy(hdr[:], Magic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(edges)))
	if _, err := hw.Write(hdr[:]); err != nil {
		return err
	}
	var rec []byte
	for len(edges) > 0 {
		n := min(len(edges), chunkRecords)
		rec = appendRecords(rec[:0], edges[:n])
		if _, err := hw.Write(rec); err != nil {
			return fmt.Errorf("edgeio: writing binary stream: %w", err)
		}
		edges = edges[n:]
	}
	footer := hw.Footer()
	if _, err := bw.Write(footer[:]); err != nil {
		return fmt.Errorf("edgeio: writing binary stream: %w", err)
	}
	return bw.Flush()
}

// ReadBinary parses the packed binary format and verifies the trailing
// CRC-32C footer; footer failures return errors wrapping ErrCorrupt.
// Streams without any footer (written by older versions) are accepted. The
// result grows as records arrive, so a damaged count costs at most about
// twice the memory of the records that do follow it.
func ReadBinary(r io.Reader) ([]temporal.Edge, error) {
	br := bufio.NewReader(r)
	hr := chksum.NewReader(br)
	var magic [8]byte
	if _, err := io.ReadFull(hr, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: missing magic: %v", ErrBadFormat, err)
	}
	if magic != Magic {
		return nil, fmt.Errorf("%w: bad magic %x", ErrBadFormat, magic)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(hr, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: missing count: %v", ErrBadFormat, err)
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	const maxEdges = 1 << 33
	if n > maxEdges {
		return nil, fmt.Errorf("%w: implausible edge count %d", ErrBadFormat, n)
	}
	edges := make([]temporal.Edge, 0, min(n, chunkRecords))
	rec := make([]byte, cap(edges)*RecordSize)
	for left := int(n); left > 0; {
		k := min(left, chunkRecords)
		got, err := io.ReadFull(hr, rec[:k*RecordSize])
		if err != nil {
			return nil, fmt.Errorf("%w: truncated at edge %d: %v", ErrBadFormat, len(edges)+got/RecordSize, err)
		}
		if len(edges) == cap(edges) {
			// Double, but never past the count: a sound file's edges end
			// up in exactly n slots.
			edges = append(make([]temporal.Edge, 0, min(int(n), 2*len(edges))), edges...)
		}
		edges = decodeRecords(edges, rec[:got])
		left -= k
	}
	// The footer is read from br directly so its bytes stay out of the sum.
	if _, err := hr.Verify(br); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return edges, nil
}

// Package walkio serializes walk corpora — the output artifact of a random
// walk engine (GraphWalker and TEA both flush completed walks to disk;
// §4.1). Two formats:
//
//   - Text: one walk per line, space-separated vertex ids (the format
//     word2vec-style trainers consume).
//   - Binary: length-prefixed (vertex, time) records, lossless including
//     edge timestamps.
package walkio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/temporal"
)

// Magic identifies the binary walk-corpus format ("TEAW" + version 1).
var Magic = [8]byte{'T', 'E', 'A', 'W', 0, 0, 0, 1}

// ErrBadFormat is returned for malformed corpora.
var ErrBadFormat = errors.New("walkio: malformed walk corpus")

// WriteText writes one walk per line as space-separated vertex ids.
// Timestamps are dropped (the embedding-trainer interchange format).
func WriteText(w io.Writer, paths []core.Path) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	for _, p := range paths {
		for i, v := range p.Vertices {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatUint(uint64(v), 10)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text corpus back into vertex sequences.
func ReadText(r io.Reader) ([][]temporal.Vertex, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	var walks [][]temporal.Vertex
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if len(text) == 0 {
			continue
		}
		var walk []temporal.Vertex
		start := -1
		flush := func(end int) error {
			if start < 0 {
				return nil
			}
			id, err := strconv.ParseUint(text[start:end], 10, 32)
			if err != nil {
				return fmt.Errorf("%w: line %d: %v", ErrBadFormat, line, err)
			}
			walk = append(walk, temporal.Vertex(id))
			start = -1
			return nil
		}
		for i := 0; i < len(text); i++ {
			if text[i] == ' ' || text[i] == '\t' {
				if err := flush(i); err != nil {
					return nil, err
				}
				continue
			}
			if start < 0 {
				start = i
			}
		}
		if err := flush(len(text)); err != nil {
			return nil, err
		}
		if len(walk) > 0 {
			walks = append(walks, walk)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("walkio: %w", err)
	}
	return walks, nil
}

// recordChunk is the most ReadBinary allocates for walks or hops before
// their records arrive.
const recordChunk = 4096

// AppendWalk appends p's binary record to buf: a u32 vertex count, then per
// vertex its u32 id and the u64 time of the edge that reached it (0 for the
// start vertex). The binary corpus and the out-of-core engine's flushed
// walks are runs of these records.
func AppendWalk(buf []byte, p core.Path) ([]byte, error) {
	if len(p.Times) != len(p.Vertices)-1 && !(len(p.Vertices) == 0 && len(p.Times) == 0) {
		return buf, fmt.Errorf("walkio: path shape %d vertices / %d times", len(p.Vertices), len(p.Times))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Vertices)))
	for i, v := range p.Vertices {
		t := temporal.Time(0)
		if i > 0 {
			t = p.Times[i-1]
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t))
	}
	return buf, nil
}

// WriteBinary writes the lossless binary corpus: magic, walk count, then
// one AppendWalk record per path.
func WriteBinary(w io.Writer, paths []core.Path) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [16]byte
	copy(hdr[:], Magic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(paths)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec []byte
	for _, p := range paths {
		var err error
		if rec, err = AppendWalk(rec[:0], p); err != nil {
			return err
		}
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary corpus. The result and each walk grow as
// their records arrive, so a damaged count costs at most about twice the
// memory of the records that do follow it.
func ReadBinary(r io.Reader) ([]core.Path, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: magic: %v", ErrBadFormat, err)
	}
	if magic != Magic {
		return nil, fmt.Errorf("%w: bad magic %x", ErrBadFormat, magic)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: count: %v", ErrBadFormat, err)
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	const maxWalks = 1 << 33
	if n > maxWalks {
		return nil, fmt.Errorf("%w: implausible walk count %d", ErrBadFormat, n)
	}
	paths := make([]core.Path, 0, min(n, recordChunk))
	var rec [12]byte
	for wi := uint64(0); wi < n; wi++ {
		if _, err := io.ReadFull(br, rec[:4]); err != nil {
			return nil, fmt.Errorf("%w: walk %d header: %v", ErrBadFormat, wi, err)
		}
		length := binary.LittleEndian.Uint32(rec[:4])
		const maxLen = 1 << 24
		if length > maxLen {
			return nil, fmt.Errorf("%w: implausible walk length %d", ErrBadFormat, length)
		}
		p := core.Path{}
		if length > 0 {
			p.Vertices = make([]temporal.Vertex, 0, min(length, recordChunk))
			p.Times = make([]temporal.Time, 0, min(length-1, recordChunk))
		}
		for i := uint32(0); i < length; i++ {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return nil, fmt.Errorf("%w: walk %d hop %d: %v", ErrBadFormat, wi, i, err)
			}
			p.Vertices = append(p.Vertices, temporal.Vertex(binary.LittleEndian.Uint32(rec[0:])))
			if i > 0 {
				p.Times = append(p.Times, temporal.Time(binary.LittleEndian.Uint64(rec[4:])))
			}
		}
		paths = append(paths, p)
	}
	return paths, nil
}

package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"github.com/tea-graph/tea/internal/chksum"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
)

// Offsets into a snapshot whose vertex 0 has a segment: magic and LSN, nine
// header words, then vertex 0's record and its first segment header.
const (
	offNumVerts = 16 + 5*8
	offMaxSeg   = 16 + 8*8
	offDegree   = 16 + 9*8
	offSegCount = offDegree + 8
	offSegLen   = offSegCount + 4
	offFirstDst = offSegLen + 16
)

// A damaged count must cost what the data holds, not what the count says:
// ReadSnapshot runs before the CRC footer is checked, so a count it trusted
// would allocate first and fail (or be killed) afterwards.
func TestSnapshotCorruptCountsAreBounded(t *testing.T) {
	g := buildMixedGraph(t)
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf, 3); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if g.Segments(0) == 0 {
		t.Fatal("vertex 0 has no segment to corrupt")
	}
	for _, c := range []struct {
		name string
		off  int
		size int
	}{
		{"vertex count", offNumVerts, 8},
		{"degree", offDegree, 4},
		{"segment count", offSegCount, 4},
		{"segment length", offSegLen, 4},
	} {
		for _, v := range []uint64{1<<31 - 1, 1 << 31, 1<<32 - 1} {
			bad := append([]byte(nil), raw...)
			if c.size == 8 {
				binary.LittleEndian.PutUint64(bad[c.off:], v)
			} else {
				binary.LittleEndian.PutUint32(bad[c.off:], uint32(v))
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := ReadSnapshot(bytes.NewReader(bad))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("%s = %d: err = %v, want ErrSnapshotCorrupt", c.name, v, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
				t.Fatalf("%s = %d: reading a %d-byte snapshot allocated %d bytes", c.name, v, len(raw), grew)
			}
		}
	}
}

// The recorded largest segment may exceed every segment present (expiry
// drops segments, never the record) but not fall below one, and it never
// sizes an allocation; no slot names a vertex above maxVertexID. A graph
// that loads takes appends.
func TestSnapshotHeaderBounds(t *testing.T) {
	g := mustNew(t, Config{})
	big := make([]temporal.Edge, 40)
	for i := range big {
		big[i] = temporal.Edge{Src: 0, Dst: 2, Time: temporal.Time(1 + i)}
	}
	if err := g.AppendBatch(big); err != nil {
		t.Fatal(err)
	}
	if err := g.AppendBatch([]temporal.Edge{{Src: 1, Dst: 0, Time: 100}}); err != nil {
		t.Fatal(err)
	}
	g.ExpireBefore(50)
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf, 1); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if got := binary.LittleEndian.Uint64(raw[offMaxSeg:]); got != 40 {
		t.Fatalf("recorded largest segment %d, want 40", got)
	}
	if _, _, err := ReadSnapshot(bytes.NewReader(raw)); err != nil {
		t.Fatalf("an image recording a segment expiry dropped: %v", err)
	}
	patch := func(off int, v uint64, size int) []byte {
		bad := append([]byte(nil), raw...)
		if size == 8 {
			binary.LittleEndian.PutUint64(bad[off:], v)
		} else {
			binary.LittleEndian.PutUint32(bad[off:], uint32(v))
		}
		return refooter(bad)
	}
	for _, v := range []uint64{0, 1<<31 + 1, 1 << 62, 1<<64 - 1} {
		if _, _, err := ReadSnapshot(bytes.NewReader(patch(offMaxSeg, v, 8))); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("recorded largest segment %d: err = %v, want ErrSnapshotCorrupt", v, err)
		}
	}

	// The vertex table is dense, so a slot naming maxVertexID itself would
	// cost gigabytes here: patch a small id instead.
	h := mustNew(t, Config{})
	if err := h.AppendBatch([]temporal.Edge{{Src: 0, Dst: 5, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := h.WriteSnapshot(&buf, 1); err != nil {
		t.Fatal(err)
	}
	raw = buf.Bytes()
	if got := binary.LittleEndian.Uint32(raw[offFirstDst:]); got != 5 {
		t.Fatalf("first slot names %d, want 5", got)
	}
	if _, _, err := ReadSnapshot(bytes.NewReader(patch(offFirstDst, maxVertexID+1, 4))); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("a slot naming %d: err = %v, want ErrSnapshotCorrupt", maxVertexID+1, err)
	}
	loaded, _, err := ReadSnapshot(bytes.NewReader(patch(offMaxSeg, 1<<20, 8)))
	if err != nil {
		t.Fatalf("recorded largest segment 1<<20: %v", err)
	}
	if err := loaded.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: 2}}); err != nil {
		t.Fatal(err)
	}
	if loaded.aux.MaxSize() > 2 {
		t.Fatalf("after an append to 2-edge segments the aux index covers %d", loaded.aux.MaxSize())
	}
}

// refooter replaces a snapshot's CRC footer with the right one for its
// body, so the parser's own checks are what a fuzzed body meets.
func refooter(data []byte) []byte {
	if len(data) < chksum.FooterSize {
		return data
	}
	body := data[:len(data)-chksum.FooterSize]
	w := chksum.NewWriter(new(bytes.Buffer))
	w.Write(body)
	footer := w.Footer()
	return append(append([]byte(nil), body...), footer[:]...)
}

// FuzzReadSnapshot: any input is refused with ErrSnapshotCorrupt or ends in
// its own valid footer and loads a graph that round-trips — its image reads
// back to a graph that writes the same image and walks the same walks.
// Never a panic.
func FuzzReadSnapshot(f *testing.F) {
	var stripped []byte // a whole image without its footer
	for _, g := range []*Graph{buildMixedGraph(f), func() *Graph {
		g, _ := New(Config{Weight: sampling.WeightSpec{Kind: sampling.WeightLinearRank}})
		g.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: 1}, {Src: 0, Dst: 2, Time: 2}, {Src: 1, Dst: 0, Time: 2}})
		g.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: 3}})
		g.DeleteEdges([]temporal.Edge{{Src: 0, Dst: 2, Time: 2}})
		return g
	}()} {
		var buf bytes.Buffer
		if err := g.WriteSnapshot(&buf, 5); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		stripped = buf.Bytes()[:buf.Len()-chksum.FooterSize]
	}
	f.Add([]byte{})
	f.Add(stripped)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, refooter(data)} {
			g, lsn, err := ReadSnapshot(bytes.NewReader(in))
			if err != nil {
				if !errors.Is(err, ErrSnapshotCorrupt) {
					t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
				}
				continue
			}
			if !bytes.Equal(refooter(in), in) {
				t.Fatal("accepted an input that does not end in its own footer")
			}
			var a, b bytes.Buffer
			if err := g.WriteSnapshot(&a, lsn); err != nil {
				t.Fatal(err)
			}
			g2, lsn2, err := ReadSnapshot(bytes.NewReader(a.Bytes()))
			if err != nil || lsn2 != lsn {
				t.Fatalf("re-reading the written image: lsn %d/%d err %v", lsn2, lsn, err)
			}
			if err := g2.WriteSnapshot(&b, lsn2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("the image changes across a read-write round")
			}
			if walkHash(g) != walkHash(g2) {
				t.Fatal("the round-tripped graph walks differently")
			}
			// The loaded graph takes an append that merges into vertex 0's
			// segments, and walks afterwards.
			if f := g.Frontier(); f < temporal.MaxTime-2 {
				err := g.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: f + 1}, {Src: 0, Dst: 0, Time: f + 2}})
				if err != nil && !errors.Is(err, ErrStaleBatch) {
					t.Fatalf("append after load: %v", err)
				}
				walkHash(g)
			}
		}
	})
}

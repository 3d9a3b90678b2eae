package hpat

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/tea-graph/tea/internal/chksum"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
	"github.com/tea-graph/tea/internal/xrand"
)

func TestSerializeRoundTrip(t *testing.T) {
	g := testutil.RandomGraph(t, 250, 12000, 2000, 21)
	w := testutil.Weights(t, g, sampling.Exponential(0.005))
	idx := Build(w, Config{})

	var buf bytes.Buffer
	n, err := WriteIndex(&buf, idx)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteIndex reported %d bytes, wrote %d", n, buf.Len())
	}
	file := append([]byte(nil), buf.Bytes()...)

	got, err := ReadIndex(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idx.words, got.words) || !reflect.DeepEqual(idx.off, got.off) {
		t.Fatal("round trip changed index contents")
	}
	// Written again, the loaded index reproduces the file.
	var again bytes.Buffer
	if _, err := WriteIndex(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), file) {
		t.Fatal("rewriting the loaded index changed the file")
	}
	if got.HasAuxIndex() != idx.HasAuxIndex() {
		t.Fatal("aux index presence lost")
	}

	// Loaded index must sample identically to the original, on every vertex.
	pick, r1, r2 := xrand.New(2), xrand.New(3), xrand.New(3)
	for i := 0; i < 20000; i++ {
		u := temporal.Vertex(pick.IntN(g.NumVertices()))
		k := 1 + pick.IntN(g.MaxDegree())
		e1, ev1, ok1 := idx.Sample(u, k, r1)
		e2, ev2, ok2 := got.Sample(u, k, r2)
		if e1 != e2 || ev1 != ev2 || ok1 != ok2 {
			t.Fatalf("sample divergence at draw %d: (%d,%d,%v) vs (%d,%d,%v)", i, e1, ev1, ok1, e2, ev2, ok2)
		}
	}
}

func TestSerializeNoAux(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 500, 23)
	w := testutil.Weights(t, g, sampling.WeightSpec{Kind: sampling.WeightLinearRank})
	idx := Build(w, Config{DisableAuxIndex: true})
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, idx); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if got.HasAuxIndex() {
		t.Fatal("aux index appeared from nowhere")
	}
}

func TestReadIndexRejectsWrongGraph(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 500, 25)
	w := testutil.Weights(t, g, sampling.WeightSpec{})
	idx := Build(w, Config{})
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, idx); err != nil {
		t.Fatal(err)
	}
	other := testutil.RandomGraph(t, 120, 3000, 500, 25)
	if _, err := ReadIndex(bytes.NewReader(buf.Bytes()), other); !errors.Is(err, ErrIndexMismatch) {
		t.Fatalf("wrong-graph err = %v", err)
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	g := testutil.RandomGraph(t, 10, 50, 50, 27)
	if _, err := ReadIndex(bytes.NewReader([]byte("not an index")), g); !errors.Is(err, ErrIndexFormat) {
		t.Fatalf("garbage err = %v", err)
	}
	// Truncated stream.
	w := testutil.Weights(t, g, sampling.WeightSpec{})
	idx := Build(w, Config{})
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, idx); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadIndex(bytes.NewReader(trunc), g); err == nil {
		t.Fatal("truncated index accepted")
	}
}

// Format v3 files are refused unless whole: a v1 or v2 magic is named as
// such and never parsed, and the footer is mandatory, so neither a file cut
// off just before it nor one with a flipped slot or prefix-sum bit loads.
func TestReadIndexRejectsOldAndDamaged(t *testing.T) {
	g := testutil.SkewedGraph(t, 16, 200)
	w := testutil.Weights(t, g, sampling.Exponential(0.01))
	idx := Build(w, Config{})
	hub := g.Degree(0)
	if hub < 1<<minTableLevel {
		t.Fatal("test graph has no table trunks")
	}
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, idx); err != nil {
		t.Fatal(err)
	}
	const footer = chksum.FooterSize
	const arena = 33 + 8 // header, then the arena's length word
	firstSlot := arena + 8*int(idx.off[0]+int64(hub)+1)
	lastSlot := arena + 8*int(idx.off[1]-1)
	midSum := arena + 8*int(idx.off[0]+int64(hub/2))
	for _, tc := range []struct {
		name   string
		mutate func(b []byte) []byte
		want   error
		msg    string
	}{
		{"v1 magic", func(b []byte) []byte { b[7] = 1; return b }, ErrIndexFormat, "format version 1, rebuild with SaveIndex"},
		{"v2 magic", func(b []byte) []byte { b[7] = 2; return b }, ErrIndexFormat, "format version 2, rebuild with SaveIndex"},
		{"cut inside slots", func(b []byte) []byte { return b[:firstSlot+12] }, ErrIndexFormat, "array body"},
		{"no footer", func(b []byte) []byte { return b[:len(b)-footer] }, ErrIndexCorrupt, "no integrity footer"},
		{"slot threshold bit", func(b []byte) []byte { b[firstSlot+7] ^= 0x80; return b }, ErrIndexCorrupt, "checksum"},
		{"slot alias bit", func(b []byte) []byte { b[lastSlot] ^= 0x01; return b }, ErrIndexCorrupt, "checksum"},
		{"prefix-sum mantissa bit", func(b []byte) []byte { b[midSum] ^= 0x04; return b }, ErrIndexCorrupt, "checksum"},
	} {
		data := tc.mutate(append([]byte(nil), buf.Bytes()...))
		_, err := ReadIndex(bytes.NewReader(data), g)
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: err = %v, want %v mentioning %q", tc.name, err, tc.want, tc.msg)
		}
	}
}

// A load allocates the block arena and offsets the index samples from plus
// its read buffers, never an E × 8-byte weight array.
func TestReadIndexKeepsNoWeights(t *testing.T) {
	g := testutil.RandomGraph(t, 2000, 300000, 10000, 31)
	w := testutil.Weights(t, g, sampling.Exponential(0.001))
	idx := Build(w, Config{})
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, idx); err != nil {
		t.Fatal(err)
	}
	const buffers = 3 << 19 // the 1 MiB reader and the chunk buffers, rounded up
	weightBytes := w.MemoryBytes()
	if weightBytes <= buffers {
		t.Fatalf("weights are %d bytes, no more than the %d-byte slack: the test cannot tell", weightBytes, buffers)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := ReadIndex(bytes.NewReader(buf.Bytes()), g)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := int64(after.TotalAlloc - before.TotalAlloc); alloc > got.MemoryBytes()+buffers {
		t.Fatalf("ReadIndex allocated %d bytes for a %d-byte index (weights %d)", alloc, got.MemoryBytes(), weightBytes)
	}
}

// The index is the stream's standalone blocks laid end to end: every
// vertex's block is, word for word, what BuildBlock makes from that vertex's
// weights alone, at any build thread count. The degrees run from 0 to 1,500
// and vertex 2 carries no weight at all.
func TestIndexArenaIsStandaloneBlocks(t *testing.T) {
	for _, threads := range []int{1, 8} {
		idx := weightedIndex(t, batchDegrees, batchWeights, Config{Threads: threads})
		if got, want := len(idx.off), len(batchDegrees)+1; got != want {
			t.Fatalf("threads %d: %d block offsets, want %d", threads, got, want)
		}
		for u, deg := range batchDegrees {
			w := make([]float64, deg)
			for i := range w {
				w[i] = batchWeights(u, i)
			}
			if got, want := idx.block(temporal.Vertex(u)), newBlock(w); !reflect.DeepEqual(got, want) {
				t.Fatalf("threads %d: vertex %d (degree %d): arena block differs from BuildBlock's", threads, u, deg)
			}
		}
		if n := idx.off[len(batchDegrees)]; n != int64(len(idx.words)) {
			t.Fatalf("threads %d: blocks cover %d of %d arena words", threads, n, len(idx.words))
		}
	}
}

// FuzzReadIndex feeds the one index reader arbitrary bytes: it refuses them
// with ErrIndexFormat, ErrIndexCorrupt or ErrIndexMismatch, or returns an
// index whose arena is the one written, and never panics. The seeds are a
// whole file, the header of a format-v2 file and a file cut inside its
// arena.
func FuzzReadIndex(f *testing.F) {
	g := testutil.SkewedGraph(f, 4, 40)
	idx := Build(testutil.Weights(f, g, sampling.Exponential(0.01)), Config{})
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, idx); err != nil {
		f.Fatal(err)
	}
	file := buf.Bytes()
	v2 := append([]byte(nil), file[:33]...)
	v2[7] = 2
	f.Add(file)
	f.Add(v2)
	f.Add(file[:len(file)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadIndex(bytes.NewReader(data), g)
		if err != nil {
			if !errors.Is(err, ErrIndexFormat) && !errors.Is(err, ErrIndexCorrupt) && !errors.Is(err, ErrIndexMismatch) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		if !reflect.DeepEqual(got.words, idx.words) {
			t.Fatal("accepted an index whose arena differs from the written one")
		}
	})
}

func TestWrapGraphWeightsPanicsOnMismatch(t *testing.T) {
	g := testutil.RandomGraph(t, 10, 50, 50, 29)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	sampling.WrapGraphWeights(g, make([]float64, 3))
}

package hpat

import (
	"bytes"
	"errors"
	"reflect"
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
	n, err := idx.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	got, err := ReadIndex(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idx.cum, got.cum) || !reflect.DeepEqual(idx.slots, got.slots) ||
		!reflect.DeepEqual(idx.weights.Flat, got.weights.Flat) {
		t.Fatal("round trip changed index contents")
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
	if _, err := idx.WriteTo(&buf); err != nil {
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
	if _, err := idx.WriteTo(&buf); err != nil {
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
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadIndex(bytes.NewReader(trunc), g); err == nil {
		t.Fatal("truncated index accepted")
	}
}

// Format v2 files are refused unless whole: a v1 magic is named as such and
// never parsed, and the footer is mandatory, so neither a file cut off just
// before it nor one with a flipped slot bit loads.
func TestReadIndexRejectsOldAndDamaged(t *testing.T) {
	g := testutil.SkewedGraph(t, 16, 200)
	idx := Build(testutil.Weights(t, g, sampling.Exponential(0.01)), Config{})
	if len(idx.slots) == 0 {
		t.Fatal("test graph has no table trunks")
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	const footer = chksum.FooterSize
	firstSlot := buf.Len() - footer - 8*len(idx.slots)
	for _, tc := range []struct {
		name   string
		mutate func(b []byte) []byte
		want   error
		msg    string
	}{
		{"v1 magic", func(b []byte) []byte { b[7] = 1; return b }, ErrIndexFormat, "format version 1, rebuild with SaveIndex"},
		{"cut inside slots", func(b []byte) []byte { return b[:firstSlot+12] }, ErrIndexFormat, "array body"},
		{"no footer", func(b []byte) []byte { return b[:len(b)-footer] }, ErrIndexCorrupt, "no integrity footer"},
		{"slot threshold bit", func(b []byte) []byte { b[firstSlot+7] ^= 0x80; return b }, ErrIndexCorrupt, "checksum"},
		{"slot alias bit", func(b []byte) []byte { b[len(b)-footer-8] ^= 0x01; return b }, ErrIndexCorrupt, "checksum"},
	} {
		data := tc.mutate(append([]byte(nil), buf.Bytes()...))
		_, err := ReadIndex(bytes.NewReader(data), g)
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: err = %v, want %v mentioning %q", tc.name, err, tc.want, tc.msg)
		}
	}
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

package walkio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/temporal"
)

func samplePaths() []core.Path {
	return []core.Path{
		{Vertices: []temporal.Vertex{0, 1, 2}, Times: []temporal.Time{5, 9}},
		{Vertices: []temporal.Vertex{7}, Times: nil},
		{Vertices: []temporal.Vertex{3, 4}, Times: []temporal.Time{-2}},
	}
}

func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, samplePaths()); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "0 1 2\n7\n3 4\n" {
		t.Fatalf("text = %q", got)
	}
	walks, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]temporal.Vertex{{0, 1, 2}, {7}, {3, 4}}
	if !reflect.DeepEqual(walks, want) {
		t.Fatalf("walks = %v", walks)
	}
}

func TestReadTextSkipsBlanksAndErrors(t *testing.T) {
	walks, err := ReadText(strings.NewReader("1 2\n\n3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(walks) != 2 {
		t.Fatalf("walks = %v", walks)
	}
	if _, err := ReadText(strings.NewReader("1 x 2\n")); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v", err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, samplePaths()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := samplePaths()
	if len(got) != len(want) {
		t.Fatalf("walks = %d", len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Vertices, want[i].Vertices) {
			t.Fatalf("walk %d vertices %v, want %v", i, got[i].Vertices, want[i].Vertices)
		}
		if len(want[i].Times) == 0 {
			if len(got[i].Times) != 0 {
				t.Fatalf("walk %d times %v", i, got[i].Times)
			}
			continue
		}
		if !reflect.DeepEqual(got[i].Times, want[i].Times) {
			t.Fatalf("walk %d times %v, want %v", i, got[i].Times, want[i].Times)
		}
	}
}

func TestBinaryEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("walks = %v", got)
	}
}

func TestBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("nope")); !errors.Is(err, ErrBadFormat) {
		t.Fatal("garbage accepted")
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, samplePaths()); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-6]
	if _, err := ReadBinary(bytes.NewReader(trunc)); !errors.Is(err, ErrBadFormat) {
		t.Fatal("truncation accepted")
	}
	// Malformed path shape on write.
	bad := []core.Path{{Vertices: []temporal.Vertex{1, 2}, Times: []temporal.Time{1, 2, 3}}}
	if err := WriteBinary(&buf, bad); err == nil {
		t.Fatal("bad shape accepted")
	}
}

// Counts the records do not back — 2^33 walks, or a walk of 2^24 vertices —
// are ErrBadFormat and cost no more memory than the records that arrive.
func TestBinaryCorruptCountsAreBounded(t *testing.T) {
	var records []byte
	for _, p := range samplePaths() {
		var err error
		if records, err = AppendWalk(records, p); err != nil {
			t.Fatal(err)
		}
	}
	walks := binary.LittleEndian.AppendUint64(append([]byte(nil), Magic[:]...), 1<<33)
	walks = append(walks, records...)
	hops := binary.LittleEndian.AppendUint64(append([]byte(nil), Magic[:]...), 1)
	hops = binary.LittleEndian.AppendUint32(hops, 1<<24)
	hops = append(hops, records[4:4+2*12]...)
	for name, input := range map[string][]byte{"walk count": walks, "walk length": hops} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(bytes.NewReader(input))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("%s: err = %v, want ErrBadFormat", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Fatalf("%s: reading %d bytes allocated %d bytes", name, len(input), grew)
		}
	}
}

func TestEngineCorpusRoundTrip(t *testing.T) {
	g := temporal.CommuteGraph()
	eng, err := core.NewEngine(g, core.Unbiased(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(core.WalkConfig{Length: 4, Seed: 2, KeepPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, res.Paths); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(res.Paths) {
		t.Fatalf("corpus size %d", len(back))
	}
	for i := range back {
		if !reflect.DeepEqual(back[i].Vertices, res.Paths[i].Vertices) {
			t.Fatalf("walk %d differs", i)
		}
	}
}

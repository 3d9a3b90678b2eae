package edgeio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"github.com/tea-graph/tea/internal/chksum"
	"github.com/tea-graph/tea/internal/temporal"
)

func TestReadTextBasic(t *testing.T) {
	in := `# commute network
% konect-style comment too
0 7 3
8 7 0

9,7,4
7	6	7
`
	edges, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []temporal.Edge{
		{Src: 0, Dst: 7, Time: 3},
		{Src: 8, Dst: 7, Time: 0},
		{Src: 9, Dst: 7, Time: 4},
		{Src: 7, Dst: 6, Time: 7},
	}
	if !reflect.DeepEqual(edges, want) {
		t.Fatalf("edges = %v, want %v", edges, want)
	}
}

func TestReadTextImplicitTime(t *testing.T) {
	edges, err := ReadText(strings.NewReader("1 2\n3 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if edges[0].Time != 1 || edges[1].Time != 2 {
		t.Fatalf("implicit times = %v", edges)
	}
}

func TestReadTextNegativeTime(t *testing.T) {
	edges, err := ReadText(strings.NewReader("1 2 -5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if edges[0].Time != -5 {
		t.Fatalf("time = %d", edges[0].Time)
	}
}

func TestReadTextErrors(t *testing.T) {
	for _, in := range []string{"1\n", "x 2 3\n", "1 y 3\n", "1 2 z\n"} {
		if _, err := ReadText(strings.NewReader(in)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("input %q: err = %v", in, err)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	want := temporal.CommuteEdges()
	var buf bytes.Buffer
	if err := WriteText(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %v", got)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	want := temporal.CommuteEdges()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %v", got)
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
		t.Fatalf("got %v", got)
	}
}

func TestBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("short")); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("short err = %v", err)
	}
	if _, err := ReadBinary(strings.NewReader("WRONGMAG\x00\x00\x00\x00\x00\x00\x00\x00")); !errors.Is(err, ErrBadFormat) {
		t.Fatal("bad magic accepted")
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, temporal.CommuteEdges()); err != nil {
		t.Fatal(err)
	}
	// Truncated mid-payload (cuts into the edge records).
	trunc := buf.Bytes()[:buf.Len()-chksum.FooterSize-4]
	if _, err := ReadBinary(bytes.NewReader(trunc)); !errors.Is(err, ErrBadFormat) {
		t.Fatal("truncated payload accepted")
	}
	// Truncated mid-footer.
	trunc = buf.Bytes()[:buf.Len()-4]
	if _, err := ReadBinary(bytes.NewReader(trunc)); !errors.Is(err, ErrCorrupt) {
		t.Fatal("partial footer accepted")
	}
	// Implausible count.
	bad := append([]byte{}, Magic[:]...)
	bad = append(bad, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, err := ReadBinary(bytes.NewReader(bad)); !errors.Is(err, ErrBadFormat) {
		t.Fatal("implausible count accepted")
	}
}

// hugeCountStream is a .teag header that claims 2^33 edges, followed by
// three records.
func hugeCountStream() []byte {
	b := append([]byte(nil), Magic[:]...)
	b = binary.LittleEndian.AppendUint64(b, 1<<33)
	return appendRecords(b, temporal.CommuteEdges()[:3])
}

// A count the records do not back is ErrBadFormat, and costs no more memory
// than the records that do arrive.
func TestBinaryCorruptCountIsBounded(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(hugeCountStream()))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("reading a header of 2^33 edges allocated %d bytes", grew)
	}
}

// Property: binary round trip preserves arbitrary edges.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(raw []struct {
		S, D uint32
		T    int64
	}) bool {
		edges := make([]temporal.Edge, len(raw))
		for i, e := range raw {
			edges[i] = temporal.Edge{Src: temporal.Vertex(e.S), Dst: temporal.Vertex(e.D), Time: temporal.Time(e.T)}
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, edges); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(edges) {
			return false
		}
		for i := range got {
			if got[i] != edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitFields(t *testing.T) {
	cases := map[string][]string{
		"a b c":       {"a", "b", "c"},
		"  a\t\tb ":   {"a", "b"},
		"a,b,c":       {"a", "b", "c"},
		"":            nil,
		"   ":         nil,
		"one":         {"one"},
		"a b\r":       {"a", "b"},
		"1 2 3 extra": {"1", "2", "3", "extra"},
	}
	for in, want := range cases {
		if got := splitFields(in); !reflect.DeepEqual(got, want) {
			t.Errorf("splitFields(%q) = %v, want %v", in, got, want)
		}
	}
}

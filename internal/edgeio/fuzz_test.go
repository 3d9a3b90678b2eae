package edgeio

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadText checks the text parser never panics and that everything it
// accepts round-trips through WriteText.
func FuzzReadText(f *testing.F) {
	f.Add("0 1 2\n")
	f.Add("# comment\n%also\n1 2\n")
	f.Add("1,2,3\n\n4\t5\t-6\n")
	f.Add("")
	f.Add("x y z")
	f.Add("4294967295 0 9223372036854775807\n")
	f.Fuzz(func(t *testing.T, input string) {
		edges, err := ReadText(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, edges); err != nil {
			t.Fatalf("WriteText of parsed edges failed: %v", err)
		}
		again, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("reparse failed: %v", err)
		}
		if len(again) != len(edges) {
			t.Fatalf("round trip changed edge count: %d -> %d", len(edges), len(again))
		}
		for i := range edges {
			if edges[i] != again[i] {
				t.Fatalf("round trip changed edge %d: %v -> %v", i, edges[i], again[i])
			}
		}
	})
}

// FuzzReadBinary checks the binary reader never panics or over-allocates on
// corrupt input.
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteBinary(&seed, nil)
	f.Add(seed.Bytes())
	f.Add([]byte("TEAG\x00\x00\x00\x01\x03\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(hugeCountStream())
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, input []byte) {
		edges, err := ReadBinary(bytes.NewReader(input))
		if err != nil {
			return
		}
		// Whatever parses must re-serialize identically.
		var buf bytes.Buffer
		if err := WriteBinary(&buf, edges); err != nil {
			t.Fatalf("WriteBinary failed: %v", err)
		}
	})
}

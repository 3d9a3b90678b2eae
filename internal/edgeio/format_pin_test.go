package edgeio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/tea-graph/tea/internal/temporal"
)

// TestBinaryBytesPinned pins the .teag image of a fixed graph: magic,
// count, the 16-byte edge records and the CRC-32C footer.
func TestBinaryBytesPinned(t *testing.T) {
	const want = "ac53e7715dde90bd8bf5e514eccfd138b46c1fc33fc7e0834cf48af8c18127d0"
	edges := make([]temporal.Edge, 0, 300)
	for i := 0; i < 300; i++ {
		edges = append(edges, temporal.Edge{
			Src:  temporal.Vertex(i * 7 % 101),
			Dst:  temporal.Vertex(i*13%97 + 1<<20),
			Time: temporal.Time(int64(i)*1_000_003 - 150_000_000),
		})
	}
	edges = append(edges, temporal.Edge{Src: 1<<32 - 1, Dst: 0, Time: temporal.MaxTime})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, edges); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("WriteBinary (%d bytes): sha256 %s, want %s", buf.Len(), got, want)
	}
}

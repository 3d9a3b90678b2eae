package walkio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/temporal"
)

// TestBinaryBytesPinned pins the .teaw image of fixed paths: magic, count
// and each walk's record (vertex count, then vertex and arrival time per
// vertex, the first time 0).
func TestBinaryBytesPinned(t *testing.T) {
	const want = "fe6d2e6a65e424d7b81a35f1c3186bd5868dad2b9605be6566b28a7eba453511"
	paths := append(samplePaths(), core.Path{})
	long := core.Path{}
	for i := 0; i < 40; i++ {
		long.Vertices = append(long.Vertices, temporal.Vertex(i*i%53))
		if i > 0 {
			long.Times = append(long.Times, temporal.Time(int64(i)*977-20_000))
		}
	}
	paths = append(paths, long)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, paths); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("WriteBinary (%d bytes): sha256 %s, want %s", buf.Len(), got, want)
	}
}

package stream

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/wal"
)

// TestWALSegmentBytesPinned pins the log a durable graph writes for a fixed
// sequence of appends, deletions and an expiry: the segment header, the
// record frames and the edge-batch payloads (a count, then 16-byte edge
// records).
func TestWALSegmentBytesPinned(t *testing.T) {
	const want = "1f628a0a6f3484ab9a3fb6e851762b29138a4cb52b95c7866f50b08e336b7914"
	dir := t.TempDir()
	d := openDurable(t, dir, DurableConfig{WAL: wal.Options{Policy: wal.SyncNever}})
	var batches [][]temporal.Edge
	for b := 0; b < 5; b++ {
		batch := make([]temporal.Edge, 0, 20)
		for i := 0; i < 20; i++ {
			batch = append(batch, temporal.Edge{
				Src:  temporal.Vertex((b*20 + i) * 7 % 31),
				Dst:  temporal.Vertex((b*20 + i) * 11 % 29),
				Time: temporal.Time(100*b + i + 1),
			})
		}
		if err := d.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		batches = append(batches, batch)
	}
	if err := d.DeleteEdges([]temporal.Edge{batches[1][3], batches[3][0], batches[4][19]}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ExpireBefore(150); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendBatch([]temporal.Edge{{Src: 2, Dst: 3, Time: 1000}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, "wal-00000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(seg)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("WAL segment (%d bytes): sha256 %s, want %s", len(seg), got, want)
	}
}

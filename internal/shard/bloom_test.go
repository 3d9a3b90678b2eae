package shard

import (
	"testing"

	"github.com/tea-graph/tea/internal/temporal"
)

func TestBloomBasics(t *testing.T) {
	b := newEdgeBloom(1000, 16)
	b.add(1, 2)
	b.add(7, 4)
	if !b.has(1, 2) || !b.has(7, 4) {
		t.Fatal("false negative")
	}
	if b.has(2, 1) {
		t.Fatal("directedness lost (or an unlucky false positive; re-seed)")
	}
	// False-positive rate at 16 bits/edge must be far below 1%.
	fp := 0
	for i := 0; i < 100000; i++ {
		if b.has(temporal.Vertex(1000+i), temporal.Vertex(i)) {
			fp++
		}
	}
	if fp > 200 {
		t.Fatalf("false positives: %d / 100000", fp)
	}
	if b.memoryBytes() <= 0 {
		t.Fatal("memory")
	}
}

func TestBloomDegenerateSizes(t *testing.T) {
	b := newEdgeBloom(0, 0)
	b.add(3, 4)
	if !b.has(3, 4) {
		t.Fatal("tiny filter lost an edge")
	}
}

package shard

import (
	"testing"

	"github.com/tea-graph/tea/internal/temporal"
)

func TestPartitionerValidation(t *testing.T) {
	if _, err := NewPartitioner(0); err == nil {
		t.Fatal("zero partitions accepted")
	}
	if _, err := NewPartitioner(-3); err == nil {
		t.Fatal("negative partitions accepted")
	}
	p, err := NewPartitioner(4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Partitions() != 4 {
		t.Fatalf("partitions = %d", p.Partitions())
	}
}

// Ownership is a pure function of the partition count: two independently
// constructed rings agree on every vertex, which is what lets separate
// processes (shards, router) partition without coordination.
func TestPartitionerDeterministic(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 8, 17} {
		a := MustPartitioner(parts)
		b := MustPartitioner(parts)
		for v := 0; v < 10000; v++ {
			oa, ob := a.Owner(temporal.Vertex(v)), b.Owner(temporal.Vertex(v))
			if oa != ob {
				t.Fatalf("parts=%d vertex %d: %d vs %d", parts, v, oa, ob)
			}
			if oa < 0 || oa >= parts {
				t.Fatalf("parts=%d vertex %d: owner %d out of range", parts, v, oa)
			}
		}
	}
}

func TestPartitionerSinglePartition(t *testing.T) {
	p := MustPartitioner(1)
	for v := 0; v < 1000; v++ {
		if p.Owner(temporal.Vertex(v)) != 0 {
			t.Fatalf("vertex %d not owned by the only partition", v)
		}
	}
}

// The bugfix this type exists for: id%P sends every strided id k·P+c to one
// partition; the hash ring must keep the load balanced regardless of id
// structure. The bound is the satellite's acceptance criterion: max/mean
// partition load ≤ 1.2.
func TestPartitionerStridedSkew(t *testing.T) {
	const n = 40000
	for _, parts := range []int{2, 3, 4, 8} {
		p := MustPartitioner(parts)
		for _, stride := range []int{parts, 2 * parts, 16} {
			counts := make([]int, parts)
			for i := 0; i < n; i++ {
				counts[p.Owner(temporal.Vertex(i*stride))]++
			}
			mean := float64(n) / float64(parts)
			for part, c := range counts {
				if ratio := float64(c) / mean; ratio > 1.2 {
					t.Fatalf("parts=%d stride=%d: partition %d load %.3f× mean (counts=%v)",
						parts, stride, part, ratio, counts)
				}
			}
		}
	}
}

// Sequential ids (the common case) must balance too.
func TestPartitionerSequentialSkew(t *testing.T) {
	const n = 40000
	for _, parts := range []int{2, 3, 8} {
		p := MustPartitioner(parts)
		counts := make([]int, parts)
		for i := 0; i < n; i++ {
			counts[p.Owner(temporal.Vertex(i))]++
		}
		mean := float64(n) / float64(parts)
		for part, c := range counts {
			if ratio := float64(c) / mean; ratio > 1.2 {
				t.Fatalf("parts=%d: partition %d load %.3f× mean", parts, part, ratio)
			}
		}
	}
}

// Regression: small sequential ids (0..255) collided with partition 0's own
// ring points before the domain salt, so shard 0 owned every small vertex —
// the exact degenerate case the ring exists to prevent. The bound is looser
// than the big-n skew tests because 256 samples are few.
func TestPartitionerSmallIDRange(t *testing.T) {
	for _, parts := range []int{2, 3, 4, 8} {
		p := MustPartitioner(parts)
		counts := make([]int, parts)
		for v := 0; v < 256; v++ {
			counts[p.Owner(temporal.Vertex(v))]++
		}
		mean := 256.0 / float64(parts)
		for part, c := range counts {
			if ratio := float64(c) / mean; ratio > 2.0 {
				t.Fatalf("parts=%d: partition %d owns %.1f× its share of ids 0..255 (counts=%v)",
					parts, part, ratio, counts)
			}
		}
	}
}

func BenchmarkPartitionerOwner(b *testing.B) {
	p := MustPartitioner(8)
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += p.Owner(temporal.Vertex(i))
	}
	_ = sum
}

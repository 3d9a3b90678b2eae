package hpat

import (
	"testing"

	"github.com/tea-graph/tea/internal/xrand"
)

// FuzzDecompose verifies the trunk decomposition tiles any prefix length
// exactly with aligned power-of-two trunks.
func FuzzDecompose(f *testing.F) {
	f.Add(0)
	f.Add(1)
	f.Add(7)
	f.Add(1 << 20)
	f.Add((1 << 20) - 1)
	f.Fuzz(func(t *testing.T, m int) {
		if m < 0 || m > 1<<30 {
			return
		}
		dec := Decompose(m, nil)
		pos := 0
		for _, d := range dec {
			if int(d.Pos) != pos {
				t.Fatalf("Decompose(%d): trunk at %d, expected %d", m, d.Pos, pos)
			}
			if pos%(d.Size()) != 0 {
				t.Fatalf("Decompose(%d): misaligned trunk %+v", m, d)
			}
			pos += d.Size()
		}
		if pos != m {
			t.Fatalf("Decompose(%d) tiles %d", m, pos)
		}
	})
}

// FuzzTableSample builds a block from arbitrary weights and hammers every
// prefix: no panics, indices in range, ok iff the prefix has positive mass.
func FuzzTableSample(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{255})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 512 {
			raw = raw[:512]
		}
		w := make([]float64, len(raw))
		for i, b := range raw {
			w[i] = float64(b)
		}
		block := newBlock(w)
		r := xrand.New(1)
		for k := 0; k <= len(w); k++ {
			mass := 0.0
			for _, x := range w[:k] {
				mass += x
			}
			idx, _, ok := SampleBlock(block, len(w), k, nil, r)
			if ok != (mass > 0) {
				t.Fatalf("k=%d mass=%v ok=%v", k, mass, ok)
			}
			if ok {
				if idx < 0 || idx >= k {
					t.Fatalf("k=%d sampled %d", k, idx)
				}
				if w[idx] == 0 {
					t.Fatalf("k=%d sampled zero-weight index %d", k, idx)
				}
			}
		}
	})
}

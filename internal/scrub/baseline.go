package scrub

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"github.com/tea-graph/tea/internal/chksum"
)

// ChunkBaseline scrubs a file that carries no checksums of its own (the
// out-of-core store's block file): the first pass records a CRC-32C per
// fixed-size chunk as the baseline, and every later pass re-reads and
// compares. This only detects *change*, not original damage — the contract
// is that the file is immutable while being served (the OOC store is written
// once by teabuild and then only read), so any divergence from the first
// pass is bit rot or a lost write, exactly what a scrubber exists to catch.
// If the file legitimately changes (rebuilt index), the baseline must be
// reset (Reset or a new ChunkBaseline).
type ChunkBaseline struct {
	// TargetName labels the target.
	TargetName string
	// Path is the file to scrub.
	Path string
	// ChunkBytes is the baseline granularity; 0 means 1 MiB.
	ChunkBytes int

	mu   sync.Mutex
	base []uint32
	size int64
}

// Name implements Target.
func (c *ChunkBaseline) Name() string { return c.TargetName }

// Reset forgets the baseline; the next pass records a fresh one.
func (c *ChunkBaseline) Reset() {
	c.mu.Lock()
	c.base, c.size = nil, 0
	c.mu.Unlock()
}

// Scrub implements Target: record the baseline on the first pass, verify
// against it afterwards.
func (c *ChunkBaseline) Scrub(ctx context.Context, bill func(int) error) (int, error) {
	chunk := c.ChunkBytes
	if chunk <= 0 {
		chunk = 1 << 20
	}
	f, err := os.Open(c.Path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}

	c.mu.Lock()
	baseline := c.base
	baseSize := c.size
	c.mu.Unlock()

	name := filepath.Base(c.Path)
	if baseline != nil && st.Size() != baseSize {
		return 0, fmt.Errorf("scrub: %s: size changed %d -> %d (immutable file)", name, baseSize, st.Size())
	}

	var sums []uint32
	buf := make([]byte, chunk)
	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			return i, err
		}
		n, err := io.ReadFull(f, buf)
		if n > 0 {
			if berr := bill(n); berr != nil {
				return i, berr
			}
			sum := chksum.Checksum(buf[:n])
			if baseline != nil {
				if i >= len(baseline) || sum != baseline[i] {
					return i, fmt.Errorf("scrub: %s: chunk %d CRC mismatch (offset %d)", name, i, int64(i)*int64(chunk))
				}
			}
			sums = append(sums, sum)
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return i, err
		}
	}
	if baseline != nil && len(sums) != len(baseline) {
		return len(sums), fmt.Errorf("scrub: %s: chunk count changed %d -> %d", name, len(baseline), len(sums))
	}
	if baseline == nil {
		c.mu.Lock()
		c.base, c.size = sums, st.Size()
		c.mu.Unlock()
	}
	return len(sums), nil
}

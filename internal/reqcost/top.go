package reqcost

import (
	"sort"
	"sync"
)

// Record is one finished request as retained by the top ring: identity, how
// long it took, and what it consumed (with the per-shard split when the
// router assembled one).
type Record struct {
	RequestID   string `json:"request_id"`
	Endpoint    string `json:"endpoint"`
	Status      int    `json:"status"`
	StartMicros int64  `json:"start_us"` // Unix microseconds
	WallMicros  int64  `json:"wall_us"`
	Cost        Cost   `json:"cost"`
}

// Top is a fixed-capacity ring of recent request records, queryable for the
// K most expensive — `top` for walks. Writes take one short mutex-guarded
// slot store per request completion (never on the walk hot path); reads
// copy and sort outside the lock.
type Top struct {
	mu   sync.Mutex
	ring []Record
	used []bool
	pos  int
}

// NewTop builds a ring retaining the last capacity (> 0) completed
// requests.
func NewTop(capacity int) *Top {
	return &Top{ring: make([]Record, capacity), used: make([]bool, capacity)}
}

// Record retains one completed request, evicting the oldest entry once the
// ring is full. Safe for concurrent use; free on a nil receiver.
func (t *Top) Record(r Record) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring[t.pos] = r
	t.used[t.pos] = true
	t.pos = (t.pos + 1) % len(t.ring)
	t.mu.Unlock()
}

// Top returns the k most expensive retained requests, ordered by wall time
// descending (ties by request ID for stable output). k <= 0 means every
// retained record.
func (t *Top) Top(k int) []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Record, 0, len(t.ring))
	for i, u := range t.used {
		if u {
			out = append(out, t.ring[i])
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].WallMicros != out[j].WallMicros {
			return out[i].WallMicros > out[j].WallMicros
		}
		return out[i].RequestID < out[j].RequestID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"github.com/tea-graph/tea/bench/workload"
	"github.com/tea-graph/tea/internal/temporal"
)

// checker verifies outputs while the benchmark measures. It counts how many
// checks of each kind ran, so a run that "passed" because nothing was checked
// is visible, and keeps the first few failures for the report.
type checker struct {
	stream *workload.Stream

	mu     sync.Mutex
	counts map[string]int
	errs   []string
}

func newChecker(s *workload.Stream) *checker {
	return &checker{stream: s, counts: map[string]int{}}
}

const maxKeptErrors = 8

func (c *checker) ran(kind string, n int) {
	c.mu.Lock()
	c.counts[kind] += n
	c.mu.Unlock()
}

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	if len(c.errs) < maxKeptErrors {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
	c.counts["failures"]++
	c.mu.Unlock()
}

// temporalPath reports whether (verts, times) is a temporal path over the
// generated edge set that starts at from: consecutive hops are generated
// edges that chain, and timestamps strictly increase.
func (c *checker) temporalPath(from temporal.Vertex, verts []temporal.Vertex, times []temporal.Time) error {
	if len(verts) == 0 || verts[0] != from {
		return fmt.Errorf("walk does not start at %d", from)
	}
	if len(times) != len(verts)-1 {
		return fmt.Errorf("walk has %d vertices but %d timestamps", len(verts), len(times))
	}
	for i, t := range times {
		e, ok := c.stream.Edge(t)
		if !ok || e.Src != verts[i] || e.Dst != verts[i+1] {
			return fmt.Errorf("hop %d (%d->%d at %d) is not a generated edge", i, verts[i], verts[i+1], t)
		}
		if i > 0 && t <= times[i-1] {
			return fmt.Errorf("hop %d at %d is not newer than hop %d at %d", i, t, i-1, times[i-1])
		}
	}
	return nil
}

// walkBody mirrors the /walk response of every serving mode.
type walkBody struct {
	From  temporal.Vertex `json:"from"`
	Walks [][]struct {
		V temporal.Vertex `json:"v"`
		T *int64          `json:"t"`
	} `json:"walks"`
	Cost map[string]string `json:"cost"`
}

// decodedWalk is one walk of a fully decoded response.
type decodedWalk struct {
	verts []temporal.Vertex
	times []temporal.Time
}

// decodeWalks fully decodes a /walk body and checks its shape: count walks,
// a timestamp on every hop but the first, and a steps figure that matches.
func decodeWalks(body []byte, count int) ([]decodedWalk, walkBody, error) {
	var wb walkBody
	if err := json.Unmarshal(body, &wb); err != nil {
		return nil, wb, fmt.Errorf("decoding response: %w", err)
	}
	if len(wb.Walks) != count {
		return nil, wb, fmt.Errorf("response has %d walks, want %d", len(wb.Walks), count)
	}
	walks := make([]decodedWalk, len(wb.Walks))
	steps := 0
	for i, hops := range wb.Walks {
		for j, h := range hops {
			if (h.T == nil) != (j == 0) {
				return nil, wb, fmt.Errorf("walk %d hop %d: timestamp presence is wrong", i, j)
			}
			walks[i].verts = append(walks[i].verts, h.V)
			if h.T != nil {
				walks[i].times = append(walks[i].times, temporal.Time(*h.T))
			}
		}
		steps += len(walks[i].times)
	}
	if got := wb.Cost["steps"]; got != strconv.Itoa(steps) {
		return nil, wb, fmt.Errorf("cost.steps is %q but the walks hold %d steps", got, steps)
	}
	return walks, wb, nil
}

// checkWalkBody fully decodes one response and verifies every walk in it.
func (c *checker) checkWalkBody(from temporal.Vertex, count int, body []byte) error {
	walks, wb, err := decodeWalks(body, count)
	if err != nil {
		return err
	}
	if wb.From != from {
		return fmt.Errorf("response is for vertex %d, asked for %d", wb.From, from)
	}
	for i, w := range walks {
		if err := c.temporalPath(from, w.verts, w.times); err != nil {
			return fmt.Errorf("walk %d: %w", i, err)
		}
	}
	c.ran("walks_verified", len(walks))
	return nil
}

var stepsKey = []byte(`"steps":"`)

// stepsOf reads the steps figure out of a /walk body without decoding it;
// the client uses it on the 63 of 64 responses it does not fully decode.
func stepsOf(body []byte) (int, error) {
	i := bytes.LastIndex(body, stepsKey)
	if i < 0 {
		return 0, fmt.Errorf("response has no steps figure")
	}
	rest := body[i+len(stepsKey):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return 0, fmt.Errorf("response steps figure is unterminated")
	}
	return strconv.Atoi(string(rest[:j]))
}

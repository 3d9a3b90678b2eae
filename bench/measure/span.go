package measure

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from outside it.
type Span struct {
	Name       string
	Start, End time.Duration // since the recorder was created
	Parent     int           // index of the causing span, -1 for a root
	Request    int           // replayed request index, shared by one request's spans
}

// Recorder keeps spans in memory and writes them out when the run ends.
// A nil *Recorder records nothing, so untraced runs share the traced code.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its index for End and for children.
func (r *Recorder) Begin(name string, parent, request int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, Span{Name: name, Start: now, Parent: parent, Request: request})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// End closes the span Begin returned.
func (r *Recorder) End(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteChrome writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto). Each replay depth gets its own row (tid),
// so the same request's spans at successive depths line up vertically.
func (r *Recorder) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	spans := r.Spans()
	rows := map[string]int{}
	var names []string // first-seen order, so the output is deterministic
	fmt.Fprint(bw, `{"traceEvents":[`)
	for i, s := range spans {
		row, ok := rows[s.Name]
		if !ok {
			row = len(rows) + 1
			rows[s.Name] = row
			names = append(names, s.Name)
		}
		if i > 0 {
			fmt.Fprint(bw, ",")
		}
		fmt.Fprintf(bw, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"span":%d,"parent":%d,"request":%d}}`,
			s.Name, row, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, i, s.Parent, s.Request)
	}
	for _, name := range names {
		fmt.Fprintf(bw, ",\n"+`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, rows[name], name)
	}
	fmt.Fprint(bw, "\n],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}

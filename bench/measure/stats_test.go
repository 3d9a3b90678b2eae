package measure

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // sorted: 10 20 30 40
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.25, 17.5}, {0.5, 25}, {0.75, 32.5}, {1, 40}} {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("Quantile sorted its argument in place")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of nothing should be NaN")
	}
}

func TestSummarizeIsTheWindowMedian(t *testing.T) {
	s := Summarize([]float64{5, 1, 9, 3, 7}) // sorted: 1 3 5 7 9
	if s.Median != 5 || s.P25 != 3 || s.P75 != 7 || s.N != 5 {
		t.Fatalf("Summarize = %+v", s)
	}
	if got := s.Spread(); got != 0.8 {
		t.Fatalf("Spread = %v, want (7-3)/5", got)
	}
	if one := Summarize([]float64{4}); one.Median != 4 || one.P25 != 4 || one.P75 != 4 {
		t.Fatalf("Summarize of one sample = %+v", one)
	}
}

func TestTailPercentileNeedsSamplesBeyondIt(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..2000
	}
	if v, ok := TailPercentile(xs, 99); !ok || v != 1980 {
		t.Fatalf("p99 of 1..2000 = %v, %v; want 1980 (nearest rank)", v, ok)
	}
	if _, ok := TailPercentile(xs[:1999], 99); ok {
		t.Fatal("p99 of 1999 samples has only 19 beyond it and should be refused")
	}
	if v, ok := TailPercentile(xs[:200], 90); !ok || v != 180 {
		t.Fatalf("p90 of 1..200 = %v, %v; want 180", v, ok)
	}
}

func TestRecorderWritesLoadableChromeTrace(t *testing.T) {
	r := NewRecorder()
	parent := r.Begin("window", -1, 0)
	child := r.Begin("call", parent, 7)
	r.End(child)
	r.End(parent)
	if spans := r.Spans(); len(spans) != 2 || spans[1].End < spans[1].Start || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 4 { // two spans, two row names
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	if ev := doc.TraceEvents[1]; ev.Name != "call" || ev.Args["parent"] != float64(parent) || ev.Args["request"] != float64(7) {
		t.Fatalf("child span = %+v", ev)
	}

	var none *Recorder
	none.End(none.Begin("x", -1, 0)) // a nil recorder records nothing and does not panic
	if none.Spans() != nil {
		t.Fatal("nil recorder returned spans")
	}
}

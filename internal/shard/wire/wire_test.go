package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

func testClientConfig() ClientConfig {
	return ClientConfig{Metrics: metrics.NewRegistry()}
}

func sampleRequest(n int) *StepRequest {
	req := &StepRequest{
		RequestID:   "req-abc123",
		FromShard:   2,
		Partitions:  3,
		NumVertices: 1000,
		MaxSteps:    80,
		Walkers:     make([]Walker, n),
	}
	root := xrand.New(42)
	for i := range req.Walkers {
		w := &req.Walkers[i]
		w.ID = uint64(i) * 7
		w.Cur = temporal.Vertex(i % 997)
		w.Prev = temporal.Vertex((i * 31) % 997)
		w.Arrival = temporal.Time(1000 + i)
		w.Steps = uint32(i % 80)
		root.SplitTo(uint64(i), &w.RNG)
		// Advance a few draws so serialized state is mid-stream.
		for j := 0; j < i%5; j++ {
			w.RNG.Uint64()
		}
	}
	return req
}

func TestStepRequestRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 513} {
		req := sampleRequest(n)
		payload := AppendStepRequest(nil, req)
		got, err := DecodeStepRequest(payload)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.RequestID != req.RequestID || got.FromShard != req.FromShard ||
			got.Partitions != req.Partitions || got.NumVertices != req.NumVertices || got.MaxSteps != req.MaxSteps {
			t.Fatalf("n=%d: header mismatch: %+v vs %+v", n, got, req)
		}
		if len(got.Walkers) != len(req.Walkers) {
			t.Fatalf("n=%d: %d walkers decoded", n, len(got.Walkers))
		}
		for i := range req.Walkers {
			a, b := &req.Walkers[i], &got.Walkers[i]
			if a.ID != b.ID || a.Cur != b.Cur || a.Prev != b.Prev || a.Arrival != b.Arrival || a.Steps != b.Steps {
				t.Fatalf("n=%d walker %d: %+v vs %+v", n, i, a, b)
			}
			// The decoded stream must continue exactly where the original
			// does — that is the determinism the frame exists to preserve.
			ar, br := a.RNG, b.RNG
			for j := 0; j < 8; j++ {
				if ar.Uint64() != br.Uint64() {
					t.Fatalf("n=%d walker %d: rng stream diverged at draw %d", n, i, j)
				}
			}
		}
	}
}

// sampleResponse answers n walkers with mixed outcomes: dead ends with and
// without hops, and stepped results of one to three hops.
func sampleResponse(n int, spans bool) *StepResponse {
	resp := &StepResponse{Results: make([]StepResult, n)}
	root := xrand.New(7)
	for i := range resp.Results {
		r := &resp.Results[i]
		r.Status = byte(i % 2)
		r.Hops = uint32(i % 3)
		if r.Status == StatusStepped && r.Hops == 0 {
			r.Hops = 3
		}
		r.Evaluated = int64(i * 11)
		r.Trials = uint32(i * 3)
		r.Rejected = uint32(i)
		root.SplitTo(uint64(i), &r.RNG)
		for h := uint32(0); h < r.Hops; h++ {
			resp.Hops = append(resp.Hops, Hop{Dst: temporal.Vertex(i*3 + int(h)), At: temporal.Time(-5 + i + int(h))})
		}
	}
	if spans {
		resp.Spans = []SpanSummary{{Name: "shard.step", Shard: 2, StartMicros: 1700000000000000, DurMicros: 42, Walkers: int32(n)}}
	}
	return resp
}

func TestStepResponseRoundTrip(t *testing.T) {
	for _, spans := range []bool{false, true} {
		resp := sampleResponse(9, spans)
		got, err := DecodeStepResponse(AppendStepResponse(nil, resp))
		if err != nil {
			t.Fatal(err)
		}
		for i := range resp.Results {
			a, b := &resp.Results[i], &got.Results[i]
			if a.Status != b.Status || a.Hops != b.Hops || a.Evaluated != b.Evaluated ||
				a.Trials != b.Trials || a.Rejected != b.Rejected {
				t.Fatalf("result %d: %+v vs %+v", i, a, b)
			}
			ar, br := a.RNG, b.RNG
			if ar.Uint64() != br.Uint64() {
				t.Fatalf("result %d: rng mismatch", i)
			}
		}
		if !reflect.DeepEqual(got.Hops, resp.Hops) || !reflect.DeepEqual(got.Spans, resp.Spans) {
			t.Fatalf("spans=%v: hops %v spans %v, want %v %v", spans, got.Hops, got.Spans, resp.Hops, resp.Spans)
		}
	}
}

// StepRequestSize is the encoder's length, not a copy of its layout.
func TestStepRequestSize(t *testing.T) {
	for _, n := range []int{0, 1, 513} {
		for _, id := range []string{"", "req-abc123"} {
			req := sampleRequest(n)
			req.RequestID = id
			if got, want := StepRequestSize(req), len(AppendStepRequest(nil, req)); got != want {
				t.Fatalf("n=%d id=%q: StepRequestSize %d, encoded %d bytes", n, id, got, want)
			}
		}
	}
}

// The hop trailer is sized by the results: too few hop bytes, a hop count
// that only fits if summed modulo 2³², or a stepped result without a hop are
// all corruption.
func TestDecodeRejectsBadHops(t *testing.T) {
	good := AppendStepResponse(nil, sampleResponse(5, false))
	if _, err := DecodeStepResponse(good); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeStepResponse(good[:len(good)-hopSize]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short hop trailer: %v", err)
	}

	// Two dead ends of 2³¹ hops each: Σhops is 0 in uint32 arithmetic, so
	// an empty trailer would pass a wrapping check.
	wrap := &StepResponse{Results: []StepResult{
		{Status: StatusDeadEnd, Hops: 1 << 31},
		{Status: StatusDeadEnd, Hops: 1 << 31},
	}}
	if _, err := DecodeStepResponse(AppendStepResponse(nil, wrap)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Σhops overflow: %v", err)
	}

	zero := AppendStepResponse(nil, &StepResponse{Results: []StepResult{{Status: StatusStepped}}})
	if _, err := DecodeStepResponse(zero); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("stepped without a hop: %v", err)
	}
	// The same result as a dead end is a walker with no candidate.
	dead := AppendStepResponse(nil, &StepResponse{Results: []StepResult{{Status: StatusDeadEnd}}})
	if _, err := DecodeStepResponse(dead); err != nil {
		t.Fatalf("dead end without a hop: %v", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello shard")
	if err := WriteFrame(&buf, TypeStep, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, TypePong, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil || typ != TypeStep || !bytes.Equal(got, payload) {
		t.Fatalf("frame 1: typ=%d payload=%q err=%v", typ, got, err)
	}
	typ, got, err = ReadFrame(&buf)
	if err != nil || typ != TypePong || len(got) != 0 {
		t.Fatalf("frame 2: typ=%d payload=%q err=%v", typ, got, err)
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

// TestFrameInPlace locks the zero-allocation framing path: BeginFrame +
// Append* + SealFrame must produce exactly the bytes WriteFrame does, and
// ReadFrameBuf must reuse its scratch buffer across frames.
func TestFrameInPlace(t *testing.T) {
	req := sampleRequest(13)
	payload := AppendStepRequest(nil, req)
	var ref bytes.Buffer
	if err := WriteFrame(&ref, TypeStep, payload); err != nil {
		t.Fatal(err)
	}
	frame := BeginFrame(nil, TypeStep)
	frame = AppendStepRequest(frame, req)
	frame, err := SealFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, ref.Bytes()) {
		t.Fatalf("in-place frame differs from WriteFrame: %d vs %d bytes", len(frame), ref.Len())
	}

	// Two frames through one scratch buffer: the second read reuses (and
	// invalidates) the first payload.
	var stream bytes.Buffer
	stream.Write(frame)
	if err := WriteFrame(&stream, TypePong, nil); err != nil {
		t.Fatal(err)
	}
	typ, body, buf, err := ReadFrameBuf(&stream, nil)
	if err != nil || typ != TypeStep {
		t.Fatalf("frame 1: typ=%d err=%v", typ, err)
	}
	var decoded StepRequest
	if err := DecodeStepRequestInto(body, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Walkers) != 13 || decoded.RequestID != req.RequestID {
		t.Fatalf("decoded %d walkers, id %q", len(decoded.Walkers), decoded.RequestID)
	}
	before := cap(buf)
	typ, body, buf, err = ReadFrameBuf(&stream, buf)
	if err != nil || typ != TypePong || len(body) != 0 {
		t.Fatalf("frame 2: typ=%d len=%d err=%v", typ, len(body), err)
	}
	if cap(buf) != before {
		t.Fatalf("scratch reallocated for a smaller frame: %d -> %d", before, cap(buf))
	}

	// DecodeStepRequestInto must reuse walker capacity on a smaller batch.
	small := sampleRequest(3)
	if err := DecodeStepRequestInto(AppendStepRequest(nil, small), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Walkers) != 3 || cap(decoded.Walkers) < 13 {
		t.Fatalf("walker scratch not reused: len=%d cap=%d", len(decoded.Walkers), cap(decoded.Walkers))
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeStep, []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, flip := range []int{4, 8, 12, len(raw) - 1} {
		mut := append([]byte(nil), raw...)
		mut[flip] ^= 0x40
		_, _, err := ReadFrame(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("bit flip at %d undetected", flip)
		}
	}
	// Truncation mid-payload.
	_, _, err := ReadFrame(bytes.NewReader(raw[:len(raw)-3]))
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncation: err=%v", err)
	}
	// Absurd length prefix refused before allocation.
	huge := append([]byte(nil), raw...)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized frame: err=%v", err)
	}
}

func TestDecodeRejectsMalformedPayloads(t *testing.T) {
	if _, err := DecodeStepRequest([]byte{1, 2}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short request: %v", err)
	}
	good := AppendStepRequest(nil, sampleRequest(3))
	if _, err := DecodeStepRequest(good[:len(good)-5]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated walkers: %v", err)
	}
	if _, err := DecodeStepResponse([]byte{9}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short response: %v", err)
	}
	// A walker record of the old 56-byte layout (no Prev) is refused.
	one := AppendStepRequest(nil, sampleRequest(1))
	if _, err := DecodeStepRequest(one[:len(one)-4]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("56-byte walker record: %v", err)
	}
	// Only Stepped and DeadEnd are step outcomes; any other status byte is
	// corruption, not a step.
	resp := AppendStepResponse(nil, &StepResponse{Results: []StepResult{{Status: StatusDeadEnd}}})
	resp[4] = 2
	if _, err := DecodeStepResponse(resp); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("status 2: %v", err)
	}
}

// echoHandler advances nothing: it answers each walker with a one-hop result
// landing on the walker's own vertex, tagging Evaluated with the walker id so
// tests can check request/response pairing.
type echoHandler struct {
	mu    sync.Mutex
	calls int
	fail  error
}

func (h *echoHandler) HandleStep(_ context.Context, req *StepRequest) (*StepResponse, error) {
	h.mu.Lock()
	h.calls++
	fail := h.fail
	h.mu.Unlock()
	if fail != nil {
		return nil, fail
	}
	resp := &StepResponse{Results: make([]StepResult, len(req.Walkers)), Hops: make([]Hop, len(req.Walkers))}
	for i, w := range req.Walkers {
		resp.Results[i] = StepResult{
			Status:    StatusStepped,
			Hops:      1,
			Evaluated: int64(w.ID),
			RNG:       w.RNG,
		}
		resp.Hops[i] = Hop{Dst: w.Cur, At: w.Arrival}
	}
	return resp, nil
}

func startServer(t *testing.T, h Handler) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, h, nil)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func TestClientServerExchange(t *testing.T) {
	_, addr := startServer(t, &echoHandler{})
	c := NewClient(addr, testClientConfig())
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req := sampleRequest(257)
	resp, err := c.Step(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(req.Walkers) {
		t.Fatalf("%d results", len(resp.Results))
	}
	for i, r := range resp.Results {
		if r.Evaluated != int64(req.Walkers[i].ID) || resp.Hops[i].Dst != req.Walkers[i].Cur {
			t.Fatalf("result %d out of order: %+v", i, r)
		}
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestClientConcurrentExchanges(t *testing.T) {
	_, addr := startServer(t, &echoHandler{})
	c := NewClient(addr, testClientConfig())
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				req := sampleRequest(g*13 + i%7 + 1)
				resp, err := c.Step(ctx, req)
				if err != nil {
					errs <- err
					return
				}
				for j := range resp.Results {
					if resp.Results[j].Evaluated != int64(req.Walkers[j].ID) {
						errs <- fmt.Errorf("goroutine %d: cross-talk at %d", g, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClientRemoteErrorNotRetried(t *testing.T) {
	h := &echoHandler{fail: errors.New("partitions mismatch")}
	_, addr := startServer(t, h)
	c := NewClient(addr, testClientConfig())
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := c.Step(ctx, sampleRequest(1))
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	h.mu.Lock()
	calls := h.calls
	h.mu.Unlock()
	if calls != 1 {
		t.Fatalf("deliberate refusal retried: %d calls", calls)
	}
}

func TestClientRetriesAcrossRestart(t *testing.T) {
	srv, addr := startServer(t, &echoHandler{})
	c := NewClient(addr, testClientConfig())
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Step(ctx, sampleRequest(2)); err != nil {
		t.Fatal(err)
	}
	// Kill the server; the pooled connection is now dead. A new server on the
	// same address lets the retry path recover transparently.
	srv.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(ln, &echoHandler{}, nil)
	defer srv2.Close()
	if _, err := c.Step(ctx, sampleRequest(2)); err != nil {
		t.Fatalf("retry after restart failed: %v", err)
	}
}

func TestClientPeerDownFailsPromptly(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listening at addr now
	reg := metrics.NewRegistry()
	c := NewClient(addr, ClientConfig{Metrics: reg})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	_, err = c.Step(ctx, sampleRequest(1))
	var peer *PeerError
	if !errors.As(err, &peer) {
		t.Fatalf("want PeerError, got %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("peer-down detection took %v", d)
	}
	if got := reg.Counter(`tea_shard_peer_retries_total{peer="` + addr + `"}`).Value(); got != maxRetries {
		t.Fatalf("retries = %d, want %d", got, maxRetries)
	}
}

func TestServerSurvivesCorruptStream(t *testing.T) {
	_, addr := startServer(t, &echoHandler{})
	// Connection one: garbage. The server must drop it without dying.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte{9, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	buf := make([]byte, 16)
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("server answered a corrupt frame instead of closing")
	}
	raw.Close()
	// Connection two: a healthy client still works.
	c := NewClient(addr, testClientConfig())
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Step(ctx, sampleRequest(4)); err != nil {
		t.Fatal(err)
	}
}

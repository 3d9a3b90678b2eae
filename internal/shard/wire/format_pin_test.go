package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// pinnedResponse is a step response with both statuses, hops and a span
// trailer: every section of the TypeStepResp payload.
func pinnedResponse() *StepResponse {
	resp := &StepResponse{
		Results: []StepResult{
			{Status: StatusStepped, Hops: 2, Evaluated: 17, Trials: 3, Rejected: 1},
			{Status: StatusDeadEnd, Hops: 0, Evaluated: 4},
			{Status: StatusDeadEnd, Hops: 1, Evaluated: -1, Trials: 1 << 31},
		},
		Hops: []Hop{{Dst: 9, At: 100}, {Dst: 4, At: 101}, {Dst: 1<<26 - 1, At: temporal.MaxTime}},
		Spans: []SpanSummary{
			{Name: "shard.step", Shard: 2, StartMicros: 1_700_000_000_000_000, DurMicros: 250, Walkers: 3},
			{Name: "", Shard: -1, StartMicros: -5, DurMicros: 0},
		},
	}
	root := xrand.New(7)
	for i := range resp.Results {
		root.SplitTo(uint64(i), &resp.Results[i].RNG)
	}
	return resp
}

// TestFrameBytesPinned pins the on-wire bytes of every frame type a shard
// sends: a step request, a step response with hops and span summaries, an
// error and a ping. A change to the frame header, the CRC or a payload
// layout fails here.
func TestFrameBytesPinned(t *testing.T) {
	want := map[string]string{
		"step":  "ff8cd681cf7a281d7434569cc26db222ccb584d18c0bd933f0cef64ff73d2236",
		"resp":  "9c6f3f21b650e8e3fea89176b028fe047aa33e9c27b1c40d5323531671ab51d2",
		"error": "4354168f9301cf1f297aa89fd24abec6a54d91d2a8843f0568616f8e612b2157",
		"ping":  "36e5cb013784c865bdeb9e0dbf61f13aee4778f53d6273fa8d70b45f239fd2d5",
	}
	seal := func(typ byte, payload []byte) []byte {
		frame, err := SealFrame(append(BeginFrame(nil, typ), payload...))
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	write := func(typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got := map[string][]byte{
		"step":  seal(TypeStep, AppendStepRequest(nil, sampleRequest(5))),
		"resp":  seal(TypeStepResp, AppendStepResponse(nil, pinnedResponse())),
		"error": write(TypeError, []byte("wire: walker 3 at vertex 12 is owned by shard 1")),
		"ping":  write(TypePing, nil),
	}
	for name, frame := range got {
		sum := sha256.Sum256(frame)
		if h := hex.EncodeToString(sum[:]); h != want[name] {
			t.Errorf("%s frame (%d bytes): sha256 %s, want %s", name, len(frame), h, want[name])
		}
	}
}

// TestFrameRoundTripAllocatesNothing checks the promise of pconn: on a warm
// connection, encoding a step frame in place and reading it back through
// the connection's scratch buffer allocates nothing.
func TestFrameRoundTripAllocatesNothing(t *testing.T) {
	req := sampleRequest(64)
	var wbuf, rbuf []byte
	var rd bytes.Reader
	roundTrip := func() {
		frame := BeginFrame(wbuf[:0], TypeStep)
		frame = AppendStepRequest(frame, req)
		frame, err := SealFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		wbuf = frame
		rd.Reset(frame)
		typ, body, nbuf, err := ReadFrameBuf(&rd, rbuf)
		if err != nil || typ != TypeStep || len(body) != len(frame)-FrameSize(0) {
			t.Fatalf("round trip: typ %d, %d body bytes, err %v", typ, len(body), err)
		}
		rbuf = nbuf
	}
	roundTrip() // warm the two buffers
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("warm frame round trip allocates %.1f times, want 0", allocs)
	}
}

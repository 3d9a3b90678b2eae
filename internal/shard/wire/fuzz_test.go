package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReadFrame: arbitrary bytes fed to the frame reader must never panic,
// and any framing violation must surface as ErrCorrupt (poisoned-conn
// semantics) or a truncation error — never a silently wrong frame.
func FuzzReadFrame(f *testing.F) {
	// Seed corpus: a valid frame, a truncated one, a corrupted CRC, a huge
	// length prefix, and raw garbage.
	good, err := SealFrame(append(BeginFrame(nil, TypeStep), AppendStepRequest(nil, sampleRequest(3))...))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-5])
	bad := bytes.Clone(good)
	bad[4] ^= 0xff
	f.Add(bad)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1})
	f.Add([]byte("not a frame at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, _, err := ReadFrameBuf(bytes.NewReader(data), nil)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		// A frame that validated must re-encode to the identical bytes it was
		// read from (the reader consumed exactly one frame's worth).
		re, err := SealFrame(append(BeginFrame(nil, typ), payload...))
		if err != nil {
			t.Fatalf("re-seal of accepted frame: %v", err)
		}
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("accepted frame does not round-trip")
		}
	})
}

// FuzzDecodeStepRequest: arbitrary payloads (bytes that passed framing) must
// decode or error, never panic, and a successful decode must re-encode to
// the same bytes.
func FuzzDecodeStepRequest(f *testing.F) {
	f.Add(AppendStepRequest(nil, sampleRequest(0)))
	f.Add(AppendStepRequest(nil, sampleRequest(5)))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req StepRequest
		if err := DecodeStepRequestInto(data, &req); err != nil {
			return
		}
		if !bytes.Equal(AppendStepRequest(nil, &req), data) {
			t.Fatalf("accepted request does not round-trip")
		}
	})
}

// FuzzDecodeStepResponse: same contract for the response payload, which
// carries the optional span trailer.
func FuzzDecodeStepResponse(f *testing.F) {
	resp := &StepResponse{Results: make([]StepResult, 4)}
	for i := range resp.Results {
		resp.Results[i] = StepResult{Status: StatusStepped, Hops: 1, Evaluated: int64(i), Trials: uint32(i + 1), Rejected: uint32(i)}
		resp.Hops = append(resp.Hops, Hop{Dst: 7, At: 9})
	}
	f.Add(AppendStepResponse(nil, resp))
	f.Add(AppendStepResponse(nil, &StepResponse{}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	// Mixed hop counts (dead ends with and without hops) and a span trailer.
	f.Add(AppendStepResponse(nil, sampleResponse(6, false)))
	f.Add(AppendStepResponse(nil, sampleResponse(7, true)))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeStepResponse(data)
		if err != nil {
			return
		}
		hops := 0
		for i, r := range got.Results {
			if r.Status != StatusStepped && r.Status != StatusDeadEnd {
				t.Fatalf("result %d accepted with status %d", i, r.Status)
			}
			if r.Status == StatusStepped && r.Hops == 0 {
				t.Fatalf("result %d accepted as stepped without a hop", i)
			}
			hops += int(r.Hops)
		}
		if hops != len(got.Hops) {
			t.Fatalf("accepted %d hop records for %d hops", len(got.Hops), hops)
		}
		if !bytes.Equal(AppendStepResponse(nil, got), data) {
			t.Fatalf("accepted response does not round-trip")
		}
	})
}

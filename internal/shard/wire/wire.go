// Package wire is the binary RPC the shards speak: length-prefixed,
// CRC-32C-framed messages (the same frame discipline as internal/wal)
// carrying batched walker-migration payloads, so a whole step frontier
// crosses a shard boundary in one message, and the serving shard answers with
// every consecutive step each walker took on its partition.
//
//	frame   := length[4] crc[4] type[1] payload[length-1]
//
// length covers the type byte plus the payload; crc is the CRC-32C
// (Castagnoli) of the type byte and payload, all little-endian. A frame that
// fails its CRC or exceeds MaxFrameBytes poisons the connection — the peer
// closes it and the client retries on a fresh one — because a framing error
// means the stream position can no longer be trusted.
//
// Walker frames are fixed-width records: the migrating state of one walk is
// its id, current and previous vertex (node2vec's β tests the candidate
// against the latter), arrival time, steps taken, and the four words of its
// private xoshiro stream. Shipping the stream state (rather than
// re-deriving it) is what keeps sharded walks byte-identical to the
// single-process engine: the walk consumes its stream sequentially across
// shard hops exactly as the scalar and batched kernels do in one process.
//
// The reply carries one fixed-width result per walker (status, hop count,
// cost, stream state) followed by one flat 12-byte Hop record (destination,
// time) per step taken, in result order:
//
//	request  := id-string fromShard[4] partitions[4] vertices[4] flags[4] maxSteps[4] n[4] walker[60]×n
//	response := n[4] result[53]×n hop[12]×Σhops [span trailer]
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// MaxFrameBytes bounds one frame. A step batch of a full /walk request is
// 10k walkers ≈ 600 KiB; its reply adds 12 bytes per hop, which the serving
// shard caps well inside the limit. 16 MiB still rejects a garbage length
// prefix before allocating.
const MaxFrameBytes = 16 << 20

// frameHeaderSize is the fixed prefix: length[4] crc[4].
const frameHeaderSize = 8

// Message types.
const (
	// TypeStep asks the receiving shard to advance each walker in the
	// payload through every consecutive step its local partition owns: until
	// the walker reaches a vertex another shard owns, dead-ends, or has taken
	// MaxSteps steps.
	TypeStep = byte(1)
	// TypeStepResp carries the per-walker outcomes, in request order, and
	// their hops.
	TypeStepResp = byte(2)
	// TypeError carries a shard-side refusal (mismatched cluster config, a
	// malformed payload, a walker vertex outside the graph or owned by
	// another shard, a walker already at MaxSteps) as a string.
	TypeError = byte(3)
	// TypePing and TypePong are the liveness probe pair.
	TypePing = byte(4)
	TypePong = byte(5)
)

// Step outcome statuses.
const (
	// StatusStepped: the walker advanced at least one edge and stopped:
	// its vertex belongs to another shard, it reached MaxSteps, or the shard
	// cut the run short (the coordinator sends it again).
	StatusStepped = byte(0)
	// StatusDeadEnd: after its hops, the walker had no temporal candidate (or
	// a zero-weight candidate prefix) at its current vertex.
	StatusDeadEnd = byte(1)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a frame whose CRC or length prefix is invalid.
var ErrCorrupt = errors.New("wire: corrupt frame")

// Walker is one in-flight walk's migrating state. Prev is the vertex the
// last step left; it is meaningful only when Steps > 0.
type Walker struct {
	ID      uint64
	Cur     temporal.Vertex
	Prev    temporal.Vertex
	Arrival temporal.Time
	Steps   uint32
	RNG     xrand.Rand
}

// StepResult is one walker's outcome for one request: Hops steps taken,
// whose records are the walker's slice of StepResponse.Hops, then the stop
// Status. Evaluated, Trials and Rejected sum over every step attempted
// (Trials and Rejected count node2vec's β proposals, as in stats.Cost); RNG is
// the stream state after the last draw.
type StepResult struct {
	Status    byte
	Hops      uint32
	Evaluated int64
	Trials    uint32
	Rejected  uint32
	RNG       xrand.Rand
}

// Hop is one step taken: the edge's destination and timestamp.
type Hop struct {
	Dst temporal.Vertex
	At  temporal.Time
}

// Request flags.
const (
	// FlagCollectSpans asks the serving shard to return span summaries for
	// this step batch, so the coordinating process can assemble one
	// cross-process trace for a sampled request.
	FlagCollectSpans = uint32(1 << 0)
)

// StepRequest asks a shard to advance a batch of walkers. The cluster
// fingerprint (Partitions, NumVertices) guards against heterogeneous
// deployments: a shard built for a different partition count or graph answers
// TypeError instead of silently sampling from the wrong distribution.
type StepRequest struct {
	RequestID   string
	FromShard   uint32
	Partitions  uint32
	NumVertices uint32
	Flags       uint32
	// MaxSteps is the walk length: a walker stops once its Steps reaches it,
	// and a walker already there is refused. 0 asks for exactly one step per
	// walker.
	MaxSteps uint32
	Walkers  []Walker
}

// SpanSummary is one remote operation's compact trace record: enough to
// place it on a cluster-wide timeline (wall-clock begin and duration) and
// attribute it (name, owning shard, batch size). Shipped in step responses
// when the request carries FlagCollectSpans; the coordinator and router
// convert these into full SpanRecords via trace.Tracer.Inject.
type SpanSummary struct {
	Name        string `json:"name"`
	Shard       int32  `json:"shard"`
	StartMicros int64  `json:"start_us"`
	DurMicros   int64  `json:"dur_us"`
	Walkers     int32  `json:"walkers,omitempty"`
}

// StepResponse carries one result per request walker, in order, their hops
// (Σ Results[i].Hops records, in result order), plus span summaries when the
// request asked for them.
type StepResponse struct {
	Results []StepResult
	Hops    []Hop
	Spans   []SpanSummary
}

const (
	requestHeaderSize = 6 * 4                  // from partitions vertices flags maxSteps n
	walkerSize        = 8 + 4 + 4 + 8 + 4 + 32 // id cur prev arrival steps rng
	resultSize        = 1 + 4 + 8 + 4 + 4 + 32 // status hops evaluated trials rejected rng
	hopSize           = 4 + 8                  // dst at
)

// StepRequestSize is len(AppendStepRequest(nil, req)), computed without
// encoding, so the coordinator can account on-wire bytes.
func StepRequestSize(req *StepRequest) int {
	return 4 + len(req.RequestID) + requestHeaderSize + len(req.Walkers)*walkerSize
}

// rngWords round-trips the xoshiro state through the frame. The state fields
// are unexported, so the wire layer carries them via Marshal/Unmarshal on a
// fixed 32-byte window.
func putRNG(b []byte, r *xrand.Rand) {
	s0, s1, s2, s3 := r.State()
	binary.LittleEndian.PutUint64(b[0:], s0)
	binary.LittleEndian.PutUint64(b[8:], s1)
	binary.LittleEndian.PutUint64(b[16:], s2)
	binary.LittleEndian.PutUint64(b[24:], s3)
}

func getRNG(b []byte, r *xrand.Rand) {
	r.SetState(
		binary.LittleEndian.Uint64(b[0:]),
		binary.LittleEndian.Uint64(b[8:]),
		binary.LittleEndian.Uint64(b[16:]),
		binary.LittleEndian.Uint64(b[24:]),
	)
}

// AppendStepRequest encodes req after buf and returns the extended slice.
func AppendStepRequest(buf []byte, req *StepRequest) []byte {
	buf = appendString(buf, req.RequestID)
	buf = binary.LittleEndian.AppendUint32(buf, req.FromShard)
	buf = binary.LittleEndian.AppendUint32(buf, req.Partitions)
	buf = binary.LittleEndian.AppendUint32(buf, req.NumVertices)
	buf = binary.LittleEndian.AppendUint32(buf, req.Flags)
	buf = binary.LittleEndian.AppendUint32(buf, req.MaxSteps)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(req.Walkers)))
	for i := range req.Walkers {
		w := &req.Walkers[i]
		buf = binary.LittleEndian.AppendUint64(buf, w.ID)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(w.Cur))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(w.Prev))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w.Arrival))
		buf = binary.LittleEndian.AppendUint32(buf, w.Steps)
		var rng [32]byte
		putRNG(rng[:], &w.RNG)
		buf = append(buf, rng[:]...)
	}
	return buf
}

// DecodeStepRequest parses a TypeStep payload.
func DecodeStepRequest(payload []byte) (*StepRequest, error) {
	req := &StepRequest{}
	if err := DecodeStepRequestInto(payload, req); err != nil {
		return nil, err
	}
	return req, nil
}

// DecodeStepRequestInto parses a TypeStep payload into req, reusing
// req.Walkers' capacity — the per-frame decode path of a serving connection,
// which would otherwise allocate a frontier-sized slice per step round.
func DecodeStepRequestInto(payload []byte, req *StepRequest) error {
	var err error
	req.RequestID, payload, err = readString(payload)
	if err != nil {
		return err
	}
	if len(payload) < requestHeaderSize {
		return fmt.Errorf("%w: step request header short (%d bytes)", ErrCorrupt, len(payload))
	}
	req.FromShard = binary.LittleEndian.Uint32(payload[0:])
	req.Partitions = binary.LittleEndian.Uint32(payload[4:])
	req.NumVertices = binary.LittleEndian.Uint32(payload[8:])
	req.Flags = binary.LittleEndian.Uint32(payload[12:])
	req.MaxSteps = binary.LittleEndian.Uint32(payload[16:])
	n := int(binary.LittleEndian.Uint32(payload[20:]))
	payload = payload[requestHeaderSize:]
	if n < 0 || len(payload) != n*walkerSize {
		return fmt.Errorf("%w: step request payload %d bytes for %d walkers", ErrCorrupt, len(payload), n)
	}
	if cap(req.Walkers) < n {
		req.Walkers = make([]Walker, n)
	} else {
		req.Walkers = req.Walkers[:n]
	}
	for i := 0; i < n; i++ {
		b := payload[i*walkerSize:]
		w := &req.Walkers[i]
		w.ID = binary.LittleEndian.Uint64(b[0:])
		w.Cur = temporal.Vertex(binary.LittleEndian.Uint32(b[8:]))
		w.Prev = temporal.Vertex(binary.LittleEndian.Uint32(b[12:]))
		w.Arrival = temporal.Time(binary.LittleEndian.Uint64(b[16:]))
		w.Steps = binary.LittleEndian.Uint32(b[24:])
		getRNG(b[28:], &w.RNG)
	}
	return nil
}

// AppendStepResponse encodes resp after buf and returns the extended slice.
// The hop records follow the results; span summaries, when present, follow
// the hops as a counted trailer, and a response without spans omits it.
func AppendStepResponse(buf []byte, resp *StepResponse) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(resp.Results)))
	for i := range resp.Results {
		r := &resp.Results[i]
		buf = append(buf, r.Status)
		buf = binary.LittleEndian.AppendUint32(buf, r.Hops)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Evaluated))
		buf = binary.LittleEndian.AppendUint32(buf, r.Trials)
		buf = binary.LittleEndian.AppendUint32(buf, r.Rejected)
		var rng [32]byte
		putRNG(rng[:], &r.RNG)
		buf = append(buf, rng[:]...)
	}
	for _, h := range resp.Hops {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Dst))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(h.At))
	}
	if len(resp.Spans) > 0 {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(resp.Spans)))
		for i := range resp.Spans {
			s := &resp.Spans[i]
			buf = appendString(buf, s.Name)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Shard))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(s.StartMicros))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(s.DurMicros))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Walkers))
		}
	}
	return buf
}

// DecodeStepResponse parses a TypeStepResp payload.
func DecodeStepResponse(payload []byte) (*StepResponse, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: step response short", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if n < 0 || len(payload) < n*resultSize {
		return nil, fmt.Errorf("%w: step response payload %d bytes for %d results", ErrCorrupt, len(payload), n)
	}
	resp := &StepResponse{Results: make([]StepResult, n)}
	var hops uint64 // Σ Hops; cannot wrap: n < 2³² results of < 2³² hops
	for i := 0; i < n; i++ {
		b := payload[i*resultSize:]
		r := &resp.Results[i]
		r.Status = b[0]
		if r.Status != StatusStepped && r.Status != StatusDeadEnd {
			return nil, fmt.Errorf("%w: step result %d has status %d", ErrCorrupt, i, r.Status)
		}
		r.Hops = binary.LittleEndian.Uint32(b[1:])
		if r.Status == StatusStepped && r.Hops == 0 {
			return nil, fmt.Errorf("%w: step result %d stepped without a hop", ErrCorrupt, i)
		}
		r.Evaluated = int64(binary.LittleEndian.Uint64(b[5:]))
		r.Trials = binary.LittleEndian.Uint32(b[13:])
		r.Rejected = binary.LittleEndian.Uint32(b[17:])
		getRNG(b[21:], &r.RNG)
		hops += uint64(r.Hops)
	}
	payload = payload[n*resultSize:]
	if hops > uint64(len(payload)/hopSize) {
		return nil, fmt.Errorf("%w: step response has %d bytes for %d hops", ErrCorrupt, len(payload), hops)
	}
	if hops > 0 {
		resp.Hops = make([]Hop, hops)
		for i := range resp.Hops {
			b := payload[i*hopSize:]
			resp.Hops[i] = Hop{
				Dst: temporal.Vertex(binary.LittleEndian.Uint32(b[0:])),
				At:  temporal.Time(binary.LittleEndian.Uint64(b[4:])),
			}
		}
		payload = payload[hops*hopSize:]
	}
	if len(payload) == 0 {
		return resp, nil
	}
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: step response span trailer short", ErrCorrupt)
	}
	m := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	// A response without spans omits the trailer entirely, so a zero count
	// here is a second spelling of the same message — reject it to keep the
	// encoding canonical (one message, one byte sequence).
	if m <= 0 || m > MaxFrameBytes/8 {
		return nil, fmt.Errorf("%w: step response span count %d", ErrCorrupt, m)
	}
	resp.Spans = make([]SpanSummary, 0, m)
	for i := 0; i < m; i++ {
		var s SpanSummary
		var err error
		s.Name, payload, err = readString(payload)
		if err != nil {
			return nil, err
		}
		if len(payload) < 24 {
			return nil, fmt.Errorf("%w: step response span record short", ErrCorrupt)
		}
		s.Shard = int32(binary.LittleEndian.Uint32(payload[0:]))
		s.StartMicros = int64(binary.LittleEndian.Uint64(payload[4:]))
		s.DurMicros = int64(binary.LittleEndian.Uint64(payload[12:]))
		s.Walkers = int32(binary.LittleEndian.Uint32(payload[20:]))
		payload = payload[24:]
		resp.Spans = append(resp.Spans, s)
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("%w: step response has %d trailing bytes", ErrCorrupt, len(payload))
	}
	return resp, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func readString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, fmt.Errorf("%w: string length missing", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n < 0 || n > len(b) {
		return "", nil, fmt.Errorf("%w: string length %d exceeds payload", ErrCorrupt, n)
	}
	return string(b[:n]), b[n:], nil
}

// WriteFrame writes one framed message to w.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if 1+len(payload) > MaxFrameBytes {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit %d", 1+len(payload), MaxFrameBytes)
	}
	hdr := make([]byte, frameHeaderSize+1, frameHeaderSize+1+len(payload))
	binary.LittleEndian.PutUint32(hdr[0:], uint32(1+len(payload)))
	crc := crc32.Update(0, castagnoli, []byte{typ})
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:], crc)
	hdr[8] = typ
	buf := append(hdr, payload...)
	_, err := w.Write(buf)
	return err
}

// FrameSize returns the on-wire size of a frame with the given payload
// length (header + type byte + payload).
func FrameSize(payloadLen int) int { return frameHeaderSize + 1 + payloadLen }

// BeginFrame starts an in-place frame: it appends a zeroed header and the
// type byte to buf. The caller appends the payload with the Append* encoders
// and finishes with SealFrame — encoding the payload directly into the frame
// buffer instead of encoding it separately and copying it in, which is the
// difference between two allocations per hop and zero on a warm connection.
// buf must be empty or end exactly at a frame boundary; the frame starts at
// len(buf).
func BeginFrame(buf []byte, typ byte) []byte {
	var hdr [frameHeaderSize]byte
	buf = append(buf, hdr[:]...)
	return append(buf, typ)
}

// SealFrame fills in the length and CRC of the single frame occupying buf
// (as started by BeginFrame at offset 0) and returns it ready to write.
func SealFrame(buf []byte) ([]byte, error) {
	if len(buf) < frameHeaderSize+1 {
		return nil, fmt.Errorf("wire: sealing short frame of %d bytes", len(buf))
	}
	body := buf[frameHeaderSize:]
	if len(body) > MaxFrameBytes {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", len(body), MaxFrameBytes)
	}
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(body, castagnoli))
	return buf, nil
}

// ReadFrame reads one framed message from r. io.EOF is returned unwrapped
// when the stream ends cleanly at a frame boundary.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	typ, payload, _, err = ReadFrameBuf(r, nil)
	return typ, payload, err
}

// ReadFrameBuf is ReadFrame with a caller-owned scratch buffer: the returned
// payload aliases buf (grown as needed and returned as newBuf), so it is
// valid only until the next ReadFrameBuf call with the same buffer. The
// per-connection loops on both sides use it to read every frame of a
// connection's lifetime into one allocation.
func ReadFrameBuf(r io.Reader, buf []byte) (typ byte, payload, newBuf []byte, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, buf, io.EOF
		}
		return 0, nil, buf, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:])
	want := binary.LittleEndian.Uint32(hdr[4:])
	if length == 0 || length > MaxFrameBytes {
		return 0, nil, buf, fmt.Errorf("%w: frame length %d", ErrCorrupt, length)
	}
	if uint32(cap(buf)) < length {
		buf = make([]byte, length)
	}
	body := buf[:length]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, buf, fmt.Errorf("wire: truncated frame: %w", err)
	}
	if crc32.Checksum(body, castagnoli) != want {
		return 0, nil, buf, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return body[0], body[1:], buf, nil
}

// Package chksum owns TEA's CRC-32C (Castagnoli) and the two checksummed
// layouts built on it.
//
// The integrity footer ends the binary files (edge streams, HPAT indices,
// stream snapshots): a 4-byte footer magic followed by the little-endian
// CRC-32C of every payload byte before it. Readers that find clean EOF where
// the footer would start accept the file as legacy (written before footers
// existed); a partial footer, wrong magic, or checksum mismatch is
// corruption.
//
// The record frame carries one typed message, in the write-ahead log's
// segments and on the shards' wire:
//
//	frame := length[4] crc[4] type[1] payload[length-1]
//
// length covers the type byte plus the payload; crc is the CRC-32C of those
// same bytes, so a flipped length, type, or payload byte fails verification.
// What a bad frame means (a torn log tail, a poisoned connection) is the
// caller's policy.
package chksum

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
)

// FooterSize is the on-disk footprint of the integrity footer.
const FooterSize = 8

// footerMagic marks the start of the footer ("TEAC" = TEA checksum).
var footerMagic = [4]byte{'T', 'E', 'A', 'C'}

// ErrFooter is the sentinel wrapped by every footer verification failure.
var ErrFooter = errors.New("chksum: bad integrity footer")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Writer hashes every byte written through it. Write the payload through a
// Writer, then append Footer() to the underlying stream.
type Writer struct {
	w io.Writer
	h hash.Hash32
}

// NewWriter wraps w with CRC-32C accounting.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, h: crc32.New(castagnoli)}
}

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	w.h.Write(p[:n])
	return n, err
}

// Footer renders the trailer for the bytes written so far.
func (w *Writer) Footer() [FooterSize]byte {
	var f [FooterSize]byte
	copy(f[:4], footerMagic[:])
	binary.LittleEndian.PutUint32(f[4:], w.h.Sum32())
	return f
}

// Reader hashes every byte read through it. Read the payload through a
// Reader, then call Verify against the underlying stream — reading the
// footer directly from the source keeps its bytes out of the checksum.
type Reader struct {
	r io.Reader
	h hash.Hash32
}

// NewReader wraps r with CRC-32C accounting.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, h: crc32.New(castagnoli)}
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	r.h.Write(p[:n])
	return n, err
}

// Verify reads the footer from src (the Reader's underlying stream) and
// checks it against the payload read so far. legacy is true — with a nil
// error — when src is already at clean EOF: a file written before footers
// existed. Any other shortfall, a wrong magic, or a checksum mismatch
// returns an error wrapping ErrFooter.
func (r *Reader) Verify(src io.Reader) (legacy bool, err error) {
	var f [FooterSize]byte
	n, err := io.ReadFull(src, f[:])
	if err == io.EOF && n == 0 {
		return true, nil
	}
	if err != nil {
		return false, fmt.Errorf("%w: truncated footer (%d of %d bytes)", ErrFooter, n, FooterSize)
	}
	if [4]byte(f[:4]) != footerMagic {
		return false, fmt.Errorf("%w: bad footer magic %x", ErrFooter, f[:4])
	}
	if got, want := r.h.Sum32(), binary.LittleEndian.Uint32(f[4:]); got != want {
		return false, fmt.Errorf("%w: checksum %08x, footer says %08x", ErrFooter, got, want)
	}
	return false, nil
}

// FrameHeaderSize is the fixed frame prefix: length[4] crc[4].
const FrameHeaderSize = 8

// Frame reading errors. A reader that hits either knows the frame is bad;
// the bytes that follow decide whether that is a torn tail or damage.
var (
	// ErrFrameLength: the length prefix is zero or above the reader's cap.
	ErrFrameLength = errors.New("chksum: bad frame length")
	// ErrFrameSum: the frame body fails its CRC.
	ErrFrameSum = errors.New("chksum: frame checksum mismatch")
)

// AppendFrame appends one frame carrying typ and payload to buf.
func AppendFrame(buf []byte, typ byte, payload []byte) []byte {
	start := len(buf)
	buf = append(BeginFrame(buf, typ), payload...)
	SealFrame(buf[start:])
	return buf
}

// BeginFrame starts a frame in place: it appends a zeroed header and the
// type byte to buf. The caller appends the payload and finishes the frame
// with SealFrame, so a payload is encoded straight into its frame.
func BeginFrame(buf []byte, typ byte) []byte {
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0, typ)
}

// SealFrame writes the header of frame, which holds exactly one frame as
// begun by BeginFrame, with the payload appended.
func SealFrame(frame []byte) {
	body := frame[FrameHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:], Checksum(body))
}

// ReadFrame reads one frame from r and checks it, returning its body (the
// type byte, then the payload). The body aliases buf, which is grown as
// needed and returned as newBuf, so reading every frame of a stream through
// one buffer allocates only when a frame outgrows it. maxBody caps the
// length prefix; a zero or larger length is ErrFrameLength, read no further.
// A body that fails its CRC is returned with ErrFrameSum, so the caller
// knows where the frame ended. A read error from the header is returned
// unwrapped (io.EOF on a clean end at a frame boundary); one from the body
// is returned wrapped.
func ReadFrame(r io.Reader, buf []byte, maxBody uint32) (body, newBuf []byte, err error) {
	if cap(buf) < FrameHeaderSize {
		buf = make([]byte, FrameHeaderSize)
	}
	hdr := buf[:FrameHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, buf, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:])
	want := binary.LittleEndian.Uint32(hdr[4:])
	if length == 0 || length > maxBody {
		return nil, buf, fmt.Errorf("%w %d", ErrFrameLength, length)
	}
	if cap(buf) < int(length) {
		buf = make([]byte, length)
	}
	body = buf[:length]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, buf, fmt.Errorf("chksum: truncated frame: %w", err)
	}
	if Checksum(body) != want {
		return body, buf, ErrFrameSum
	}
	return body, buf, nil
}

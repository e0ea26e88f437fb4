// Package transport puts the wire codec on an actual wire: a length-prefixed
// binary framing layer over TCP or Unix-domain sockets that carries
// batch.Packet and wire.Item payloads between a DUT-side client and the
// difftestd verification server.
//
// Framing is deliberately minimal — a fixed-size, pointer-free header
// followed by an opaque payload:
//
//	offset  size  field
//	     0     4  Magic  ("DTH1", little-endian 0x31485444)
//	     4     1  Type   (frame type, Frame* constants)
//	     5     1  Flags  (reserved, 0)
//	     6     2  reserved
//	     8     4  Length (payload bytes; ≤ MaxFrameBytes)
//	    12     8  Seq    (per-connection frame sequence number)
//	    20     4  Check  (CRC32-C over bytes 0..20 and the payload)
//
// The trailing checksum is what keeps verdicts trustworthy on an imperfect
// link: a flipped byte anywhere in the frame is detected at the receiver as a
// transport fault (*FrameError wrapping ErrBadChecksum) instead of reaching
// the checker as a mutated event — the session then resumes and the clean
// windowed copy is retransmitted, so the verdict stays byte-identical to an
// in-process run.
//
// Data frames (FramePacket, FrameItems) carry verification traffic encoded
// by the existing zero-allocation codec; control frames (handshake, credit,
// verdict, resume) carry small JSON payloads — they run once per session or
// per window, never per event, so readability wins over bytes there.
//
// Flow control mirrors Replay's token-managed buffering (paper §4.4): the
// server grants a token window in the Welcome frame, the client spends one
// token per data frame, and the server returns tokens with Credit frames as
// it consumes. A client that exhausts the window stalls, and the stall count
// surfaces as measured backpressure in pipeline.Metrics.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// ProtoVersion is the handshake protocol version this binary speaks.
// Version 2 widened the header with the CRC32-C Check field and added the
// Resume/ResumeOK control frames.
const ProtoVersion = 2

// FrameMagic marks every frame header ("DTH1" little-endian).
const FrameMagic uint32 = 0x31485444

// Frame types.
const (
	// FrameHello opens a session: client → server, JSON Hello payload.
	FrameHello uint8 = 1
	// FrameWelcome accepts a session and grants the initial token window:
	// server → client, JSON Welcome payload.
	FrameWelcome uint8 = 2
	// FramePacket carries one batch-packed packet (tight or fixed-offset
	// packing), exactly the packet's used bytes. Costs one token.
	FramePacket uint8 = 3
	// FrameItems carries bare wire items (the per-event baseline config).
	// Costs one token.
	FrameItems uint8 = 4
	// FrameEnd marks the clean end of the client's stream; the server
	// flushes its software side and answers with FrameDone.
	FrameEnd uint8 = 5
	// FrameCredit returns tokens to the client: server → client, JSON
	// Credit payload. Its Ack field acknowledges consumed data frames and
	// prunes the client's replay window.
	FrameCredit uint8 = 6
	// FrameVerdict carries the checker's mismatch diagnosis back to the
	// client as soon as it is detected: server → client, JSON Verdict.
	FrameVerdict uint8 = 7
	// FrameDone closes a session with the final verdict: server → client,
	// JSON Verdict payload.
	FrameDone uint8 = 8
	// FrameError reports a fatal session error (handshake rejection, decode
	// failure, idle reap): JSON ErrorInfo payload.
	FrameErrorInfo uint8 = 9
	// FrameResume reopens a parked session after a connection loss:
	// client → server as the first frame of a fresh connection, JSON Resume
	// payload naming the session, its resume token, and the last contiguous
	// data frame each direction saw.
	FrameResume uint8 = 10
	// FrameResumeOK accepts a resume: server → client, JSON ResumeOK payload
	// telling the client how far the server got (so the replay window is
	// pruned and the rest retransmitted) and regranting the token window.
	FrameResumeOK uint8 = 11
	// FrameStats polls health/occupancy: sent with an empty payload as the
	// first frame of a connection it asks for the endpoint's counters, and
	// the JSON StatsInfo reply comes back under the same kind. The fleet
	// router polls every shard with it; admin tools poll the router.
	FrameStats uint8 = 12
	// FrameDrain withdraws a shard from a fleet router's placement: JSON
	// DrainRequest in, JSON DrainReply out. Active sessions on the drained
	// shard are redirected and migrate via the resume machinery.
	FrameDrain uint8 = 13
	// FrameRedirect tells a mid-session client to redial and resume: JSON
	// Redirect payload naming the reason. The fleet router sends it before
	// closing a connection whose shard is draining or dead; the client's
	// reconnect/resume machinery replays the unacknowledged suffix on the
	// fresh connection, which the router places on a different shard.
	FrameRedirect uint8 = 14
)

// MaxFrameBytes bounds a frame payload; a header announcing more is corrupt
// (or hostile) and the connection is dropped before any allocation.
const MaxFrameBytes = 1 << 24

// FrameHeaderSize is the encoded size of FrameHeader.
const FrameHeaderSize = 24

// frameCheckOffset is where the Check field sits: the checksum covers every
// header byte before it plus the payload.
const frameCheckOffset = 20

// castagnoli is the CRC32-C table shared by every frame checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FrameHeader is the fixed-size, pointer-free frame prelude. It implements
// event.WireCodec; TestFrameHeaderEncodedSize pins its field layout to
// FrameHeaderSize, so a field added without updating the codec fails the
// transport tests.
type FrameHeader struct {
	Magic  uint32
	Type   uint8
	Flags  uint8
	_      [2]uint8
	Length uint32
	Seq    uint64
	Check  uint32
}

// EncodedSize returns the fixed wire size of the header.
func (h *FrameHeader) EncodedSize() int { return FrameHeaderSize }

// AppendTo appends the header's wire encoding to dst.
func (h *FrameHeader) AppendTo(dst []byte) []byte {
	var b [FrameHeaderSize]byte
	binary.LittleEndian.PutUint32(b[0:], h.Magic)
	b[4] = h.Type
	b[5] = h.Flags
	binary.LittleEndian.PutUint32(b[8:], h.Length)
	binary.LittleEndian.PutUint64(b[12:], h.Seq)
	binary.LittleEndian.PutUint32(b[frameCheckOffset:], h.Check)
	return append(dst, b[:]...)
}

// FrameCheckOffset is the offset of the Check field within an encoded
// header. The frame checksum covers every header byte before it, extended
// over the payload.
const FrameCheckOffset = frameCheckOffset

// ChecksumFrame computes the frame checksum over the raw encoded header
// prefix (the FrameCheckOffset bytes before the Check field) extended over
// payload. Byte-exact over the wire image — unlike FrameHeader.Sum, which
// re-encodes from struct fields and so cannot see corruption in the reserved
// bytes — making it the verify-side primitive for transports that alias
// received frames in place.
func ChecksumFrame(prefix, payload []byte) uint32 {
	return crc32Frame(prefix, payload)
}

// Sum computes the checksum the Check field must carry for this header and
// payload: CRC32-C over the encoded header bytes before Check, extended over
// the payload.
func (h *FrameHeader) Sum(payload []byte) uint32 {
	var b [frameCheckOffset]byte
	binary.LittleEndian.PutUint32(b[0:], h.Magic)
	b[4] = h.Type
	b[5] = h.Flags
	binary.LittleEndian.PutUint32(b[8:], h.Length)
	binary.LittleEndian.PutUint64(b[12:], h.Seq)
	sum := crc32.Checksum(b[:], castagnoli)
	if len(payload) > 0 {
		sum = crc32.Update(sum, castagnoli, payload)
	}
	return sum
}

// Frame decode errors.
var (
	// ErrShortHeader marks a header shorter than FrameHeaderSize.
	ErrShortHeader = errors.New("transport: short frame header")
	// ErrBadMagic marks a header whose magic does not match FrameMagic.
	ErrBadMagic = errors.New("transport: bad frame magic")
	// ErrFrameTooLarge marks a header announcing more than MaxFrameBytes.
	ErrFrameTooLarge = errors.New("transport: frame exceeds MaxFrameBytes")
	// ErrBadChecksum marks a frame whose CRC32-C does not cover its bytes —
	// the frame was corrupted in flight and must not reach the checker.
	ErrBadChecksum = errors.New("transport: frame checksum mismatch")
	// ErrSeqJump marks a frame whose sequence number is not the next
	// contiguous one for its connection direction.
	ErrSeqJump = errors.New("transport: frame sequence jump")
)

// DecodeFrom fills the header from the prefix of src and validates magic and
// length bounds, returning the number of bytes consumed. The checksum is not
// verified here — it covers the payload too, so Conn.ReadFrame verifies it
// once the payload is in hand.
func (h *FrameHeader) DecodeFrom(src []byte) (int, error) {
	if len(src) < FrameHeaderSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrShortHeader, len(src))
	}
	h.Magic = binary.LittleEndian.Uint32(src[0:])
	h.Type = src[4]
	h.Flags = src[5]
	h.Length = binary.LittleEndian.Uint32(src[8:])
	h.Seq = binary.LittleEndian.Uint64(src[12:])
	h.Check = binary.LittleEndian.Uint32(src[frameCheckOffset:])
	if h.Magic != FrameMagic {
		return 0, fmt.Errorf("%w: %#x", ErrBadMagic, h.Magic)
	}
	if h.Length > MaxFrameBytes {
		return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, h.Length)
	}
	return FrameHeaderSize, nil
}

// FrameError is the typed wrapper for every frame-level transport failure: a
// short or corrupt header, a checksum mismatch, a sequence jump, or a
// connection that died mid-frame. Op is "read" or "write"; Type and Seq
// locate the frame when they are known (a header that never arrived leaves
// them zero). It unwraps to the underlying cause, so errors.Is against
// io.ErrUnexpectedEOF, ErrBadChecksum, net timeouts, etc. all see through it.
type FrameError struct {
	Op   string // "read" or "write"
	Type uint8  // frame type, when the header was decoded
	Seq  uint64 // frame sequence, when the header was decoded
	Err  error
}

// Error formats the failure with its frame coordinates.
func (e *FrameError) Error() string {
	if e.Type == 0 && e.Seq == 0 {
		return fmt.Sprintf("transport: frame %s: %v", e.Op, e.Err)
	}
	return fmt.Sprintf("transport: frame %s (type %d seq %d): %v", e.Op, e.Type, e.Seq, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *FrameError) Unwrap() error { return e.Err }

// frameErr wraps err as a *FrameError unless it already is one.
func frameErr(op string, typ uint8, seq uint64, err error) error {
	var fe *FrameError
	if errors.As(err, &fe) {
		return err
	}
	return &FrameError{Op: op, Type: typ, Seq: seq, Err: err}
}

package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
)

// coalesceMax bounds the staged-write path: a frame whose header+payload fit
// within it is copied once into the scratch buffer and written with a single
// syscall; anything larger goes out as a two-element writev (net.Buffers) —
// one syscall, zero copies — so big packets never pay a memcpy just to avoid
// a second write.
const coalesceMax = 8 << 10

// Conn frames a net.Conn: vectored, deadline-bounded writes and
// header-validated reads into pooled buffers with a read deadline. It is the
// socket-backed FrameTransport; reads and writes are independently
// goroutine-safe (one reader, one writer is the intended shape; concurrent
// writers serialize on a mutex).
type Conn struct {
	c  net.Conn
	br *bufio.Reader

	writeMu    sync.Mutex
	writeSeq   uint64
	writeArmed bool        // a write deadline is set and must be cleared if WriteTimeout drops to 0
	scratch    []byte      // header + coalesced-payload staging, reused across writes
	vecs       net.Buffers // header+payload iovec staging for the writev path

	readSeq   uint64
	readArmed bool // a read deadline is set and must be cleared if ReadTimeout drops to 0

	interrupted atomic.Bool // SetDeadlineNow was called: every later read fails

	// ReadTimeout bounds one blocking ReadFrame (0 = no deadline); the
	// server uses it as the idle-session reaping horizon. WriteTimeout
	// bounds one WriteFrame flush.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
}

// Conn implements the transport seam.
var _ FrameTransport = (*Conn)(nil)

// NewConn wraps an established network connection.
func NewConn(c net.Conn) *Conn {
	return &Conn{
		c:       c,
		br:      bufio.NewReaderSize(c, 64<<10),
		scratch: make([]byte, 0, FrameHeaderSize),
	}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// SetDeadlineNow interrupts any blocked read or write, and fails every later
// read; used by the server's forced-drain path. Without the flag a
// force-drained session whose handler was busy at that moment would read on:
// ReadFrame re-arms the socket deadline per frame and may be served from its
// read buffer. Writes are not flagged: WriteFrame re-arms its own deadline,
// so the handler can still say goodbye (an "idle" ErrorInfo) on its way out.
func (c *Conn) SetDeadlineNow() {
	c.interrupted.Store(true)
	c.c.SetDeadline(time.Now())
}

// SetReadTimeout bounds one blocking ReadFrame (0 = no deadline).
func (c *Conn) SetReadTimeout(d time.Duration) { c.ReadTimeout = d }

// SetWriteTimeout bounds one WriteFrame flush (0 = no deadline).
func (c *Conn) SetWriteTimeout(d time.Duration) { c.WriteTimeout = d }

// RemoteAddr reports the peer address for logging.
func (c *Conn) RemoteAddr() string { return c.c.RemoteAddr().String() }

// ReleasePayload returns a ReadFrame payload to the buffer pool; nil
// (zero-length frame) needs no release.
func (c *Conn) ReleasePayload(buf []byte) {
	if buf != nil {
		event.PutBuf(buf)
	}
}

// WriteFrame sends one frame. The payload is not retained. Errors are typed
// *FrameError so callers can locate the failing frame.
//
// Small frames (≤ coalesceMax) are staged header+payload into one scratch
// buffer and leave in a single Write; larger frames leave as a single writev
// (net.Buffers) with no payload copy. Either way the frame costs exactly one
// syscall on a socket — the old bufio path cost a copy always and two
// syscalls beyond its buffer size.
func (c *Conn) WriteFrame(typ uint8, payload []byte) error {
	if len(payload) > MaxFrameBytes {
		return frameErr("write", typ, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload)))
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	// Arm or clear the write deadline per frame, mirroring the read side: a
	// deadline a previous phase armed (the dial handshake) must not keep
	// ticking into a deliberately unbounded write, and with a timeout set, a
	// stalled peer whose socket buffer filled up cannot hang WriteFrame
	// forever.
	if c.WriteTimeout > 0 {
		if err := c.c.SetWriteDeadline(time.Now().Add(c.WriteTimeout)); err != nil {
			return frameErr("write", typ, c.writeSeq, err)
		}
		c.writeArmed = true
	} else if c.writeArmed {
		if err := c.c.SetWriteDeadline(time.Time{}); err != nil {
			return frameErr("write", typ, c.writeSeq, err)
		}
		c.writeArmed = false
	}
	h := FrameHeader{Magic: FrameMagic, Type: typ, Length: uint32(len(payload)), Seq: c.writeSeq}
	c.scratch = h.AppendTo(c.scratch[:0])
	// The staged header bytes before Check are exactly what Sum covers, so
	// checksum the staging buffer rather than re-encoding the fields.
	sum := crc32Frame(c.scratch[:frameCheckOffset], payload)
	binary.LittleEndian.PutUint32(c.scratch[frameCheckOffset:], sum)
	seq := c.writeSeq
	c.writeSeq++
	if FrameHeaderSize+len(payload) <= coalesceMax {
		c.scratch = append(c.scratch, payload...)
		if _, err := c.c.Write(c.scratch); err != nil {
			return frameErr("write", typ, seq, err)
		}
		return nil
	}
	// Vectored path: header and payload go out in one writev without a copy.
	// WriteTo consumes the iovec in place, so rebuild it from the persistent
	// field each frame — no per-frame allocation.
	c.vecs = append(c.vecs[:0], c.scratch, payload)
	if _, err := c.vecs.WriteTo(c.c); err != nil {
		return frameErr("write", typ, seq, err)
	}
	return nil
}

// ReadFrame reads one frame. The returned payload is a pooled buffer
// (event.GetBuf) that ownership-transfers to the caller: release it with
// ReleasePayload (or event.PutBuf) once consumed, so the pool's get/put
// balance holds across a session. A zero-length payload returns nil and
// needs no release.
//
// Error contract: a connection that closes cleanly between frames returns
// bare io.EOF. Everything else — a connection dying mid-frame (wrapped
// io.ErrUnexpectedEOF), a corrupt header, a checksum mismatch, a sequence
// jump, a deadline expiry — returns a typed *FrameError so callers can tell
// "the stream ended" from "the stream broke".
func (c *Conn) ReadFrame() (FrameHeader, []byte, error) {
	var h FrameHeader
	if c.ReadTimeout > 0 {
		if err := c.c.SetReadDeadline(time.Now().Add(c.ReadTimeout)); err != nil {
			return h, nil, frameErr("read", 0, c.readSeq, err)
		}
		c.readArmed = true
	} else if c.readArmed {
		// The deadline a previous phase armed (e.g. the dial handshake) would
		// otherwise keep ticking and kill a deliberately unbounded read.
		if err := c.c.SetReadDeadline(time.Time{}); err != nil {
			return h, nil, frameErr("read", 0, c.readSeq, err)
		}
		c.readArmed = false
	}
	// Checked after arming: a SetDeadlineNow racing the arm either sees its
	// expired deadline win or is seen here.
	if c.interrupted.Load() {
		return h, nil, frameErr("read", 0, c.readSeq, os.ErrDeadlineExceeded)
	}
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		if err == io.EOF {
			// No header byte arrived: the peer closed at a frame boundary.
			// This is the only clean way for a stream to end.
			return h, nil, io.EOF
		}
		// Some header bytes arrived, then the connection died: mid-frame.
		return h, nil, frameErr("read", 0, c.readSeq, err)
	}
	if _, err := h.DecodeFrom(hdr[:]); err != nil {
		return h, nil, frameErr("read", 0, c.readSeq, err)
	}
	var buf []byte
	if h.Length > 0 {
		buf = event.GetBuf(int(h.Length))[:h.Length]
		if _, err := io.ReadFull(c.br, buf); err != nil {
			event.PutBuf(buf)
			if err == io.EOF {
				// The header promised a payload that never came: mid-frame,
				// not a clean shutdown.
				err = io.ErrUnexpectedEOF
			}
			return h, nil, frameErr("read", h.Type, h.Seq, err)
		}
	}
	// Verify the checksum before trusting any header field beyond Length —
	// in particular before the sequence check, so a corrupted Seq byte
	// reports as corruption, not as a protocol violation.
	if sum := crc32Frame(hdr[:frameCheckOffset], buf); sum != h.Check {
		if buf != nil {
			event.PutBuf(buf)
		}
		return h, nil, frameErr("read", h.Type, h.Seq,
			fmt.Errorf("%w: computed %#x, header says %#x", ErrBadChecksum, sum, h.Check))
	}
	if h.Seq != c.readSeq {
		if buf != nil {
			event.PutBuf(buf)
		}
		return h, nil, frameErr("read", h.Type, h.Seq,
			fmt.Errorf("%w: from %d to %d", ErrSeqJump, c.readSeq, h.Seq))
	}
	c.readSeq++
	return h, buf, nil
}

// crc32Frame extends the CRC32-C of the pre-Check header bytes over the
// payload; kept beside ReadFrame/WriteFrame so both ends share one
// definition with FrameHeader.Sum.
func crc32Frame(hdrPrefix, payload []byte) uint32 {
	sum := crc32.Checksum(hdrPrefix, castagnoli)
	if len(payload) > 0 {
		sum = crc32.Update(sum, castagnoli, payload)
	}
	return sum
}

package shmring

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/event"
	"repro/internal/transport"
)

// Connection-level errors.
var (
	// ErrPeerClosed marks a write against a ring whose consumer has closed.
	ErrPeerClosed = errors.New("shmring: peer closed")
	// ErrClosed marks an operation on a locally closed connection.
	ErrClosed = errors.New("shmring: use of closed connection")
	// ErrRingCorrupt marks ring contents that violate the frame protocol —
	// the shared mapping was scribbled on, or the peer is broken.
	ErrRingCorrupt = errors.New("shmring: ring corrupt")
)

// timeoutError implements net.Error's Timeout() so the server's idle-reap
// and the client's stall detection treat ring deadline expiry exactly like a
// socket deadline expiry.
type timeoutError struct{ op string }

func (e *timeoutError) Error() string   { return "shmring: " + e.op + " deadline exceeded" }
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }

// Spin-then-park tuning — one knob, three numbers. A blocked ring operation
// first burns spinYields scheduler yields (the common case: the peer refills
// or drains the ring within a scheduling quantum, so the wait never leaves
// the spin phase), then sleeps, doubling from parkSleepMin up to the
// parkSleepMax ceiling so an idle connection costs no CPU. The three move
// together: a wider spin burst buys latency with busy CPU, a higher sleep
// ceiling buys idle power with wakeup latency, and a lower parkSleepMin just
// shifts where the doubling ladder starts. LinkStats counts how often each
// side outlasts the spin phase — if WriterParks/ReaderParks dominate frame
// counts in a steady-state run, the burst is too short for that workload;
// re-derive against BenchmarkShmFrameRoundTrip before touching any of them.
const (
	spinYields   = 128
	parkSleepMin = 5 * time.Microsecond
	parkSleepMax = 200 * time.Microsecond
)

// parker is the per-operation ladder state: zero value = start of the spin
// phase. ReadFrame/ReserveFrame thread one through their retry loop and
// reset it on progress, so every fresh wait restarts with yields, not
// sleeps.
type parker struct {
	spin  int
	sleep time.Duration
}

func (p *parker) reset() { p.spin, p.sleep = 0, 0 }

// role distinguishes the two ends of a segment: the dialer produces ring 0
// and consumes ring 1, the accepter the reverse.
type role int

const (
	roleClient role = iota
	roleServer
)

// Conn is one end of a shared-memory ring connection. It implements
// transport.FrameTransport: one producer goroutine and one consumer
// goroutine, exactly like the socket Conn (WriteFrame additionally
// serializes concurrent writers on a mutex; ReserveFrame/CommitFrame are
// single-producer only).
type Conn struct {
	seg    *segment
	wr, rd ring
	remote string

	writeMu  sync.Mutex
	writeSeq uint64
	// staged* hold an open ReserveFrame reservation until CommitFrame.
	stagedPos  uint64 // payload start position in wr.data
	stagedPad  uint64
	stagedHead uint64
	stagedCap  int
	staged     bool

	readSeq uint64
	// pendingAdvance is the consumed-but-unreleased frame's total ring bytes;
	// ReleasePayload stores the advanced tail, returning the slot to the
	// producer.
	pendingAdvance uint64

	readTimeout  atomic.Int64 // nanoseconds; 0 = no deadline
	writeTimeout atomic.Int64
	interrupted  atomic.Bool // SetDeadlineNow: fail all blocked/future waits
	closed       atomic.Bool

	writerParks atomic.Uint64
	readerParks atomic.Uint64

	closeOnce sync.Once
	closeErr  error
}

var _ transport.FrameTransport = (*Conn)(nil)
var _ transport.StatsReporter = (*Conn)(nil)

// newConn binds one end of a segment.
func newConn(seg *segment, r role, remote string) *Conn {
	c := &Conn{seg: seg, remote: remote}
	if r == roleClient {
		c.wr, c.rd = seg.ring(0), seg.ring(1)
	} else {
		c.wr, c.rd = seg.ring(1), seg.ring(0)
	}
	return c
}

// MaxPayload reports the largest payload one frame can carry on this ring.
func (c *Conn) MaxPayload() int { return maxPayload(c.seg.ringBytes) }

// RemoteAddr reports the rendezvous address for logging.
func (c *Conn) RemoteAddr() string { return c.remote }

// SetReadTimeout bounds one blocking ReadFrame (0 = no deadline).
func (c *Conn) SetReadTimeout(d time.Duration) { c.readTimeout.Store(int64(d)) }

// SetWriteTimeout bounds one blocking WriteFrame (0 = no deadline).
func (c *Conn) SetWriteTimeout(d time.Duration) { c.writeTimeout.Store(int64(d)) }

// SetDeadlineNow interrupts any blocked read or write; like an expired
// socket deadline, the connection stays interrupted (the server only uses
// this to force-drain before closing).
func (c *Conn) SetDeadlineNow() { c.interrupted.Store(true) }

// LinkStats reports how often each side outlasted its spin phase.
func (c *Conn) LinkStats() transport.LinkStats {
	return transport.LinkStats{
		WriterParks: c.writerParks.Load(),
		ReaderParks: c.readerParks.Load(),
	}
}

// Close closes this end: the peer's reader drains the ring and sees EOF, the
// peer's writer sees ErrPeerClosed, and this end's own blocked operations
// return ErrClosed.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		c.wr.prodClosed.Store(1)
		c.rd.consClosed.Store(1)
		c.closeErr = c.seg.release()
	})
	return c.closeErr
}

// park waits one step of the spin-then-park ladder, failing on deadline
// expiry, interruption, or local close. p carries the ladder state across
// iterations of the caller's retry loop.
func (c *Conn) park(op string, deadline time.Time, parks *atomic.Uint64, p *parker) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if c.interrupted.Load() {
		return &timeoutError{op: op}
	}
	if p.spin < spinYields {
		p.spin++
		runtime.Gosched()
		return nil
	}
	if p.sleep == 0 {
		p.sleep = parkSleepMin
		parks.Add(1)
	} else if p.sleep < parkSleepMax {
		p.sleep *= 2
	}
	if !deadline.IsZero() && time.Now().After(deadline) {
		return &timeoutError{op: op}
	}
	time.Sleep(p.sleep)
	return nil
}

// deadlineFor converts a timeout knob into an absolute deadline (zero time =
// no deadline).
func deadlineFor(d int64) time.Time {
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(time.Duration(d))
}

// WriteFrame sends one frame; the payload is copied into the ring (use
// ReserveFrame/CommitFrame to encode in place instead). Errors are typed
// *transport.FrameError, like the socket path.
func (c *Conn) WriteFrame(typ uint8, payload []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	slot, err := c.ReserveFrame(len(payload))
	if err != nil {
		return err
	}
	copy(slot, payload)
	return c.CommitFrame(typ, len(payload))
}

// AdoptWriteFrame sends one frame whose payload is a pooled buffer
// (event.GetBuf) the caller hands off: the buffer is staged into the ring
// and returned to the pool, win or lose — the send-side mirror of
// ReadFrame's ownership transfer.
func (c *Conn) AdoptWriteFrame(typ uint8, buf []byte) error {
	err := c.WriteFrame(typ, buf)
	event.PutBuf(buf)
	return err
}

// ReserveFrame claims a frame slot with room for up to max payload bytes and
// returns the payload region, aliasing the ring, for the caller to encode
// into. CommitFrame publishes it; until then nothing is visible to the
// consumer. Single-producer only — concurrent writers must use WriteFrame.
func (c *Conn) ReserveFrame(max int) ([]byte, error) {
	if c.staged {
		return nil, frameErr("write", 0, c.writeSeq, errors.New("shmring: ReserveFrame with a reservation already open"))
	}
	if max > maxPayload(c.seg.ringBytes) {
		return nil, frameErr("write", 0, c.writeSeq,
			fmt.Errorf("%w: %d bytes (ring carries at most %d)", transport.ErrFrameTooLarge, max, maxPayload(c.seg.ringBytes)))
	}
	w := &c.wr
	ringBytes := uint64(len(w.data))
	need := uint64(transport.FrameHeaderSize + max)
	deadline := deadlineFor(c.writeTimeout.Load())
	var p parker
	for {
		if c.closed.Load() {
			return nil, frameErr("write", 0, c.writeSeq, ErrClosed)
		}
		if w.consClosed.Load() != 0 {
			return nil, frameErr("write", 0, c.writeSeq, ErrPeerClosed)
		}
		head := w.head.Load()
		pos := head & w.mask
		contig := ringBytes - pos
		var pad uint64
		if need > contig {
			pad = contig
		}
		if space := ringBytes - (head - w.tail.Load()); pad+need > space {
			if err := c.park("write", deadline, &c.writerParks, &p); err != nil {
				return nil, frameErr("write", 0, c.writeSeq, err)
			}
			continue
		}
		if pad > 0 {
			if contig >= 4 {
				binary.LittleEndian.PutUint32(w.data[pos:], padMagic)
			}
			pos = 0
		}
		c.stagedHead, c.stagedPad, c.stagedPos, c.stagedCap, c.staged = head, pad, pos, max, true
		start := pos + transport.FrameHeaderSize
		return w.data[start : start+uint64(max) : start+uint64(max)], nil
	}
}

// CommitFrame seals the open reservation as a typ frame with used payload
// bytes (≤ the reserved max) and publishes it with a single head store.
func (c *Conn) CommitFrame(typ uint8, used int) error {
	if !c.staged {
		return frameErr("write", typ, c.writeSeq, errors.New("shmring: CommitFrame without a reservation"))
	}
	if used < 0 || used > c.stagedCap {
		return frameErr("write", typ, c.writeSeq,
			fmt.Errorf("shmring: commit of %d bytes exceeds the %d-byte reservation", used, c.stagedCap))
	}
	c.staged = false
	w := &c.wr
	pos := c.stagedPos
	h := transport.FrameHeader{Magic: transport.FrameMagic, Type: typ, Length: uint32(used), Seq: c.writeSeq}
	payload := w.data[pos+transport.FrameHeaderSize : pos+transport.FrameHeaderSize+uint64(used)]
	// Encode the header into the ring first, then checksum the encoded bytes
	// in place: ChecksumFrame reads the wire image directly, so the hot path
	// stays allocation-free (FrameHeader.Sum's scratch buffer escapes).
	h.AppendTo(w.data[pos : pos : pos+transport.FrameHeaderSize])
	check := transport.ChecksumFrame(w.data[pos:pos+transport.FrameCheckOffset], payload)
	binary.LittleEndian.PutUint32(w.data[pos+transport.FrameCheckOffset:], check)
	// The release-publish: every byte above must be written before this
	// store; Go atomics' sequential consistency provides the fence.
	w.head.Store(c.stagedHead + c.stagedPad + uint64(transport.FrameHeaderSize) + uint64(used))
	c.writeSeq++
	return nil
}

// ReadFrame reads one frame. The returned payload aliases the ring — zero
// copies — and holds its slot until ReleasePayload (a new ReadFrame call
// auto-releases it, so the at-most-one-outstanding-payload discipline of the
// server and client loops needs no extra bookkeeping). Error contract
// matches the socket path: bare io.EOF only when the peer closed at a frame
// boundary (the only way a ring can end — publishes are whole frames),
// *transport.FrameError otherwise.
func (c *Conn) ReadFrame() (transport.FrameHeader, []byte, error) {
	var h transport.FrameHeader
	if c.pendingAdvance != 0 {
		c.advanceRead()
	}
	r := &c.rd
	ringBytes := uint64(len(r.data))
	deadline := deadlineFor(c.readTimeout.Load())
	var p parker
	for {
		if c.closed.Load() {
			return h, nil, frameErr("read", 0, c.readSeq, ErrClosed)
		}
		tail := r.tail.Load()
		head := r.head.Load()
		if head == tail {
			if r.prodClosed.Load() != 0 {
				// Re-check after observing the close so a frame published
				// just before it is not lost.
				if r.head.Load() == tail {
					return h, nil, io.EOF
				}
				continue
			}
			if err := c.park("read", deadline, &c.readerParks, &p); err != nil {
				return h, nil, frameErr("read", 0, c.readSeq, err)
			}
			continue
		}
		pos := tail & r.mask
		contig := ringBytes - pos
		if contig < transport.FrameHeaderSize ||
			binary.LittleEndian.Uint32(r.data[pos:]) == padMagic {
			// Pad-to-wrap skip; the frame it preceded is at the boundary.
			r.tail.Store(tail + contig)
			p.reset()
			continue
		}
		if _, err := h.DecodeFrom(r.data[pos : pos+transport.FrameHeaderSize]); err != nil {
			return h, nil, frameErr("read", 0, c.readSeq, fmt.Errorf("%w: %v", ErrRingCorrupt, err))
		}
		total := uint64(transport.FrameHeaderSize) + uint64(h.Length)
		if total > head-tail || total > contig {
			return h, nil, frameErr("read", h.Type, h.Seq, fmt.Errorf(
				"%w: header announces %d payload bytes beyond the published frame", ErrRingCorrupt, h.Length))
		}
		start := pos + transport.FrameHeaderSize
		payload := r.data[start : start+uint64(h.Length) : start+uint64(h.Length)]
		// Checksum the raw ring bytes, not a re-encoding of the decoded
		// header, so flips in the reserved bytes are caught too.
		if sum := transport.ChecksumFrame(r.data[pos:pos+transport.FrameCheckOffset], payload); sum != h.Check {
			return h, nil, frameErr("read", h.Type, h.Seq,
				fmt.Errorf("%w: computed %#x, header says %#x", transport.ErrBadChecksum, sum, h.Check))
		}
		if h.Seq != c.readSeq {
			return h, nil, frameErr("read", h.Type, h.Seq,
				fmt.Errorf("%w: from %d to %d", transport.ErrSeqJump, c.readSeq, h.Seq))
		}
		c.readSeq++
		if h.Length == 0 {
			r.tail.Store(tail + total)
			return h, nil, nil
		}
		c.pendingAdvance = total
		return h, payload, nil
	}
}

// ReleasePayload returns a ReadFrame payload to its owner. A ring-aliasing
// payload releases its slot by advancing tail; anything else (a pooled
// buffer a caller routed here by mistake, or from a different transport
// behind the same seam) goes back to the event pool.
func (c *Conn) ReleasePayload(buf []byte) {
	if buf == nil {
		return
	}
	if c.owns(buf) {
		c.advanceRead()
		return
	}
	event.PutBuf(buf)
}

// owns reports whether buf aliases this connection's read ring.
func (c *Conn) owns(buf []byte) bool {
	if cap(buf) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(c.rd.data)))
	return p >= lo && p < lo+uintptr(len(c.rd.data))
}

// advanceRead publishes the pending tail advance, returning the consumed
// frame's bytes to the producer.
func (c *Conn) advanceRead() {
	if c.pendingAdvance == 0 {
		return
	}
	c.rd.tail.Store(c.rd.tail.Load() + c.pendingAdvance)
	c.pendingAdvance = 0
}

// frameErr wraps err as a *transport.FrameError unless it already is one.
func frameErr(op string, typ uint8, seq uint64, err error) error {
	var fe *transport.FrameError
	if errors.As(err, &fe) {
		return err
	}
	return &transport.FrameError{Op: op, Type: typ, Seq: seq, Err: err}
}

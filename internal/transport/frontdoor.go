package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// FrontDoor is the accept side shared by difftestd's Server and the fleet
// router: the listener and live-connection registry, one accept loop, and the
// per-connection goroutine with its cleanup. What each connection means is
// the owner's handler; how the owner stops (drain or cut) is the owner's
// sequence of Close, Interrupt and Wait. The zero value is ready to use.
type FrontDoor struct {
	mu        sync.Mutex
	listeners map[FrameListener]struct{}
	conns     map[FrameTransport]struct{}
	closed    bool
	wg        sync.WaitGroup
}

// Serve accepts connections on l until the listener closes, running handle
// on its own goroutine for each and closing the connection when handle
// returns. After Close it returns nil; a listener that fails on its own
// returns its error.
func (d *FrontDoor) Serve(l FrameListener, handle func(FrameTransport)) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		l.Close()
		return errors.New("transport: front door is closed")
	}
	if d.listeners == nil {
		d.listeners = make(map[FrameListener]struct{})
		d.conns = make(map[FrameTransport]struct{})
	}
	d.listeners[l] = struct{}{}
	d.mu.Unlock()

	for {
		conn, err := l.AcceptFrame()
		if err != nil {
			d.mu.Lock()
			closed := d.closed
			delete(d.listeners, l)
			d.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			conn.Close()
			return nil
		}
		d.conns[conn] = struct{}{}
		d.mu.Unlock()
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			defer func() {
				d.mu.Lock()
				delete(d.conns, conn)
				d.mu.Unlock()
				conn.Close()
			}()
			handle(conn)
		}()
	}
}

// Close stops accepting: every listener closes and later Serve calls fail.
// Live connections are left alone. Idempotent.
func (d *FrontDoor) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	for l := range d.listeners {
		l.Close()
	}
}

// Interrupt fails every live connection's blocked read or write; with
// closeConns set it also closes them, so nothing more crosses the link.
func (d *FrontDoor) Interrupt(closeConns bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for c := range d.conns {
		c.SetDeadlineNow()
		if closeConns {
			c.Close()
		}
	}
}

// Wait blocks until every connection handler has returned. If ctx ends
// first it interrupts the stragglers, still waits for them, and returns
// ctx.Err().
func (d *FrontDoor) Wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		d.Interrupt(false)
		<-done
		return ctx.Err()
	}
}

// Call is one control round trip: it sends req (nil sends an empty payload)
// as a typ frame and reads the single reply. A want reply decodes into
// reply; an ErrorInfo reply is returned as the peer's refusal; any other kind
// is an error naming it. The reply payload is released before Call returns,
// so the caller may hand the transport to another reader at once (on the shm
// ring a release racing a later ReadFrame corrupts the cursor).
func Call(conn FrameTransport, typ uint8, req any, want uint8, reply any) (*ErrorInfo, error) {
	var out []byte
	if req != nil {
		out = EncodeControl(req)
	}
	if err := conn.WriteFrame(typ, out); err != nil {
		return nil, err
	}
	h, payload, err := conn.ReadFrame()
	if err != nil {
		return nil, err
	}
	defer conn.ReleasePayload(payload)
	if h.Type == want {
		return nil, DecodeControl(h.Type, payload, reply)
	}
	if h.Type == FrameErrorInfo {
		var ei ErrorInfo
		if err := DecodeControl(h.Type, payload, &ei); err != nil {
			return nil, err
		}
		return &ei, nil
	}
	return nil, fmt.Errorf("transport: unexpected frame type %d in reply to frame type %d (want %d)", h.Type, typ, want)
}

// Handshake opens a session on conn: it sends hello exactly as given (a
// router relays its client's Hello unmodified) and returns the Welcome, or
// the server's refusal. A Welcome granting no tokens is an error.
func Handshake(conn FrameTransport, hello Hello) (Welcome, *ErrorInfo, error) {
	var w Welcome
	ei, err := Call(conn, FrameHello, &hello, FrameWelcome, &w)
	if ei == nil && err == nil && w.Tokens <= 0 {
		err = fmt.Errorf("transport: server granted a %d-token window", w.Tokens)
	}
	return w, ei, err
}

// ServeStats answers health polls on a dedicated connection: every inbound
// FrameStats gets a fresh snapshot reply, so a poller can hold the
// connection open on its own cadence. Any other frame, EOF, or idle without
// a poll ends the loop.
func ServeStats(conn FrameTransport, snapshot func() StatsInfo, idle time.Duration) {
	for {
		if err := conn.WriteFrame(FrameStats, EncodeControl(snapshot())); err != nil {
			return
		}
		conn.SetReadTimeout(idle)
		h, payload, err := conn.ReadFrame()
		if err != nil {
			return
		}
		conn.ReleasePayload(payload)
		if h.Type != FrameStats {
			Refuse(conn, nil, "decode", fmt.Sprintf("expected Stats poll, got frame type %d", h.Type))
			return
		}
	}
}

// Refuse sends an ErrorInfo frame — the refusal a connection gets before it
// is given up — and logs it through logf when logf is set.
func Refuse(conn FrameTransport, logf func(format string, args ...any), code, msg string) {
	if logf != nil {
		logf("refused (%s): %s", code, msg)
	}
	conn.WriteFrame(FrameErrorInfo, EncodeControl(&ErrorInfo{Code: code, Msg: msg}))
}

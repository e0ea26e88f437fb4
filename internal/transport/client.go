package transport

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/checker"
	"repro/internal/event"
	"repro/internal/wire"
)

// ErrSessionLost marks a session that could not be recovered: the reconnect
// retry budget ran out, or the server refused the resume (unknown/expired
// session, token mismatch). Callers holding the full input stream — cosim's
// remote mode does — can degrade to in-process checking on this error.
var ErrSessionLost = errors.New("transport: session lost")

// Client retry defaults, used when the ClientConfig knob is zero.
const (
	DefaultMaxRetries  = 5
	DefaultBackoffBase = 50 * time.Millisecond
	DefaultBackoffMax  = 2 * time.Second
)

// ClientConfig tunes the DUT-side endpoint.
type ClientConfig struct {
	// DialTimeout bounds the connect + handshake (0 = 10s).
	DialTimeout time.Duration
	// WriteTimeout bounds each data-frame flush (0 = DefaultWriteTimeout).
	WriteTimeout time.Duration

	// Deprecated: ignored; every client resumes.
	Resume bool
	// MaxRetries is the reconnect budget per disconnect (0 = DefaultMaxRetries).
	// When it runs out the session fails with ErrSessionLost.
	MaxRetries int
	// BackoffBase is the first retry delay; each retry doubles it up to
	// BackoffMax, jittered ±50% (0 = DefaultBackoffBase / DefaultBackoffMax).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// StallTimeout, when positive, bounds how long a send may wait for a
	// window token or Finish may wait for the verdict before the connection
	// is declared silently stalled and recovery kicks in. Zero disables
	// stall detection.
	StallTimeout time.Duration
	// JitterSeed seeds the backoff jitter stream so tests replay the exact
	// retry schedule (0 = a fixed default seed).
	JitterSeed int64

	// Dial, when set, replaces the network dial for both the initial
	// connection and every reconnect — the hook fault-injection tests use to
	// route connections through faultnet or to fail reconnects on purpose.
	Dial func(spec string) (net.Conn, error)
}

// pendingFrame is one unacknowledged data frame held for retransmission: the
// frame's own pooled buffer, released when the server's Credit.Ack (or a
// ResumeOK.Have) covers its index.
type pendingFrame struct {
	idx uint64 // 1-based data-frame index within the session
	typ uint8
	buf []byte // pooled (event.GetBuf), exactly the payload bytes
}

// connGen is one connection generation: the framed transport, its token
// window, and the channels its reader goroutine uses to signal death. A
// reconnect builds a fresh generation; the producer goroutine is the only
// writer of Client.gen.
type connGen struct {
	conn   FrameTransport
	tokens chan struct{}

	dieOnce sync.Once
	err     error         // first conn-level failure, set before dead closes
	dead    chan struct{} // closed on conn-level failure (recoverable)
	exited  chan struct{} // closed when the reader goroutine returns
}

// die records a conn-level failure and wakes the producer.
func (g *connGen) die(err error) {
	g.dieOnce.Do(func() {
		g.err = err
		close(g.dead)
	})
}

// Client streams one DUT session to a difftestd server: data frames out
// under the token window, credits and verdicts in on a reader goroutine.
// Every data frame stays in the replay window until the server acknowledges
// it, so a broken connection is recovered by reconnecting with exponential
// backoff + jitter and continuing from the server's acknowledged prefix.
// Through a fleet router no ack is durable (a resume rebuilds the session on
// a fresh shard), so a routed client keeps its whole stream.
// Send methods are not goroutine-safe (one producer); the reader goroutine
// is internal. All recovery — backoff, redial, resume handshake,
// retransmission — runs on the producer goroutine; the reader only signals.
type Client struct {
	cfg     ClientConfig
	spec    string
	welcome Welcome

	gen *connGen // producer-owned; swapped on recovery

	// dataSent counts data frames sent this session (producer-owned); it is
	// the client's "Sent" in the resume exchange.
	dataSent uint64
	endSent  bool // producer-owned: FrameEnd went out at least once

	// stalls counts sends that found the window empty — the client-side
	// backpressure measurement (paper §4.4's token exhaustion).
	stalls     atomic.Uint64
	reconnects atomic.Uint64
	replayed   atomic.Uint64
	migrations atomic.Uint64

	stopped atomic.Bool // a verdict or error arrived; stop producing

	mu      sync.Mutex
	pending []pendingFrame // unacknowledged replay window, ascending idx
	acked   uint64         // highest Credit.Ack / ResumeOK.Have seen
	verdict *Verdict       // mismatch verdict (FrameVerdict), if any
	final   *Verdict       // FrameDone payload
	readErr error

	doneOnce sync.Once
	done     chan struct{} // closed on a terminal state: final verdict or fatal error

	rng *rand.Rand // backoff jitter; producer-owned
}

// Dial connects to a difftestd server (spec per ParseSpec: tcp://, unix://,
// shm://, or the legacy forms), performs the handshake, and starts the
// credit/verdict reader.
func Dial(spec string, hello Hello, cfg ClientConfig) (*Client, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = DefaultBackoffMax
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = 0x6a69747465720a // "jitter"
	}

	c := &Client{
		cfg:  cfg,
		spec: spec,
		done: make(chan struct{}),
		rng:  rand.New(rand.NewPCG(uint64(seed), 0xbac0ff)),
	}
	conn, err := c.dialTransport()
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", spec, err)
	}
	conn.SetWriteTimeout(cfg.WriteTimeout)
	conn.SetReadTimeout(cfg.DialTimeout)

	hello.Proto = ProtoVersion
	hello.WireDigest = event.FormatDigest()
	// Handshake releases the reply before returning, so readLoop can take
	// over as the transport's sole reader at once.
	w, ei, err := Handshake(conn, hello)
	if ei == nil && err == nil && w.ResumeToken == 0 {
		err = errors.New("server granted no resume token")
	}
	if ei != nil || err != nil {
		conn.Close()
		if ei != nil {
			return nil, ei
		}
		return nil, fmt.Errorf("transport: handshake: %w", err)
	}

	c.welcome = w
	c.gen = newGen(conn, w.Tokens, w.Tokens)
	conn.SetReadTimeout(0) // the reader blocks until the server speaks or EOF
	go c.readLoop(c.gen)
	return c, nil
}

// dialTransport opens the framed transport: through the configured raw-dial
// hook (fault injection wraps net.Conns, so the hook result gets the socket
// framing) or by resolving the address spec against the scheme registry.
func (c *Client) dialTransport() (FrameTransport, error) {
	if c.cfg.Dial != nil {
		nc, err := c.cfg.Dial(c.spec)
		if err != nil {
			return nil, err
		}
		return NewConn(nc), nil
	}
	return DialFrame(c.spec, c.cfg.DialTimeout)
}

// newGen builds a connection generation with cap window tokens, avail of
// them immediately available (the rest are held by in-flight frames).
func newGen(conn FrameTransport, window, avail int) *connGen {
	g := &connGen{
		conn:   conn,
		tokens: make(chan struct{}, window),
		dead:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	for i := 0; i < avail; i++ {
		g.tokens <- struct{}{}
	}
	return g
}

// Session reports the server-assigned session id.
func (c *Client) Session() uint64 { return c.welcome.Session }

// Window reports the granted token window.
func (c *Client) Window() int { return c.welcome.Tokens }

// Stalls reports how many sends found the token window exhausted.
func (c *Client) Stalls() uint64 { return c.stalls.Load() }

// Reconnects reports how many successful resumes this session performed.
func (c *Client) Reconnects() uint64 { return c.reconnects.Load() }

// ReplayedFrames reports how many data frames were retransmitted from the
// replay window across all resumes.
func (c *Client) ReplayedFrames() uint64 { return c.replayed.Load() }

// Migrations reports how many resumes landed this session on a different
// backend shard (ResumeOK.Migrated — a fleet router moving the session).
func (c *Client) Migrations() uint64 { return c.migrations.Load() }

// LinkStats reports transport-level wait instrumentation when the underlying
// transport carries it (the shm ring's park counters); zero otherwise.
// Producer-goroutine only, like the send methods.
func (c *Client) LinkStats() LinkStats {
	if sr, ok := c.gen.conn.(StatsReporter); ok {
		return sr.LinkStats()
	}
	return LinkStats{}
}

// terminal closes done exactly once.
func (c *Client) terminal() { c.doneOnce.Do(func() { close(c.done) }) }

// readLoop drains server frames for one connection generation: credits
// refill the window and prune the replay window, a verdict stops production,
// Done finishes the session. Conn-level errors are recoverable — the loop
// signals gen.dead and exits, and the producer decides whether to resume.
func (c *Client) readLoop(gen *connGen) {
	defer close(gen.exited)
	for {
		h, payload, err := gen.conn.ReadFrame()
		if err != nil {
			gen.die(fmt.Errorf("transport: server connection: %w", err))
			return
		}
		switch h.Type {
		case FrameCredit:
			var cr Credit
			err := DecodeControl(h.Type, payload, &cr)
			gen.conn.ReleasePayload(payload)
			if err != nil {
				gen.die(err)
				return
			}
			c.pruneAcked(cr.Ack)
			for i := 0; i < cr.Tokens; i++ {
				select {
				case gen.tokens <- struct{}{}:
				default: // over-credit; the window cap is authoritative
				}
			}
		case FrameVerdict:
			var v Verdict
			err := DecodeControl(h.Type, payload, &v)
			gen.conn.ReleasePayload(payload)
			if err != nil {
				gen.die(err)
				return
			}
			c.mu.Lock()
			c.verdict = &v
			c.mu.Unlock()
			c.stopped.Store(true)
		case FrameDone:
			var v Verdict
			err := DecodeControl(h.Type, payload, &v)
			gen.conn.ReleasePayload(payload)
			if err != nil {
				gen.die(err)
				return
			}
			c.mu.Lock()
			c.final = &v
			c.mu.Unlock()
			c.stopped.Store(true)
			c.terminal()
			return
		case FrameErrorInfo:
			// An idle notice means the server parked the session and gave
			// up only the connection: recover like any lost link. Every
			// other error frame refuses or tears down the session.
			var ei ErrorInfo
			err := DecodeControl(h.Type, payload, &ei)
			gen.conn.ReleasePayload(payload)
			switch {
			case err != nil:
				c.fatal(err)
			case ei.Code == "idle":
				gen.die(&ei)
			default:
				c.fatal(&ei)
			}
			return
		case FrameRedirect:
			// A fleet router wants this session elsewhere (shard drain or
			// death). Treat it exactly like a lost connection: the producer's
			// recovery redials and resumes, and the router places the resumed
			// session on a healthy shard.
			var rd Redirect
			err := DecodeControl(h.Type, payload, &rd)
			gen.conn.ReleasePayload(payload)
			if err != nil {
				gen.die(err)
				return
			}
			gen.die(fmt.Errorf("transport: server redirect: %s", rd.Reason))
			return
		case FrameHello, FrameWelcome, FramePacket, FrameItems, FrameEnd,
			FrameResume, FrameResumeOK, FrameStats, FrameDrain:
			// Client-to-server kinds (and Welcome/ResumeOK, which belong to
			// the handshake phase, and the fleet poll/drain frames): fatal
			// mid-session, same as corruption.
			fallthrough
		default:
			gen.conn.ReleasePayload(payload)
			c.fatal(fmt.Errorf("transport: unexpected server frame type %d", h.Type))
			return
		}
	}
}

// fatal records the first unrecoverable error and unblocks everything.
func (c *Client) fatal(err error) {
	c.mu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	c.mu.Unlock()
	c.stopped.Store(true)
	c.terminal()
}

func (c *Client) firstErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readErr
}

// pruneAcked releases the replay-window buffers the server has
// acknowledged. The live tail moves down in place, so a bounded window
// allocates nothing in steady state.
func (c *Client) pruneAcked(ack uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.acked = max(c.acked, ack)
	k := 0
	for k < len(c.pending) && c.pending[k].idx <= c.acked {
		event.PutBuf(c.pending[k].buf)
		k++
	}
	if k == 0 {
		return
	}
	n := copy(c.pending, c.pending[k:])
	clear(c.pending[n:])
	c.pending = c.pending[:n]
}

// releasePending drains the replay window back to the buffer pool.
func (c *Client) releasePending() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.pending {
		event.PutBuf(c.pending[i].buf)
		c.pending[i] = pendingFrame{}
	}
	c.pending = c.pending[:0]
}

// take acquires one window token, counting a stall when the window is dry —
// this is where networked backpressure is measured. A dead connection or a
// silent stall triggers recovery. Returns false when the session stopped
// (verdict or error).
func (c *Client) take() bool {
	for {
		gen := c.gen
		select {
		case <-gen.tokens:
			return true
		case <-c.done:
			return false
		default:
		}
		c.stalls.Add(1)
		var stallC <-chan time.Time
		var stallT *time.Timer
		if c.cfg.StallTimeout > 0 {
			stallT = time.NewTimer(c.cfg.StallTimeout)
			stallC = stallT.C
		}
		got := false
		select {
		case <-gen.tokens:
			got = true
		case <-c.done:
		case <-gen.dead:
			c.recover(gen, "connection lost")
		case <-stallC:
			// Writes keep succeeding but no credit has come back for
			// StallTimeout: the link is silently stalled.
			c.recover(gen, "silent stall (no credit)")
		}
		if stallT != nil {
			stallT.Stop()
		}
		if got {
			return true
		}
		select {
		case <-c.done:
			return false
		default:
			// Recovery installed a fresh generation (with refilled tokens)
			// or a terminal state is racing in; re-run the fast path.
		}
	}
}

// recover rebuilds the session on a fresh connection: close the broken
// generation, back off, redial, resume, retransmit. Runs only on the
// producer goroutine. gen is the generation the caller observed dying —
// recovery is skipped if a previous call already replaced it. Returns false
// when the session reached a terminal state instead (final verdict, fatal
// error, retry budget exhausted).
func (c *Client) recover(gen *connGen, why string) bool {
	if c.gen != gen {
		return true // an earlier recover already replaced this generation
	}
	gen.conn.Close()
	<-gen.exited // the reader no longer touches pending or the conn

	// The reader may have delivered a terminal frame before the conn died.
	select {
	case <-c.done:
		return false
	default:
	}
	if gen.err != nil {
		why = fmt.Sprintf("%s (%v)", why, gen.err)
	}

	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxRetries; attempt++ {
		time.Sleep(c.backoff(attempt))
		ng, err := c.redial()
		if err == nil {
			c.gen = ng
			c.reconnects.Add(1)
			return true
		}
		lastErr = err
		if errors.Is(err, ErrSessionLost) {
			// The server refused the resume outright; retrying cannot help.
			c.fatal(err)
			return false
		}
	}
	c.fatal(fmt.Errorf("transport: %s after %d reconnect attempts (%s, last: %v): %w",
		why, c.cfg.MaxRetries, c.spec, lastErr, ErrSessionLost))
	return false
}

// backoff computes the jittered exponential delay for a retry attempt.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.BackoffBase << uint(attempt)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	// Jitter ±50% so a fleet of clients does not reconnect in lockstep.
	return time.Duration(float64(d) * (0.5 + c.rng.Float64()))
}

// redial performs one resume attempt: dial, FrameResume handshake, prune to
// the server's acknowledged prefix, retransmit the rest, refill tokens, and
// restart the reader. An error wrapping ErrSessionLost is a refusal (do not
// retry); any other error is this attempt failing.
func (c *Client) redial() (*connGen, error) {
	conn, err := c.dialTransport()
	if err != nil {
		return nil, err
	}
	conn.SetWriteTimeout(c.cfg.WriteTimeout)
	conn.SetReadTimeout(c.cfg.DialTimeout)

	r := Resume{
		Proto:   ProtoVersion,
		Session: c.welcome.Session,
		Token:   c.welcome.ResumeToken,
		Sent:    c.dataSent,
	}
	var ok ResumeOK
	ei, err := Call(conn, FrameResume, &r, FrameResumeOK, &ok)
	if ei != nil || err != nil {
		conn.Close()
		if ei != nil {
			return nil, fmt.Errorf("transport: resume refused: %v: %w", ei, ErrSessionLost)
		}
		return nil, err
	}

	// Everything the server consumed needs no retransmission.
	c.pruneAcked(ok.Have)
	if ok.Migrated {
		c.migrations.Add(1)
	}
	if ok.Verdict != nil {
		c.mu.Lock()
		if c.verdict == nil {
			c.verdict = ok.Verdict
		}
		c.mu.Unlock()
		c.stopped.Store(true)
	}
	if ok.Final != nil {
		// The session already completed server-side; the resume delivered
		// the Done payload the broken link lost. No retransmission needed.
		c.mu.Lock()
		c.final = ok.Final
		c.mu.Unlock()
		c.stopped.Store(true)
		// The handshake read bound must not outlive the handshake even on
		// this readerless path: Shutdown still drains the conn, and a stale
		// DialTimeout deadline would fail that read with a bogus timeout.
		conn.SetReadTimeout(0)
		g := newGen(conn, c.welcome.Tokens, 0)
		close(g.exited) // no reader: the server side of this conn is done
		c.terminal()
		return g, nil
	}

	// Retransmit the unacknowledged tail in order on the fresh connection.
	// The old reader has exited and the new one starts only below, so no
	// prune runs while the window's buffers are written.
	tail := c.pending
	for _, pf := range tail {
		if err := conn.WriteFrame(pf.typ, pf.buf); err != nil {
			conn.Close()
			return nil, err
		}
		c.replayed.Add(1)
	}
	if c.endSent {
		if err := conn.WriteFrame(FrameEnd, nil); err != nil {
			conn.Close()
			return nil, err
		}
	}

	// In-flight (retransmitted) frames still hold their tokens; only the
	// remainder of the window is immediately available.
	window := c.welcome.Tokens
	if ok.Tokens > 0 && ok.Tokens < window {
		window = ok.Tokens
	}
	avail := window - len(tail)
	if avail < 0 {
		avail = 0
	}
	g := newGen(conn, window, avail)
	conn.SetReadTimeout(0)
	go c.readLoop(g)
	return g, nil
}

// sendData streams one data frame: token, write, replay window. The window
// adopts payload, a pooled buffer, and returns it to the pool once the
// server acknowledges the frame; a send on a stopped session releases it at
// once. The frame joins the window only after the write, so the reader never
// releases a buffer the write is still reading; an ack that raced ahead
// prunes it on the spot. On a write failure recovery retransmits it.
func (c *Client) sendData(typ uint8, payload []byte) (stop bool, err error) {
	if c.stopped.Load() || !c.take() {
		event.PutBuf(payload)
		return true, c.firstErr()
	}
	c.dataSent++
	werr := c.gen.conn.WriteFrame(typ, payload)
	c.adopt(typ, payload)
	if werr != nil {
		gen := c.gen
		gen.die(werr)
		if !c.recover(gen, "send failed") {
			return true, c.firstErr() // nil when terminal with a verdict
		}
		// recover retransmitted the windowed frame on the new connection.
	}
	return c.stopped.Load(), c.firstErr()
}

// adopt adds the data frame just written to the replay window, which now
// owns buf; an ack that raced ahead of the write releases it at once.
func (c *Client) adopt(typ uint8, buf []byte) {
	c.mu.Lock()
	c.pending = append(c.pending, pendingFrame{idx: c.dataSent, typ: typ, buf: buf})
	c.mu.Unlock()
	c.pruneAcked(0)
}

// SendPacket streams one batch-packed packet (its used bytes only). The
// replay window takes over the packet's pooled buffer, so the caller must
// not release it. stop=true means a verdict arrived and production should
// cease.
func (c *Client) SendPacket(pkt batch.Packet) (stop bool, err error) {
	return c.sendData(FramePacket, pkt.Buf[:pkt.Used])
}

// SendItems streams bare wire items (the per-event baseline). The encode
// scratch is pooled and the replay window takes it over, so steady-state
// sends allocate nothing.
func (c *Client) SendItems(items []wire.Item) (stop bool, err error) {
	// ItemsSize pre-sizes the scratch exactly, so AppendItems fills it in
	// place and the encoding is scratch[:len(enc)].
	scratch := event.GetBuf(ItemsSize(items))
	enc, err := AppendItems(scratch, items)
	if err != nil {
		event.PutBuf(scratch)
		return true, err
	}
	return c.sendData(FrameItems, scratch[:len(enc)])
}

// Finish ends the stream: sends FrameEnd, waits for the server's Done, and
// returns the final verdict (which carries any mismatch diagnosis). If the
// connection breaks (or silently stalls) while waiting, the client recovers
// and retransmits; the server replays a lost Done from its parked state.
func (c *Client) Finish() (Verdict, error) {
	c.endSent = true
	if err := c.gen.conn.WriteFrame(FrameEnd, nil); err != nil {
		c.gen.die(err) // the wait below recovers, and the redial resends End
	}
	for {
		gen := c.gen
		var stallC <-chan time.Time
		var stallT *time.Timer
		if c.cfg.StallTimeout > 0 {
			stallT = time.NewTimer(c.cfg.StallTimeout)
			stallC = stallT.C
		}
		ok := false
		select {
		case <-c.done:
			ok = true
		case <-gen.dead:
			c.recover(gen, "connection lost awaiting verdict")
		case <-stallC:
			c.recover(gen, "silent stall awaiting verdict")
		}
		if stallT != nil {
			stallT.Stop()
		}
		if !ok {
			select {
			case <-c.done:
				ok = true
			default:
				continue
			}
		}
		if v, got := c.finalVerdict(); got {
			return v, nil
		}
		if rerr := c.firstErr(); rerr != nil {
			return Verdict{}, rerr
		}
		return Verdict{}, errors.New("transport: session closed without a Done frame")
	}
}

// finalVerdict snapshots the Done payload, if it arrived.
func (c *Client) finalVerdict() (Verdict, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.final != nil {
		return *c.final, true
	}
	return Verdict{}, false
}

// Verdict returns the early mismatch verdict, if one has arrived.
func (c *Client) Verdict() *Verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.verdict
}

// Mismatch reconstructs the checker diagnosis from the most recent verdict.
func (c *Client) Mismatch() *checker.Mismatch {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.final != nil && c.final.Mismatch != nil:
		return c.final.Mismatch.ToChecker()
	case c.verdict != nil:
		return c.verdict.Mismatch.ToChecker()
	}
	return nil
}

// Close tears the connection down and drains the replay window back to the
// buffer pool; safe after Finish. Like the send methods, Close belongs to
// the producer goroutine.
func (c *Client) Close() error {
	err := c.gen.conn.Close()
	<-c.gen.exited
	c.releasePending()
	c.terminal()
	return err
}

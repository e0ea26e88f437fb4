package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checker"
	"repro/internal/event"
	"repro/internal/wire"
)

// Final is a session's end-of-stream outcome.
type Final struct {
	Mismatch *checker.Mismatch
	TrapCode uint64
}

// SessionChecker is the software side of one DUT session: unpacking plus
// REF+checker, owned entirely by that session (no state is shared between
// concurrent sessions). internal/cosim provides the production
// implementation; the split keeps transport free of a cosim dependency.
type SessionChecker interface {
	// Packet consumes one batch-packed packet. buf is a pooled buffer owned
	// by the caller; implementations must copy what they keep (the batch
	// unpacker's arena discipline) and must not retain buf.
	Packet(buf []byte) (*checker.Mismatch, error)
	// Items consumes bare wire items (the per-event baseline).
	Items(items []wire.Item) (*checker.Mismatch, error)
	// Finish flushes held-back state (unpacker tail, reorderer) and reports
	// the final verdict.
	Finish() (Final, error)
	// Events reports how many items were checked (session accounting).
	Events() uint64
}

// CoverageReporter is an optional SessionChecker extension: a session that
// can snapshot its checker's semantic coverage counters. The server attaches
// the snapshot to the closing Done verdict so fuzzing campaigns get the same
// feedback signal from remote shards as from in-process runs. Kept separate
// from SessionChecker so transports and fakes that don't track coverage need
// no stub.
type CoverageReporter interface {
	CoverageSnapshot() *checker.Coverage
}

// NewSessionFunc builds the software side for one accepted handshake. An
// error rejects the session with a FrameError.
type NewSessionFunc func(Hello) (SessionChecker, error)

// ServerConfig tunes difftestd's session handling.
type ServerConfig struct {
	// NewSession builds a per-session checker (required).
	NewSession NewSessionFunc

	// Window is the token window granted per session: the maximum data
	// frames a client may have in flight (0 = DefaultWindow).
	Window int
	// IdleTimeout bounds the wait for an inbound frame. A session idle that
	// long is parked, then told so with an "idle" ErrorInfo; the client
	// resumes it when it next has something to send (0 = DefaultIdleTimeout).
	IdleTimeout time.Duration
	// HandshakeTimeout bounds the wait for the Hello frame
	// (0 = DefaultHandshakeTimeout).
	HandshakeTimeout time.Duration
	// WriteTimeout bounds each outbound frame flush (0 = DefaultWriteTimeout).
	WriteTimeout time.Duration
	// MaxSessions caps concurrent sessions; excess connects are refused
	// with an "overloaded" FrameError (0 = unlimited).
	MaxSessions int
	// ResumeWindow is how long a session whose connection broke (mid-frame
	// EOF, checksum mismatch, idle stall) stays parked with its checker
	// state, so a FrameResume on a fresh connection continues exactly where
	// the stream stopped. A completed session parks with its verdict only
	// (0 = DefaultResumeWindow).
	ResumeWindow time.Duration
	// Logf, when set, receives one line per session lifecycle step.
	Logf func(format string, args ...any)
}

// Server defaults.
const (
	DefaultWindow           = 16
	DefaultIdleTimeout      = 30 * time.Second
	DefaultHandshakeTimeout = 5 * time.Second
	DefaultWriteTimeout     = 10 * time.Second
	DefaultResumeWindow     = 2 * time.Minute
)

// session is the connection-independent state of one DUT session: everything
// that must survive a broken link for a resume to continue the stream.
type session struct {
	id     uint64
	token  uint64
	window int

	sess SessionChecker // nil once final is built

	// dataRecvd counts data frames consumed this session — the server's
	// "Have" in the resume exchange and the Ack riding on every credit.
	dataRecvd uint64

	verdict       *checker.Mismatch // early mismatch, once diagnosed
	verdictEvents uint64
	final         *Verdict // Done payload, once the stream ended

	parkedAt time.Time
	resumes  int
}

// Server accepts concurrent DUT sessions, each with its own REF+checker.
type Server struct {
	cfg ServerConfig

	door FrontDoor

	mu       sync.Mutex
	parked   map[uint64]*session
	draining bool

	nextID     atomic.Uint64
	tokenSalt  uint64
	active     atomic.Int64
	served     atomic.Uint64
	mismatches atomic.Uint64
	reaped     atomic.Uint64
	parkCount  atomic.Uint64
	resumed    atomic.Uint64
}

// NewServer builds a server; cfg.NewSession is required.
func NewServer(cfg ServerConfig) *Server {
	if cfg.NewSession == nil {
		panic("transport: ServerConfig.NewSession is required")
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = DefaultHandshakeTimeout
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.ResumeWindow <= 0 {
		cfg.ResumeWindow = DefaultResumeWindow
	}
	return &Server{
		cfg:       cfg,
		parked:    make(map[uint64]*session),
		tokenSalt: uint64(time.Now().UnixNano()),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ActiveSessions reports the number of sessions currently being served.
func (s *Server) ActiveSessions() int { return int(s.active.Load()) }

// Stats reports lifetime counters: sessions served to completion, mismatch
// verdicts delivered, and parked sessions reaped when their resume window
// closed.
func (s *Server) Stats() (served, mismatches, reaped uint64) {
	return s.served.Load(), s.mismatches.Load(), s.reaped.Load()
}

// ResumeStats reports lifetime resume counters: sessions parked after a
// broken connection and successful resumes.
func (s *Server) ResumeStats() (parked, resumed uint64) {
	return s.parkCount.Load(), s.resumed.Load()
}

// Serve accepts sessions on l until the listener closes (Shutdown). Each
// session runs on its own goroutine. Wrap a bare net.Listener with
// NewNetListener; transport.Listen returns ready-to-serve listeners for
// every registered scheme.
func (s *Server) Serve(l FrameListener) error {
	return s.door.Serve(l, s.serveSession)
}

// Shutdown gracefully drains the server: listeners close immediately (no new
// sessions), active sessions run to their natural end, and when ctx expires
// the remaining connections are interrupted. Parked sessions are discarded
// — their checkers hold no pooled buffers, so dropping them is clean.
// Returns ctx.Err() when the drain was forced.
func (s *Server) Shutdown(ctx context.Context) error {
	s.door.Close()
	s.mu.Lock()
	s.draining = true
	s.parked = make(map[uint64]*session)
	s.mu.Unlock()
	return s.door.Wait(ctx)
}

// park shelves a session whose connection broke so a Resume can pick it up;
// expired parks are reaped on every park and resume.
func (s *Server) park(sn *session, why string) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	sn.parkedAt = now
	s.parked[sn.id] = sn
	s.reapParkedLocked(now)
	s.parkCount.Add(1)
	s.logf("session %d: parked (%s), resumable for %v", sn.id, why, s.cfg.ResumeWindow)
}

// reapParkedLocked drops parked sessions past the resume window. Callers
// hold s.mu.
func (s *Server) reapParkedLocked(now time.Time) {
	for id, sn := range s.parked {
		if now.Sub(sn.parkedAt) > s.cfg.ResumeWindow {
			delete(s.parked, id)
			s.reaped.Add(1)
		}
	}
}

// serveSession runs one connection end to end: a Hello opens a fresh
// session, a Resume continues a parked one.
func (s *Server) serveSession(conn FrameTransport) {
	conn.SetWriteTimeout(s.cfg.WriteTimeout)
	conn.SetReadTimeout(s.cfg.HandshakeTimeout)

	h, payload, err := conn.ReadFrame()
	if err != nil {
		s.logf("session from %s: handshake read: %v", conn.RemoteAddr(), err)
		return
	}
	switch h.Type {
	case FrameHello:
		s.openSession(conn, h, payload)
	case FrameResume:
		s.resumeSession(conn, h, payload)
	case FrameStats:
		conn.ReleasePayload(payload)
		ServeStats(conn, s.StatsInfo, s.cfg.IdleTimeout)
	case FrameWelcome, FramePacket, FrameItems, FrameEnd, FrameCredit,
		FrameVerdict, FrameDone, FrameErrorInfo, FrameResumeOK,
		FrameDrain, FrameRedirect:
		// Only session-opening and stats kinds may start a connection; the
		// rest are refused by name so a new control frame fails lint here.
		// Drain and Redirect are fleet-router frames a shard never accepts.
		fallthrough
	default:
		conn.ReleasePayload(payload)
		Refuse(conn, s.logf, "handshake", fmt.Sprintf("expected Hello, Resume, or Stats, got frame type %d", h.Type))
	}
}

// StatsInfo snapshots the server's health/occupancy counters — the payload
// the FrameStats poll answers with and the one a fleet router's placement
// reads.
func (s *Server) StatsInfo() StatsInfo {
	served, mismatches, _ := s.Stats()
	return StatsInfo{
		Active:     s.ActiveSessions(),
		Parked:     s.parkCount.Load(),
		Resumed:    s.resumed.Load(),
		Served:     served,
		Mismatches: mismatches,
		Window:     s.cfg.Window,
		Capacity:   s.cfg.MaxSessions,
	}
}

// openSession handles a FrameHello: validate, build the checker, welcome.
func (s *Server) openSession(conn FrameTransport, h FrameHeader, payload []byte) {
	var hello Hello
	err := DecodeControl(h.Type, payload, &hello)
	conn.ReleasePayload(payload)
	if err != nil {
		Refuse(conn, s.logf, "handshake", err.Error())
		return
	}
	if hello.Proto != ProtoVersion {
		Refuse(conn, s.logf, "handshake", fmt.Sprintf("protocol version %d (server speaks %d)", hello.Proto, ProtoVersion))
		return
	}
	if d := event.FormatDigest(); hello.WireDigest != d {
		Refuse(conn, s.logf, "handshake", fmt.Sprintf(
			"wire-format digest %#x != server %#x — client and server built from different codec revisions, rerun go generate ./...",
			hello.WireDigest, d))
		return
	}
	if s.cfg.MaxSessions > 0 && int(s.active.Load()) >= s.cfg.MaxSessions {
		Refuse(conn, s.logf, "overloaded", fmt.Sprintf("at capacity (%d sessions)", s.cfg.MaxSessions))
		return
	}
	chk, err := s.cfg.NewSession(hello)
	if err != nil {
		Refuse(conn, s.logf, "handshake", err.Error())
		return
	}

	id := s.nextID.Add(1)
	sn := &session{
		id:     id,
		token:  (id*0x9e3779b97f4a7c15 ^ s.tokenSalt) | 1,
		window: s.cfg.Window,
		sess:   chk,
	}
	s.active.Add(1)
	defer s.active.Add(-1)
	s.logf("session %d: %s/%s/%s %s instrs=%d seed=%d from %s",
		id, hello.DUT, hello.Platform, hello.Config, hello.Workload,
		hello.TargetInstrs, hello.Seed, conn.RemoteAddr())

	w := Welcome{
		Proto: ProtoVersion, WireDigest: event.FormatDigest(),
		Session: id, Tokens: sn.window, ResumeToken: sn.token,
	}
	if err := conn.WriteFrame(FrameWelcome, EncodeControl(&w)); err != nil {
		s.logf("session %d: welcome write: %v", id, err)
		return
	}

	conn.SetReadTimeout(s.cfg.IdleTimeout)
	s.runSession(conn, sn)
}

// resumeSession handles a FrameResume: look the parked session up, replay
// what the broken connection lost, continue the stream.
func (s *Server) resumeSession(conn FrameTransport, h FrameHeader, payload []byte) {
	var r Resume
	err := DecodeControl(h.Type, payload, &r)
	conn.ReleasePayload(payload)
	if err != nil {
		Refuse(conn, s.logf, "resume", err.Error())
		return
	}
	if r.Proto != ProtoVersion {
		Refuse(conn, s.logf, "resume", fmt.Sprintf("protocol version %d (server speaks %d)", r.Proto, ProtoVersion))
		return
	}
	now := time.Now()
	s.mu.Lock()
	s.reapParkedLocked(now)
	sn := s.parked[r.Session]
	if sn != nil && sn.token == r.Token {
		delete(s.parked, r.Session)
	} else {
		sn = nil
	}
	s.mu.Unlock()
	if sn == nil {
		Refuse(conn, s.logf, "resume", fmt.Sprintf("unknown or expired session %d", r.Session))
		return
	}
	if r.Sent < sn.dataRecvd {
		// The client claims it sent fewer data frames than this session
		// consumed — the resume targets a different stream.
		Refuse(conn, s.logf, "resume", fmt.Sprintf(
			"client sent %d data frames but session %d consumed %d", r.Sent, r.Session, sn.dataRecvd))
		return
	}
	sn.resumes++
	s.resumed.Add(1)
	s.active.Add(1)
	defer s.active.Add(-1)
	s.logf("session %d: resumed (#%d) from %s: have=%d client sent=%d",
		sn.id, sn.resumes, conn.RemoteAddr(), sn.dataRecvd, r.Sent)

	ok := ResumeOK{Have: sn.dataRecvd, Tokens: sn.window, Final: sn.final}
	if sn.verdict != nil && sn.final == nil {
		// Replay the early mismatch verdict the broken link may have lost.
		ok.Verdict = &Verdict{Mismatch: NewMismatchReport(sn.verdict), Events: sn.verdictEvents}
	}
	if err := conn.WriteFrame(FrameResumeOK, EncodeControl(&ok)); err != nil {
		s.logf("session %d: resume-ok write: %v", sn.id, err)
		s.park(sn, "resume-ok write failed")
		return
	}
	if sn.final != nil {
		// The session already completed; the ResumeOK carried the Done
		// payload. Park it again so even a lost ResumeOK can be retried
		// until the resume window closes.
		s.park(sn, "completed, awaiting client ack of final verdict")
		return
	}

	conn.SetReadTimeout(s.cfg.IdleTimeout)
	s.runSession(conn, sn)
}

// runSession is the per-session data loop. Every inbound data frame costs
// the client a token; the credit returning it is sent only after the frame's
// pooled buffer has been consumed and released, so the window also bounds
// the server's buffered bytes. Each credit also acknowledges the consumed
// prefix (Credit.Ack) so the client prunes its replay window.
func (s *Server) runSession(conn FrameTransport, sn *session) {
	id := sn.id
	for {
		h, payload, err := conn.ReadFrame()
		if err != nil {
			if isTimeout(err) {
				// Park before saying so: a client that reads the idle
				// notice and redials at once must find the session.
				s.park(sn, "idle")
				conn.WriteFrame(FrameErrorInfo, EncodeControl(&ErrorInfo{
					Code: "idle", Msg: fmt.Sprintf("no frame for %v", s.cfg.IdleTimeout)}))
				return
			}
			// Clean EOF between frames and broken streams alike: the
			// connection is gone, but the session can continue on a new one.
			s.park(sn, fmt.Sprintf("connection lost: %v", err))
			return
		}
		switch h.Type {
		case FramePacket, FrameItems:
			m, err := s.consume(sn.sess, h.Type, payload, sn.verdict != nil)
			conn.ReleasePayload(payload)
			if err != nil {
				// The checksum held, so this is a malformed payload from the
				// client itself, not line noise — a fatal protocol error, not
				// a resumable fault.
				s.logf("session %d: decode: %v", id, err)
				conn.WriteFrame(FrameErrorInfo, EncodeControl(&ErrorInfo{Code: "decode", Msg: err.Error()}))
				return
			}
			sn.dataRecvd++
			// The frame is consumed: return its token before the verdict so
			// a stopped client never deadlocks holding zero tokens.
			if err := conn.WriteFrame(FrameCredit, EncodeControl(&Credit{Tokens: 1, Ack: sn.dataRecvd})); err != nil {
				s.logf("session %d: credit write: %v", id, err)
				s.park(sn, "credit write failed")
				return
			}
			if m != nil && sn.verdict == nil {
				sn.verdict = m
				sn.verdictEvents = sn.sess.Events()
				s.mismatches.Add(1)
				s.logf("session %d: mismatch: %v", id, m)
				if err := conn.WriteFrame(FrameVerdict, EncodeControl(&Verdict{
					Mismatch: NewMismatchReport(m), Events: sn.verdictEvents,
				})); err != nil {
					s.logf("session %d: verdict write: %v", id, err)
					s.park(sn, "verdict write failed")
					return
				}
			}
		case FrameEnd:
			conn.ReleasePayload(payload)
			v := Verdict{Mismatch: NewMismatchReport(sn.verdict), Events: sn.sess.Events()}
			if sn.verdict == nil {
				fin, err := sn.sess.Finish()
				if err != nil {
					s.logf("session %d: finish: %v", id, err)
					conn.WriteFrame(FrameErrorInfo, EncodeControl(&ErrorInfo{Code: "internal", Msg: err.Error()}))
					return
				}
				if fin.Mismatch != nil {
					s.mismatches.Add(1)
					v.Mismatch = NewMismatchReport(fin.Mismatch)
				} else {
					v.Finished = true
					v.TrapCode = fin.TrapCode
				}
				v.Events = sn.sess.Events()
			}
			if cr, ok := sn.sess.(CoverageReporter); ok {
				v.Coverage = cr.CoverageSnapshot()
			}
			sn.final = &v
			// The verdict is all a completed session still needs: drop the
			// checker (REF memory and all) rather than park it.
			sn.sess = nil
			s.served.Add(1)
			// Even after a successful write the client may never see the
			// Done frame (stalled link); keep the completed session parked so
			// the final verdict can be replayed. Park before the write: a
			// client that reads Done and redials at once must already find
			// the session.
			s.park(sn, "completed")
			err := conn.WriteFrame(FrameDone, EncodeControl(&v))
			if err != nil {
				s.logf("session %d: done write: %v", id, err)
			}
			s.logf("session %d: done (finished=%v mismatch=%v, %d events)",
				id, v.Finished, v.Mismatch != nil, v.Events)
			return
		case FrameHello, FrameWelcome, FrameCredit, FrameVerdict, FrameDone,
			FrameErrorInfo, FrameResume, FrameResumeOK, FrameStats,
			FrameDrain, FrameRedirect:
			// Handshake, server-to-client, and fleet-control kinds are
			// protocol errors once the session is streaming — same teardown
			// as corruption.
			fallthrough
		default:
			conn.ReleasePayload(payload)
			s.logf("session %d: unexpected frame type %d", id, h.Type)
			conn.WriteFrame(FrameErrorInfo, EncodeControl(&ErrorInfo{
				Code: "decode", Msg: fmt.Sprintf("unexpected frame type %d", h.Type)}))
			return
		}
	}
}

// consume feeds one data frame to the session checker. After a verdict the
// stream is no longer checked — the client's in-flight window still drains
// through here so every pooled buffer is read and released.
func (s *Server) consume(sess SessionChecker, typ uint8, payload []byte, stopped bool) (*checker.Mismatch, error) {
	if stopped {
		return nil, nil
	}
	switch typ {
	case FramePacket:
		return sess.Packet(payload)
	case FrameItems:
		items, err := DecodeItems(payload)
		if err != nil {
			return nil, err
		}
		return sess.Items(items)
	case FrameHello, FrameWelcome, FrameEnd, FrameCredit, FrameVerdict,
		FrameDone, FrameErrorInfo, FrameResume, FrameResumeOK, FrameStats,
		FrameDrain, FrameRedirect:
		// This used to be the FrameItems arm's default: any unexpected type
		// was silently decoded as bare items. Only the two data kinds carry
		// checker traffic; everything else is a caller bug, not a stream.
		fallthrough
	default:
		return nil, fmt.Errorf("frame type %d is not a data frame", typ)
	}
}

// isTimeout reports whether err is a network deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
